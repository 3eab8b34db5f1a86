package modelio

// The document forms and the encoding/json codec over them. The mapping,
// the views and the SatCache snapshot convert to Go structs tagged for
// encoding/json; that was the production codec before the compact encoders
// (append.go) and the one-pass decoders (decode.go), and it is kept here as
// their oracle: byte for byte on encode, tree for tree on decode. The
// decode oracle disallows unknown fields in all three documents.
// ToDocument, ViewsToDoc, OracleDecode, OracleDecodeViews,
// OracleEncodeSnapshot and OracleDecodeSnapshot are exported for the
// oracle tests in package modelio_test.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/esql"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// Document is the JSON shape of a mapping.
type Document struct {
	Client    ClientDoc     `json:"client"`
	Store     StoreDoc      `json:"store"`
	Fragments []FragmentDoc `json:"fragments"`
}

// ClientDoc is the JSON shape of a client schema.
type ClientDoc struct {
	Types        []TypeDoc  `json:"types"`
	Sets         []SetDoc   `json:"sets"`
	Associations []AssocDoc `json:"associations,omitempty"`
}

// TypeDoc is the JSON shape of an entity type.
type TypeDoc struct {
	Name     string    `json:"name"`
	Base     string    `json:"base,omitempty"`
	Abstract bool      `json:"abstract,omitempty"`
	Attrs    []AttrDoc `json:"attrs,omitempty"`
	Key      []string  `json:"key,omitempty"`
}

// AttrDoc is the JSON shape of an attribute or column.
type AttrDoc struct {
	Name     string            `json:"name"`
	Type     string            `json:"type"`
	Nullable bool              `json:"nullable,omitempty"`
	Enum     []json.RawMessage `json:"enum,omitempty"`
}

// SetDoc is the JSON shape of an entity set.
type SetDoc struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// AssocDoc is the JSON shape of an association.
type AssocDoc struct {
	Name string `json:"name"`
	End1 EndDoc `json:"end1"`
	End2 EndDoc `json:"end2"`
}

// EndDoc is the JSON shape of an association end.
type EndDoc struct {
	Type string `json:"type"`
	Mult string `json:"mult"`
}

// StoreDoc is the JSON shape of a store schema.
type StoreDoc struct {
	Tables []TableDoc `json:"tables"`
}

// TableDoc is the JSON shape of a table.
type TableDoc struct {
	Name string    `json:"name"`
	Cols []AttrDoc `json:"cols"`
	Key  []string  `json:"key"`
	FKs  []FKDoc   `json:"fks,omitempty"`
}

// FKDoc is the JSON shape of a foreign key.
type FKDoc struct {
	Name     string   `json:"name"`
	Cols     []string `json:"cols"`
	RefTable string   `json:"refTable"`
	RefCols  []string `json:"refCols"`
}

// FragmentDoc is the JSON shape of a mapping fragment.
type FragmentDoc struct {
	ID         string            `json:"id"`
	Set        string            `json:"set,omitempty"`
	Assoc      string            `json:"assoc,omitempty"`
	ClientCond string            `json:"clientCond"`
	Attrs      []string          `json:"attrs"`
	Table      string            `json:"table"`
	StoreCond  string            `json:"storeCond"`
	ColOf      map[string]string `json:"colOf"`
}

// OracleDecode reads a mapping document through encoding/json and
// validates it.
func OracleDecode(data []byte) (*frag.Mapping, error) {
	var doc Document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	return fromDocument(&doc)
}

func decodeEnum(k cond.Kind, raws []json.RawMessage) ([]cond.Value, error) {
	out := make([]cond.Value, 0, len(raws))
	for _, raw := range raws {
		switch k {
		case cond.KindString:
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			out = append(out, cond.String(s))
		case cond.KindInt:
			var i int64
			if err := json.Unmarshal(raw, &i); err != nil {
				return nil, err
			}
			out = append(out, cond.Int(i))
		case cond.KindFloat:
			var f float64
			if err := json.Unmarshal(raw, &f); err != nil {
				return nil, err
			}
			out = append(out, cond.Float(f))
		case cond.KindBool:
			var b bool
			if err := json.Unmarshal(raw, &b); err != nil {
				return nil, err
			}
			out = append(out, cond.Bool(b))
		}
	}
	return out, nil
}

func fromDocument(doc *Document) (*frag.Mapping, error) {
	c := edm.NewSchema()
	for _, td := range doc.Client.Types {
		t := edm.EntityType{Name: td.Name, Base: td.Base, Abstract: td.Abstract, Key: td.Key}
		for _, ad := range td.Attrs {
			k, err := kindOf(ad.Type)
			if err != nil {
				return nil, err
			}
			enum, err := decodeEnum(k, ad.Enum)
			if err != nil {
				return nil, err
			}
			t.Attrs = append(t.Attrs, edm.Attribute{Name: ad.Name, Type: k, Nullable: ad.Nullable, Enum: enum})
		}
		if err := c.AddType(t); err != nil {
			return nil, err
		}
	}
	for _, sd := range doc.Client.Sets {
		if err := c.AddSet(edm.EntitySet{Name: sd.Name, Type: sd.Type}); err != nil {
			return nil, err
		}
	}
	for _, ad := range doc.Client.Associations {
		m1, err := multOf(ad.End1.Mult)
		if err != nil {
			return nil, err
		}
		m2, err := multOf(ad.End2.Mult)
		if err != nil {
			return nil, err
		}
		if err := c.AddAssociation(edm.Association{
			Name: ad.Name,
			End1: edm.End{Type: ad.End1.Type, Mult: m1},
			End2: edm.End{Type: ad.End2.Type, Mult: m2},
		}); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}

	s := rel.NewSchema()
	for _, td := range doc.Store.Tables {
		t := rel.Table{Name: td.Name, Key: td.Key}
		for _, cd := range td.Cols {
			k, err := kindOf(cd.Type)
			if err != nil {
				return nil, err
			}
			enum, err := decodeEnum(k, cd.Enum)
			if err != nil {
				return nil, err
			}
			t.Cols = append(t.Cols, rel.Column{Name: cd.Name, Type: k, Nullable: cd.Nullable, Enum: enum})
		}
		for _, fd := range td.FKs {
			t.FKs = append(t.FKs, rel.ForeignKey{Name: fd.Name, Cols: fd.Cols, RefTable: fd.RefTable, RefCols: fd.RefCols})
		}
		if err := s.AddTable(t); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}

	m := &frag.Mapping{Client: c, Store: s}
	for _, fd := range doc.Fragments {
		cc, err := esql.ParseCond(fd.ClientCond)
		if err != nil {
			return nil, fmt.Errorf("modelio: fragment %s client condition: %w", fd.ID, err)
		}
		sc, err := esql.ParseCond(fd.StoreCond)
		if err != nil {
			return nil, fmt.Errorf("modelio: fragment %s store condition: %w", fd.ID, err)
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         fd.ID,
			Set:        fd.Set,
			Assoc:      fd.Assoc,
			ClientCond: cc,
			Attrs:      fd.Attrs,
			Table:      fd.Table,
			StoreCond:  sc,
			ColOf:      fd.ColOf,
		})
	}
	if err := m.CheckWellFormed(); err != nil {
		return nil, err
	}
	return m, nil
}

// ViewsDoc is the JSON shape of a compiled view set (frag.Views).
type ViewsDoc struct {
	Query  map[string]*ViewDoc `json:"query,omitempty"`
	Assoc  map[string]*ViewDoc `json:"assoc,omitempty"`
	Update map[string]*ViewDoc `json:"update,omitempty"`
}

// ViewDoc is the JSON shape of one (Q | τ) view.
type ViewDoc struct {
	Q     *QDoc     `json:"q"`
	Cases []CaseDoc `json:"cases,omitempty"`
}

// CaseDoc is one constructor branch.
type CaseDoc struct {
	When  *CondDoc          `json:"when"`
	Type  string            `json:"type"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// QDoc is the JSON shape of a relational query tree node. Op selects the
// node type; the other fields are populated per Op.
type QDoc struct {
	Op     string       `json:"op"`
	Name   string       `json:"name,omitempty"`   // scantable/scanset/scanassoc
	In     *QDoc        `json:"in,omitempty"`     // select/project
	Cond   *CondDoc     `json:"cond,omitempty"`   // select
	Cols   []ProjColDoc `json:"cols,omitempty"`   // project
	Kind   string       `json:"kind,omitempty"`   // join
	L      *QDoc        `json:"l,omitempty"`      // join
	R      *QDoc        `json:"r,omitempty"`      // join
	On     [][2]string  `json:"on,omitempty"`     // join
	Inputs []QDoc       `json:"inputs,omitempty"` // unionall
}

// ProjColDoc is one projection output column.
type ProjColDoc struct {
	As  string      `json:"as"`
	Src string      `json:"src,omitempty"`
	Lit *LiteralDoc `json:"lit,omitempty"`
}

// LiteralDoc is a constant projection source, possibly a typed NULL.
type LiteralDoc struct {
	Null bool            `json:"null,omitempty"`
	Kind string          `json:"kind"`
	Val  json.RawMessage `json:"val,omitempty"`
}

// CondDoc is the structural JSON shape of a boolean condition.
type CondDoc struct {
	Op   string          `json:"op"` // true false typeis null cmp not and or
	Var  string          `json:"var,omitempty"`
	Type string          `json:"type,omitempty"`
	Only bool            `json:"only,omitempty"`
	Attr string          `json:"attr,omitempty"`
	Cmp  string          `json:"cmp,omitempty"` // comparison operator symbol
	Kind string          `json:"kind,omitempty"`
	Val  json.RawMessage `json:"val,omitempty"`
	Kids []CondDoc       `json:"kids,omitempty"`
}

// OracleDecodeViews reads a views document through encoding/json,
// rebuilding every condition through the cond constructors.
func OracleDecodeViews(data []byte) (*frag.Views, error) {
	var doc ViewsDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("modelio: views: %w", err)
	}
	return ViewsFromDoc(&doc)
}

// ViewsFromDoc rebuilds a view set from its document form.
func ViewsFromDoc(doc *ViewsDoc) (*frag.Views, error) {
	out := frag.NewViews()
	for name, vd := range doc.Query {
		v, err := viewFromDoc(vd)
		if err != nil {
			return nil, fmt.Errorf("modelio: query view %q: %w", name, err)
		}
		out.SetQuery(name, v)
	}
	for name, vd := range doc.Assoc {
		v, err := viewFromDoc(vd)
		if err != nil {
			return nil, fmt.Errorf("modelio: assoc view %q: %w", name, err)
		}
		out.SetAssoc(name, v)
	}
	for name, vd := range doc.Update {
		v, err := viewFromDoc(vd)
		if err != nil {
			return nil, fmt.Errorf("modelio: update view %q: %w", name, err)
		}
		out.SetUpdate(name, v)
	}
	return out, nil
}

func viewFromDoc(vd *ViewDoc) (*cqt.View, error) {
	if vd == nil || vd.Q == nil {
		return nil, fmt.Errorf("missing query tree")
	}
	q, err := qFromDoc(vd.Q)
	if err != nil {
		return nil, err
	}
	v := &cqt.View{Q: q}
	for _, cd := range vd.Cases {
		when, err := condFromDoc(cd.When)
		if err != nil {
			return nil, err
		}
		attrs := make(map[string]string, len(cd.Attrs))
		for k, col := range cd.Attrs {
			attrs[k] = col
		}
		v.Cases = append(v.Cases, cqt.Case{When: when, Type: cd.Type, Attrs: attrs})
	}
	return v, nil
}

func qFromDoc(d *QDoc) (cqt.Expr, error) {
	if d == nil {
		return nil, fmt.Errorf("missing query node")
	}
	switch d.Op {
	case "scantable":
		return cqt.ScanTable{Table: d.Name}, nil
	case "scanset":
		return cqt.ScanSet{Set: d.Name}, nil
	case "scanassoc":
		return cqt.ScanAssoc{Assoc: d.Name}, nil
	case "select":
		in, err := qFromDoc(d.In)
		if err != nil {
			return nil, err
		}
		c, err := condFromDoc(d.Cond)
		if err != nil {
			return nil, err
		}
		return cqt.Select{In: in, Cond: c}, nil
	case "project":
		in, err := qFromDoc(d.In)
		if err != nil {
			return nil, err
		}
		cols := make([]cqt.ProjCol, len(d.Cols))
		for i, cd := range d.Cols {
			pc := cqt.ProjCol{As: cd.As, Src: cd.Src}
			if cd.Lit != nil {
				lit, err := literalFromDoc(cd.Lit)
				if err != nil {
					return nil, err
				}
				pc.Lit = lit
				pc.Src = ""
			}
			cols[i] = pc
		}
		return cqt.Project{In: in, Cols: cols}, nil
	case "join":
		kind, err := joinKindOf(d.Kind)
		if err != nil {
			return nil, err
		}
		l, err := qFromDoc(d.L)
		if err != nil {
			return nil, err
		}
		r, err := qFromDoc(d.R)
		if err != nil {
			return nil, err
		}
		return cqt.Join{Kind: kind, L: l, R: r, On: d.On}, nil
	case "unionall":
		inputs := make([]cqt.Expr, len(d.Inputs))
		for i := range d.Inputs {
			in, err := qFromDoc(&d.Inputs[i])
			if err != nil {
				return nil, err
			}
			inputs[i] = in
		}
		return cqt.UnionAll{Inputs: inputs}, nil
	}
	return nil, fmt.Errorf("unknown query op %q", d.Op)
}

func literalFromDoc(d *LiteralDoc) (*cqt.Literal, error) {
	k, err := kindOf(d.Kind)
	if err != nil {
		return nil, err
	}
	if d.Null {
		return cqt.NullOf(k), nil
	}
	v, err := valueOfRaw(k, d.Val)
	if err != nil {
		return nil, err
	}
	return cqt.Const(v), nil
}

func valueOfRaw(k cond.Kind, raw json.RawMessage) (cond.Value, error) {
	switch k {
	case cond.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return cond.Value{}, err
		}
		return cond.String(s), nil
	case cond.KindInt:
		var i int64
		if err := json.Unmarshal(raw, &i); err != nil {
			return cond.Value{}, err
		}
		return cond.Int(i), nil
	case cond.KindFloat:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return cond.Value{}, err
		}
		return cond.Float(f), nil
	case cond.KindBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return cond.Value{}, err
		}
		return cond.Bool(b), nil
	}
	return cond.Value{}, fmt.Errorf("unknown value kind %q", k)
}

// condFromDoc rebuilds a condition, funneling every composite through the
// cond constructors: the result is interned, so == works against freshly
// compiled expressions, and its cache keys match the ones the original
// process computed.
func condFromDoc(d *CondDoc) (cond.Expr, error) {
	if d == nil {
		return nil, fmt.Errorf("missing condition node")
	}
	switch d.Op {
	case "true":
		return cond.True{}, nil
	case "false":
		return cond.False{}, nil
	case "typeis":
		return cond.TypeIs{Var: d.Var, Type: d.Type, Only: d.Only}, nil
	case "null":
		return cond.Null{Attr: d.Attr}, nil
	case "cmp":
		op, err := cmpOpOf(d.Cmp)
		if err != nil {
			return nil, err
		}
		k, err := kindOf(d.Kind)
		if err != nil {
			return nil, err
		}
		v, err := valueOfRaw(k, d.Val)
		if err != nil {
			return nil, err
		}
		return cond.Cmp{Attr: d.Attr, Op: op, Val: v}, nil
	case "not":
		if len(d.Kids) != 1 {
			return nil, fmt.Errorf("not node wants 1 child, has %d", len(d.Kids))
		}
		kid, err := condFromDoc(&d.Kids[0])
		if err != nil {
			return nil, err
		}
		return cond.NewNot(kid), nil
	case "and", "or":
		kids := make([]cond.Expr, len(d.Kids))
		for i := range d.Kids {
			kid, err := condFromDoc(&d.Kids[i])
			if err != nil {
				return nil, err
			}
			kids[i] = kid
		}
		if d.Op == "and" {
			return cond.NewAnd(kids...), nil
		}
		return cond.NewOr(kids...), nil
	}
	return nil, fmt.Errorf("unknown condition op %q", d.Op)
}

// OracleEncodeSnapshot writes a SatCache snapshot through encoding/json,
// the oracle for AppendSnapshot.
func OracleEncodeSnapshot(s *cond.SatSnapshot) ([]byte, error) { return json.Marshal(s) }

// OracleDecodeSnapshot reads a SatCache snapshot through encoding/json.
func OracleDecodeSnapshot(data []byte) (*cond.SatSnapshot, error) {
	var snap cond.SatSnapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("modelio: satcache: %w", err)
	}
	return &snap, nil
}

// ToDocument converts a mapping to its document form.
func ToDocument(m *frag.Mapping) (*Document, error) {
	doc := &Document{}
	for _, t := range m.Client.Types() {
		td := TypeDoc{Name: t.Name, Base: t.Base, Abstract: t.Abstract, Key: t.Key}
		for _, a := range t.Attrs {
			enum, err := encodeEnum(a.Type, a.Enum)
			if err != nil {
				return nil, err
			}
			td.Attrs = append(td.Attrs, AttrDoc{
				Name: a.Name, Type: kindName(a.Type), Nullable: a.Nullable, Enum: enum,
			})
		}
		doc.Client.Types = append(doc.Client.Types, td)
	}
	for _, s := range m.Client.Sets() {
		doc.Client.Sets = append(doc.Client.Sets, SetDoc{Name: s.Name, Type: s.Type})
	}
	for _, a := range m.Client.Associations() {
		doc.Client.Associations = append(doc.Client.Associations, AssocDoc{
			Name: a.Name,
			End1: EndDoc{Type: a.End1.Type, Mult: multName(a.End1.Mult)},
			End2: EndDoc{Type: a.End2.Type, Mult: multName(a.End2.Mult)},
		})
	}
	for _, t := range m.Store.Tables() {
		td := TableDoc{Name: t.Name, Key: t.Key}
		for _, c := range t.Cols {
			enum, err := encodeEnum(c.Type, c.Enum)
			if err != nil {
				return nil, err
			}
			td.Cols = append(td.Cols, AttrDoc{
				Name: c.Name, Type: kindName(c.Type), Nullable: c.Nullable, Enum: enum,
			})
		}
		for _, fk := range t.FKs {
			td.FKs = append(td.FKs, FKDoc{Name: fk.Name, Cols: fk.Cols, RefTable: fk.RefTable, RefCols: fk.RefCols})
		}
		doc.Store.Tables = append(doc.Store.Tables, td)
	}
	for _, f := range m.Frags {
		doc.Fragments = append(doc.Fragments, FragmentDoc{
			ID:         f.ID,
			Set:        f.Set,
			Assoc:      f.Assoc,
			ClientCond: f.ClientCond.String(),
			Attrs:      f.Attrs,
			Table:      f.Table,
			StoreCond:  f.StoreCond.String(),
			ColOf:      f.ColOf,
		})
	}
	return doc, nil
}

func encodeEnum(k cond.Kind, vals []cond.Value) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(vals))
	for _, v := range vals {
		var raw []byte
		var err error
		switch k {
		case cond.KindString:
			raw, err = json.Marshal(v.Str())
		case cond.KindInt:
			raw, err = json.Marshal(v.IntVal())
		case cond.KindFloat:
			raw, err = json.Marshal(v.FloatVal())
		case cond.KindBool:
			raw, err = json.Marshal(v.BoolVal())
		}
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// ViewsToDoc converts a view set to its document form.
func ViewsToDoc(v *frag.Views) (*ViewsDoc, error) {
	doc := &ViewsDoc{}
	var err error
	if doc.Query, err = viewMapToDoc(v.Query); err != nil {
		return nil, err
	}
	if doc.Assoc, err = viewMapToDoc(v.Assoc); err != nil {
		return nil, err
	}
	if doc.Update, err = viewMapToDoc(v.Update); err != nil {
		return nil, err
	}
	return doc, nil
}

func viewMapToDoc(m map[string]*cqt.View) (map[string]*ViewDoc, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[string]*ViewDoc, len(m))
	for name, v := range m {
		vd, err := viewToDoc(v)
		if err != nil {
			return nil, fmt.Errorf("modelio: view %q: %w", name, err)
		}
		out[name] = vd
	}
	return out, nil
}

func viewToDoc(v *cqt.View) (*ViewDoc, error) {
	q, err := qToDoc(v.Q)
	if err != nil {
		return nil, err
	}
	vd := &ViewDoc{Q: q}
	for _, c := range v.Cases {
		when, err := condToDoc(c.When)
		if err != nil {
			return nil, err
		}
		vd.Cases = append(vd.Cases, CaseDoc{When: when, Type: c.Type, Attrs: c.Attrs})
	}
	return vd, nil
}

func qToDoc(e cqt.Expr) (*QDoc, error) {
	switch q := e.(type) {
	case cqt.ScanTable:
		return &QDoc{Op: "scantable", Name: q.Table}, nil
	case cqt.ScanSet:
		return &QDoc{Op: "scanset", Name: q.Set}, nil
	case cqt.ScanAssoc:
		return &QDoc{Op: "scanassoc", Name: q.Assoc}, nil
	case cqt.Select:
		in, err := qToDoc(q.In)
		if err != nil {
			return nil, err
		}
		c, err := condToDoc(q.Cond)
		if err != nil {
			return nil, err
		}
		return &QDoc{Op: "select", In: in, Cond: c}, nil
	case cqt.Project:
		in, err := qToDoc(q.In)
		if err != nil {
			return nil, err
		}
		cols := make([]ProjColDoc, len(q.Cols))
		for i, pc := range q.Cols {
			cd := ProjColDoc{As: pc.As, Src: pc.Src}
			if pc.Lit != nil {
				ld, err := literalToDoc(pc.Lit)
				if err != nil {
					return nil, err
				}
				cd.Lit = ld
				cd.Src = ""
			}
			cols[i] = cd
		}
		return &QDoc{Op: "project", In: in, Cols: cols}, nil
	case cqt.Join:
		l, err := qToDoc(q.L)
		if err != nil {
			return nil, err
		}
		r, err := qToDoc(q.R)
		if err != nil {
			return nil, err
		}
		return &QDoc{Op: "join", Kind: joinKindName(q.Kind), L: l, R: r, On: q.On}, nil
	case cqt.UnionAll:
		inputs := make([]QDoc, len(q.Inputs))
		for i, in := range q.Inputs {
			d, err := qToDoc(in)
			if err != nil {
				return nil, err
			}
			inputs[i] = *d
		}
		return &QDoc{Op: "unionall", Inputs: inputs}, nil
	}
	return nil, fmt.Errorf("unknown query node %T", e)
}

func literalToDoc(l *cqt.Literal) (*LiteralDoc, error) {
	d := &LiteralDoc{Null: l.Null, Kind: kindName(l.Kind)}
	if !l.Null {
		raw, err := valueRaw(l.Val)
		if err != nil {
			return nil, err
		}
		d.Val = raw
	}
	return d, nil
}

// valueRaw marshals a typed value as its bare JSON form (kind travels
// alongside it in the containing document).
func valueRaw(v cond.Value) (json.RawMessage, error) {
	switch v.K {
	case cond.KindString:
		return json.Marshal(v.Str())
	case cond.KindInt:
		return json.Marshal(v.IntVal())
	case cond.KindFloat:
		return json.Marshal(v.FloatVal())
	case cond.KindBool:
		return json.Marshal(v.BoolVal())
	}
	return nil, fmt.Errorf("unknown value kind %v", v.K)
}

func condToDoc(x cond.Expr) (*CondDoc, error) {
	switch v := x.(type) {
	case nil:
		return nil, fmt.Errorf("nil condition")
	case cond.True:
		return &CondDoc{Op: "true"}, nil
	case cond.False:
		return &CondDoc{Op: "false"}, nil
	case cond.TypeIs:
		return &CondDoc{Op: "typeis", Var: v.Var, Type: v.Type, Only: v.Only}, nil
	case cond.Null:
		return &CondDoc{Op: "null", Attr: v.Attr}, nil
	case cond.Cmp:
		raw, err := valueRaw(v.Val)
		if err != nil {
			return nil, err
		}
		return &CondDoc{Op: "cmp", Attr: v.Attr, Cmp: cmpOpName(v.Op), Kind: kindName(v.Val.K), Val: raw}, nil
	case *cond.Not:
		kid, err := condToDoc(v.X)
		if err != nil {
			return nil, err
		}
		return &CondDoc{Op: "not", Kids: []CondDoc{*kid}}, nil
	case *cond.And:
		kids, err := condKidsToDoc(v.Xs)
		if err != nil {
			return nil, err
		}
		return &CondDoc{Op: "and", Kids: kids}, nil
	case *cond.Or:
		kids, err := condKidsToDoc(v.Xs)
		if err != nil {
			return nil, err
		}
		return &CondDoc{Op: "or", Kids: kids}, nil
	}
	return nil, fmt.Errorf("unknown condition node %T", x)
}

func condKidsToDoc(xs []cond.Expr) ([]CondDoc, error) {
	kids := make([]CondDoc, len(xs))
	for i, x := range xs {
		kd, err := condToDoc(x)
		if err != nil {
			return nil, err
		}
		kids[i] = *kd
	}
	return kids, nil
}
