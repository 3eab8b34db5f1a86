// Structural serialization of compiled views. Unlike the mapping document
// (modelio.go), which renders conditions in Entity-SQL text for human
// readability, compiled artifacts round-trip through a structural JSON form:
// the esql grammar cannot represent every expression the compiler builds
// (e.g. multi-subject conditions with explicit empty subjects), and the
// decode path must rebuild conditions through the cond constructors so the
// hash-consing invariant — structurally equal composites are pointer-equal —
// holds for loaded views exactly as for freshly compiled ones.
package modelio

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
)

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

// EncodeViews writes a compiled view set as JSON: AppendViews's compact
// form ended by a newline.
func EncodeViews(w io.Writer, v *frag.Views) error {
	b, err := AppendViews(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// DecodeViews reads a compiled view set from JSON, rebuilding every
// condition through the cond constructors so loaded views satisfy the
// same interning invariants as compiled ones.
func DecodeViews(r io.Reader) (*frag.Views, error) {
	var doc ViewsDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
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

func joinKindName(k cqt.JoinKind) string {
	switch k {
	case cqt.Inner:
		return "inner"
	case cqt.LeftOuter:
		return "left"
	case cqt.FullOuter:
		return "full"
	}
	return "?"
}

func joinKindOf(name string) (cqt.JoinKind, error) {
	switch name {
	case "inner":
		return cqt.Inner, nil
	case "left":
		return cqt.LeftOuter, nil
	case "full":
		return cqt.FullOuter, nil
	}
	return 0, fmt.Errorf("unknown join kind %q", name)
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

func cmpOpName(o cond.Op) string { return o.String() }

func cmpOpOf(name string) (cond.Op, error) {
	switch name {
	case "=":
		return cond.OpEq, nil
	case "<>":
		return cond.OpNe, nil
	case "<":
		return cond.OpLt, nil
	case "<=":
		return cond.OpLe, nil
	case ">":
		return cond.OpGt, nil
	case ">=":
		return cond.OpGe, nil
	}
	return 0, fmt.Errorf("unknown comparison operator %q", name)
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
