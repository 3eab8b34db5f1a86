package modelio

// The doc-tree encoders: the mapping and the views converted to their
// document forms and handed to encoding/json. They were the production
// encoders before AppendMapping and AppendViews and are kept here as the
// byte-identity oracle those must match. ToDocument and ViewsToDoc are
// exported for the external oracle tests in package modelio_test.

import (
	"encoding/json"
	"fmt"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
)

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
