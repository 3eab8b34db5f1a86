package core

import (
	"fmt"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
)

// Part is one element (αi, ψi, Ti, fi) of an AddEntityPart directive: the
// attributes Alpha of rows satisfying Cond are stored in Table under the
// renaming ColOf.
type Part struct {
	Alpha []string
	// Cond is ψi, a satisfiable conjunction of comparisons over att(E).
	Cond  cond.Expr
	Table string
	ColOf map[string]string
}

// AddEntityPart is the SMO of §3.3: a new entity type whose instances are
// horizontally partitioned across several tables by client-side
// conditions. Validation checks that the (ψi, αi) pairs cover every
// attribute — including attributes recovered as constants from equalities
// ψi entails, such as the gender = 'M'/'F' example — by proving the
// disjunction of the covering conditions a tautology.
type AddEntityPart struct {
	Name      string
	Parent    string
	DeclAttrs []edm.Attribute
	// P is the ancestor covering attributes no part maps; "" means NIL.
	P     string
	Parts []Part
}

// Describe implements SMO.
func (op *AddEntityPart) Describe() string {
	return fmt.Sprintf("AddEntityPart(%s < %s, %d parts)", op.Name, op.Parent, len(op.Parts))
}

func (op *AddEntityPart) apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error {
	if len(op.Parts) == 0 {
		return fmt.Errorf("no parts given")
	}
	if err := m.Client.AddType(edm.EntityType{Name: op.Name, Base: op.Parent, Attrs: op.DeclAttrs}); err != nil {
		return err
	}
	set := m.Client.SetFor(op.Name)
	if set == nil {
		return fmt.Errorf("parent hierarchy of %q has no entity set", op.Parent)
	}
	if op.P != "" && !m.Client.IsSubtype(op.Name, op.P) {
		return fmt.Errorf("P = %q is not an ancestor of %q", op.P, op.Name)
	}

	th := exactTypeTheory{m: m, set: set, ty: op.Name}
	key := m.Client.KeyOf(op.Name)

	// --- Side conditions per part ----------------------------------------
	for i := range op.Parts {
		p := &op.Parts[i]
		if !ic.satisfiable(th, p.Cond) {
			return fmt.Errorf("part %d condition %s is unsatisfiable", i, p.Cond)
		}
		tab := m.Store.Table(p.Table)
		if tab == nil {
			return fmt.Errorf("unknown table %q", p.Table)
		}
		if len(m.FragsOnTable(p.Table)) > 0 {
			return fmt.Errorf("table %q is already mentioned in a mapping fragment", p.Table)
		}
		for j := 0; j < i; j++ {
			if op.Parts[j].Table == p.Table {
				return fmt.Errorf("parts %d and %d share table %q", j, i, p.Table)
			}
		}
		inAlpha := map[string]bool{}
		for _, a := range p.Alpha {
			inAlpha[a] = true
		}
		for _, k := range key {
			if !inAlpha[k] {
				return fmt.Errorf("part %d must map key attribute %q", i, k)
			}
		}
		for ai, k := range key {
			if p.ColOf[k] != tab.Key[ai] {
				return fmt.Errorf("part %d must map the key onto table %q's key", i, p.Table)
			}
		}
		used := map[string]bool{}
		for _, a := range p.Alpha {
			col, ok := p.ColOf[a]
			if !ok {
				return fmt.Errorf("part %d attribute %q has no column mapping", i, a)
			}
			tc, ok := tab.Col(col)
			if !ok {
				return fmt.Errorf("part %d maps %q to unknown column %q", i, a, col)
			}
			if used[col] {
				return fmt.Errorf("part %d maps column %q twice", i, col)
			}
			used[col] = true
			attr, ok := m.Client.Attr(op.Name, a)
			if !ok {
				return fmt.Errorf("part %d maps unknown attribute %q", i, a)
			}
			if attr.Type != tc.Type {
				return fmt.Errorf("part %d: dom(%s) ⊄ dom(%s)", i, a, col)
			}
		}
		for _, tc := range tab.Cols {
			if !tc.Nullable && !used[tc.Name] {
				return fmt.Errorf("part %d leaves non-nullable column %q unmapped", i, tc.Name)
			}
		}
	}

	// --- Coverage tautology (§3.3) ----------------------------------------
	for _, a := range m.Client.AttrNames(op.Name) {
		if op.P != "" && m.Client.HasAttr(op.P, a) {
			continue
		}
		var covering []cond.Expr
		for _, p := range op.Parts {
			inAlpha := false
			for _, x := range p.Alpha {
				if x == a {
					inAlpha = true
				}
			}
			eqs := map[string]cond.Value{}
			collectStoreEqualities(p.Cond, eqs)
			if _, fixed := eqs[a]; inAlpha || fixed {
				covering = append(covering, p.Cond)
			}
		}
		ic.Stats.Implications++
		if !ic.tautology(th, cond.NewOr(covering...)) {
			return fmt.Errorf("validation failed: attribute %q of %q is not covered by the partition conditions", a, op.Name)
		}
	}

	// --- Fragment adaptation and new fragments ----------------------------
	pset := betweenTypes(m, op.Name, op.P)
	ic.adaptFragments(m, set.Name, op.Name, op.P, pset)
	for i, p := range op.Parts {
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         fmt.Sprintf("f_%s_part%d_%s", op.Name, i, p.Table),
			Set:        set.Name,
			ClientCond: cond.NewAnd(cond.TypeIs{Type: op.Name}, p.Cond),
			Attrs:      p.Alpha,
			Table:      p.Table,
			StoreCond:  cond.True{},
			ColOf:      p.ColOf,
		})
	}
	for i := range op.Parts {
		if err := m.CheckFragment(m.Frags[len(m.Frags)-len(op.Parts)+i]); err != nil {
			return err
		}
	}

	// --- Update views -------------------------------------------------------
	for _, p := range op.Parts {
		tab := m.Store.Table(p.Table)
		colFor := map[string]string{}
		for _, a := range p.Alpha {
			colFor[p.ColOf[a]] = a
		}
		cols := make([]cqt.ProjCol, 0, len(tab.Cols))
		for _, tc := range tab.Cols {
			if a, ok := colFor[tc.Name]; ok {
				cols = append(cols, cqt.ColAs(a, tc.Name))
			} else {
				cols = append(cols, cqt.LitAs(cqt.NullOf(tc.Type), tc.Name))
			}
		}
		v.SetUpdate(p.Table, &cqt.View{Q: cqt.Project{
			In: cqt.Select{
				In:   cqt.ScanSet{Set: set.Name},
				Cond: cond.NewAnd(cond.TypeIs{Type: op.Name}, p.Cond),
			},
			Cols: cols,
		}})
		ic.Stats.BuiltViews++
		ic.markUpdate(p.Table)
	}
	// An empty skip table adapts every existing view; the parts' own tables
	// were just created and contain no IS OF atoms, so the rewrite is a
	// no-op on them.
	ic.adaptUpdateViews(m, v, "", op.Name, op.P, pset)

	// --- Validation: association and foreign-key checks --------------------
	ch := ic.checker(m)
	defer ic.absorb(ch)
	for _, p := range op.Parts {
		tab := m.Store.Table(p.Table)
		falpha := make([]string, 0, len(p.Alpha))
		for _, a := range p.Alpha {
			falpha = append(falpha, p.ColOf[a])
		}
		for _, fk := range tab.FKs {
			if !overlap(fk.Cols, falpha) {
				continue
			}
			if err := ic.fkCheck(ch, m, v, p.Table, fk); err != nil {
				return err
			}
		}
	}
	if ic.Opts.WideValidation {
		if err := ic.wideFKRecheck(ch, m, v); err != nil {
			return err
		}
	}

	// --- Query views ----------------------------------------------------------
	comp := compiler.New()
	qE, err := comp.Assembly(m, set.Name, op.Name)
	if err != nil {
		return err
	}
	v.SetQuery(op.Name, &cqt.View{Q: qE, Cases: []cqt.Case{{
		When: cond.True{}, Type: op.Name, Attrs: attrIdentity(m, op.Name),
	}}})
	ic.Stats.BuiltViews++
	ic.markQuery(op.Name)

	flag := typeFlagCol(op.Name)
	cat := m.Catalog()
	qCols, err := cat.Cols(qE)
	if err != nil {
		return err
	}
	aux := make([]cqt.ProjCol, 0, len(qCols)+1)
	for _, c := range qCols {
		aux = append(aux, cqt.Col(c))
	}
	aux = append(aux, cqt.LitAs(cqt.Const(cond.Bool(true)), flag))
	qAux := cqt.Project{In: qE, Cols: aux}

	return ic.evolveAncestorViews(m, v, set.Name, op.Name, op.P, pset, qAux, flag)
}

// exactTypeTheory restricts an entity set's theory to instances of exactly
// one type (used for the §3.3 satisfiability and tautology checks).
type exactTypeTheory struct {
	m   *frag.Mapping
	set *edm.EntitySet
	ty  string
}

func (t exactTypeTheory) ConcreteTypes(subject string) []string {
	if subject != "" {
		return nil
	}
	return []string{t.ty}
}
func (t exactTypeTheory) IsSubtype(sub, typ string) bool { return t.m.Client.IsSubtype(sub, typ) }
func (t exactTypeTheory) Domain(attr string) (cond.Domain, bool) {
	if a, ok := t.m.Client.Attr(t.ty, attr); ok {
		return a.Domain(), true
	}
	return cond.Domain{}, false
}
func (t exactTypeTheory) Nullable(attr string) bool {
	if a, ok := t.m.Client.Attr(t.ty, attr); ok {
		return a.Nullable
	}
	return true
}
func (t exactTypeTheory) HasAttr(ct, attr string) bool { return t.m.Client.HasAttr(ct, attr) }
