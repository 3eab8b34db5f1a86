package core

import (
	"fmt"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
)

// RefactorAssocToInheritance is the refactoring SMO of §3.4: given an
// association A with cardinality 1 — 0..1 between entity types E1 and E2,
// delete A and make E2 a derived type of E1. Whenever an entity e2 was
// associated with e1 in the original schema, the new schema has a single
// entity of type E2 carrying the attribute values of both. The former
// association's foreign-key columns become the inheritance linkage: E2's
// table rows attach to E1's rows through them.
//
// The supported shape (matching how AddAssociationFK lays associations
// out) is: E2 is the root and only type of its own hierarchy, participates
// in no other association, and A is mapped to E2's table with E1's key in
// foreign-key columns. The paper notes this SMO is "a bit more
// complicated" because views above E1 and below E2 change; we require E2
// to be a leaf and regenerate the affected hierarchy's views from the
// adapted fragments.
type RefactorAssocToInheritance struct {
	Assoc string
}

// Describe implements SMO.
func (op *RefactorAssocToInheritance) Describe() string {
	return fmt.Sprintf("RefactorAssocToInheritance(%s)", op.Assoc)
}

func (op *RefactorAssocToInheritance) apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error {
	a := m.Client.Association(op.Assoc)
	if a == nil {
		return fmt.Errorf("unknown association %q", op.Assoc)
	}
	if a.End1.Mult == edm.Many && a.End2.Mult == edm.Many {
		return fmt.Errorf("association %q is many-to-many; refactoring needs 1 — 0..1", op.Assoc)
	}
	// Orient: e2 is the side that holds the association fragment's table
	// key (the "at most one partner" side), e1 becomes the base type.
	g := m.FragForAssoc(op.Assoc)
	if g == nil {
		return fmt.Errorf("association %q is not mapped", op.Assoc)
	}
	if a.End1.Type == a.End2.Type {
		return fmt.Errorf("association %q is self-referential", op.Assoc)
	}
	e2, e1 := a.End1.Type, a.End2.Type
	e1Cols := assocEndsOfType(m, a, e1)[0]

	// --- Preconditions ----------------------------------------------------
	if m.Client.Parent(e2) != "" || len(m.Client.Descendants(e2)) > 0 {
		return fmt.Errorf("type %q must be the only type of its hierarchy", e2)
	}
	set2 := m.Client.SetFor(e2)
	set1 := m.Client.SetFor(e1)
	if set2 == nil || set1 == nil {
		return fmt.Errorf("both endpoints must be persisted")
	}
	for _, other := range m.Client.Associations() {
		if other.Name == op.Assoc {
			continue
		}
		if other.End1.Type == e2 || other.End2.Type == e2 {
			return fmt.Errorf("type %q participates in association %q; drop it first", e2, other.Name)
		}
	}
	frags2 := m.FragsOnSet(set2.Name)
	if len(frags2) != 1 {
		return fmt.Errorf("type %q must be mapped by exactly one fragment", e2)
	}
	f2 := frags2[0]
	if f2.Table != g.Table {
		return fmt.Errorf("association %q must be mapped into %q's table", op.Assoc, e2)
	}
	// Attribute names must stay distinct under the merged hierarchy.
	for _, attr := range m.Client.AttrNames(e2) {
		if m.Client.HasAttr(e1, attr) {
			return fmt.Errorf("attribute %q exists on both %q and %q", attr, e1, e2)
		}
	}

	key1 := m.Client.KeyOf(e1)
	fkCols := make([]string, len(e1Cols))
	for i, c := range e1Cols {
		fkCols[i] = g.ColOf[c]
	}

	// --- Validation: every stored pair must reference an existing E1, so
	// the merged entities' inherited part is recoverable. This is the same
	// foreign-key preservation containment as check 3 of §3.2, issued over
	// the pre-refactoring views.
	ch := ic.checker(m)
	defer ic.absorb(ch)
	tab2 := m.Store.Table(g.Table)
	for _, fk := range tab2.FKs {
		if !overlap(fk.Cols, fkCols) {
			continue
		}
		if err := ic.fkCheck(ch, m, v, g.Table, fk); err != nil {
			return err
		}
	}

	// --- Schema surgery -----------------------------------------------------
	oldKey2 := m.Client.KeyOf(e2)
	oldAttrs2 := m.Client.AttrNames(e2)
	if err := m.Client.RemoveAssociation(op.Assoc); err != nil {
		return err
	}
	if err := m.Client.RerootType(e2, e1); err != nil {
		return err
	}

	// --- Fragment adaptation --------------------------------------------------
	// E2's fragment becomes a TPT-style fragment of E1's set: it maps E1's
	// key (through the former FK columns) plus E2's own attributes
	// (including its former key, now a plain unique attribute).
	ic.adaptFragments(m, set1.Name, e2, e1, nil)
	f2 = m.MutableFrag(f2)
	f2.Set = set1.Name
	f2.ClientCond = cond.TypeIs{Type: e2}
	f2.Attrs = append(append([]string(nil), key1...), oldAttrs2...)
	newColOf := map[string]string{}
	for i, k := range key1 {
		newColOf[k] = fkCols[i]
	}
	for attr, col := range f2.ColOf {
		newColOf[attr] = col
	}
	f2.ColOf = newColOf
	f2.StoreCond = cond.NewAnd(notNullAll(fkCols)...)
	// Remove the association fragment.
	m.RemoveFrag(g)
	if err := m.CheckFragment(f2); err != nil {
		return err
	}
	_ = oldKey2

	// --- Views -----------------------------------------------------------------
	delete(v.Assoc, op.Assoc)
	delete(v.Query, e2)
	comp := compiler.New()
	uv, err := comp.UpdateView(m, g.Table)
	if err != nil {
		return err
	}
	v.SetUpdate(g.Table, uv)
	ic.Stats.BuiltViews++
	ic.markUpdate(g.Table)
	ic.adaptUpdateViews(m, v, g.Table, e2, e1, nil)

	// Regenerate the query views of E2 and of E1's chain up to the root —
	// the neighbourhood whose constructors gain the new derived type.
	affected := append([]string{e2, e1}, m.Client.Ancestors(e1)...)
	for _, ty := range affected {
		qv, err := comp.QueryView(m, set1.Name, ty)
		if err != nil {
			return err
		}
		v.SetQuery(ty, qv)
		ic.Stats.BuiltViews++
		ic.markQuery(ty)
	}
	return nil
}

func notNullAll(cols []string) []cond.Expr {
	out := make([]cond.Expr, len(cols))
	for i, c := range cols {
		out[i] = cond.NotNull(c)
	}
	return out
}
