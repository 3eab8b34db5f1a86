package core

import (
	"fmt"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
)

// AddAssociationFK creates an association between two existing entity
// types, mapped to key/foreign-key columns of a table that already stores
// one endpoint — the SMO AddAssocFK(A, E1, E2, mult, T, f) of §3.2 of the
// paper. The E2 endpoint's multiplicity must not be * (many).
type AddAssociationFK struct {
	// Name is the association (and association-set) name.
	Name string
	// E1 and E2 are the endpoint types with their multiplicities.
	E1, E2       string
	Mult1, Mult2 edm.Mult
	// Table is T, a table already mentioned in mapping fragments.
	Table string
	// KeyCols1 are the columns of Table storing E1's key (they must be
	// Table's primary key); KeyCols2 store E2's key (the FK columns).
	KeyCols1, KeyCols2 []string
}

// Describe implements SMO.
func (op *AddAssociationFK) Describe() string {
	return fmt.Sprintf("AddAssociationFK(%s: %s—%s → %s)", op.Name, op.E1, op.E2, op.Table)
}

func (op *AddAssociationFK) apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error {
	if op.Mult2 == edm.Many {
		return fmt.Errorf("the E2 endpoint of AddAssocFK must not be *; use AddAssociationJT")
	}
	if err := m.Client.AddAssociation(edm.Association{
		Name: op.Name,
		End1: edm.End{Type: op.E1, Mult: op.Mult1},
		End2: edm.End{Type: op.E2, Mult: op.Mult2},
	}); err != nil {
		return err
	}
	assoc := m.Client.Association(op.Name)
	tab := m.Store.Table(op.Table)
	if tab == nil {
		return fmt.Errorf("unknown table %q", op.Table)
	}
	oldView := v.Update[op.Table]
	if oldView == nil || len(m.FragsOnTable(op.Table)) == 0 {
		return fmt.Errorf("table %q is not previously mentioned in mapping fragments", op.Table)
	}
	e1cols, e2cols := cqt.AssocEndCols(m.Client, assoc)
	if len(op.KeyCols1) != len(e1cols) || len(op.KeyCols2) != len(e2cols) {
		return fmt.Errorf("key column arity mismatch")
	}
	for i, c := range op.KeyCols1 {
		if i >= len(tab.Key) || tab.Key[i] != c {
			return fmt.Errorf("f(PK1) must be the primary key of %q", op.Table)
		}
	}

	// --- Validation (§3.2, checks 1-3) over the PREVIOUS update views ----
	ch := ic.checker(m)
	defer ic.absorb(ch)

	// Check 1: f(PK2) columns have not previously been used.
	for _, f := range m.Frags {
		for _, c := range op.KeyCols2 {
			if f.MapsCol(c) && f.Table == op.Table {
				return fmt.Errorf("validation failed: column %s.%s is already mapped by fragment %s (check 1)", op.Table, c, f.ID)
			}
		}
	}

	// Check 2: E1 entities can be stored entirely in T's key.
	set1 := m.Client.SetFor(op.E1)
	key1 := m.Client.KeyOf(op.E1)
	lcols := make([]cqt.ProjCol, len(key1))
	rcols := make([]cqt.ProjCol, len(key1))
	for i, k := range key1 {
		lcols[i] = cqt.Col(k)
		rcols[i] = cqt.ColAs(op.KeyCols1[i], k)
	}
	lhs := cqt.Project{In: cqt.Select{In: cqt.ScanSet{Set: set1.Name}, Cond: cond.TypeIs{Type: op.E1}}, Cols: lcols}
	rhs := cqt.Project{In: oldView.Q, Cols: rcols}
	if err := ic.checkContainment(ch, lhs, ch.PrenormalizeRight(rhs),
		fmt.Sprintf("endpoint %s cannot be mapped to the key of %s (check 2)", op.E1, op.Table)); err != nil {
		return err
	}

	// Check 3: a foreign key on f(PK2) must accept all E2 keys.
	set2 := m.Client.SetFor(op.E2)
	key2 := m.Client.KeyOf(op.E2)
	for _, fk := range tab.FKs {
		if !overlap(fk.Cols, op.KeyCols2) {
			continue
		}
		if v.Update[fk.RefTable] == nil {
			return fmt.Errorf("validation failed: foreign key %s references unmapped table %s (check 3)", fk.Name, fk.RefTable)
		}
		l2 := make([]cqt.ProjCol, len(key2))
		for i, k := range key2 {
			// Align E2's key attribute with the referenced key column the
			// FK maps the corresponding f(PK2) column to.
			gamma := refColFor(fk.Cols, fk.RefCols, op.KeyCols2[i])
			if gamma == "" {
				return fmt.Errorf("validation failed: foreign key %s does not cover column %s (check 3)", fk.Name, op.KeyCols2[i])
			}
			l2[i] = cqt.ColAs(k, gamma)
		}
		lhs2 := cqt.Project{In: cqt.Select{In: cqt.ScanSet{Set: set2.Name}, Cond: cond.TypeIs{Type: op.E2}}, Cols: l2}
		if err := ic.containsInView(ch, v, lhs2, fk.RefTable, fk.RefCols,
			fmt.Sprintf("foreign key %s would be violated by association %s (check 3)", fk.Name, op.Name)); err != nil {
			return err
		}
	}
	if ic.Opts.WideValidation {
		if err := ic.wideFKRecheck(ch, m, v); err != nil {
			return err
		}
	}

	// --- Fragment ϕA ------------------------------------------------------
	colOf := map[string]string{}
	var notNull []cond.Expr
	for i, c := range e1cols {
		colOf[c] = op.KeyCols1[i]
	}
	for i, c := range e2cols {
		colOf[c] = op.KeyCols2[i]
		notNull = append(notNull, cond.NotNull(op.KeyCols2[i]))
	}
	m.Frags = append(m.Frags, &frag.Fragment{
		ID:         "f_" + op.Name + "_" + op.Table,
		Assoc:      op.Name,
		ClientCond: cond.True{},
		Attrs:      append(append([]string(nil), e1cols...), e2cols...),
		Table:      op.Table,
		StoreCond:  cond.NewAnd(notNull...),
		ColOf:      colOf,
	})
	if err := m.CheckFragment(m.Frags[len(m.Frags)-1]); err != nil {
		return err
	}

	// --- Query view Q_A (§3.2.1) -------------------------------------------
	qaCols := make([]cqt.ProjCol, 0, len(colOf))
	for i, c := range e1cols {
		qaCols = append(qaCols, cqt.ColAs(op.KeyCols1[i], c))
	}
	for i, c := range e2cols {
		qaCols = append(qaCols, cqt.ColAs(op.KeyCols2[i], c))
	}
	v.SetAssoc(op.Name, &cqt.View{Q: cqt.Project{
		In:   cqt.Select{In: cqt.ScanTable{Table: op.Table}, Cond: cond.NewAnd(notNull...)},
		Cols: qaCols,
	}})
	ic.Stats.BuiltViews++

	// --- Update view Q_T (§3.2.1) -------------------------------------------
	base, err := projectAway(m.Catalog(), oldView.Q, op.KeyCols2)
	if err != nil {
		return err
	}
	part := make([]cqt.ProjCol, 0, len(colOf))
	for i, c := range e1cols {
		part = append(part, cqt.ColAs(c, op.KeyCols1[i]))
	}
	for i, c := range e2cols {
		part = append(part, cqt.ColAs(c, op.KeyCols2[i]))
	}
	on := make([][2]string, len(op.KeyCols1))
	for i, c := range op.KeyCols1 {
		on[i] = [2]string{c, c}
	}
	v.SetUpdate(op.Table, &cqt.View{Q: cqt.Join{
		Kind: cqt.LeftOuter,
		L:    base,
		R:    cqt.Project{In: cqt.ScanAssoc{Assoc: op.Name}, Cols: part},
		On:   on,
	}})
	ic.Stats.AdaptedViews++
	ic.markUpdate(op.Table)
	return nil
}

func refColFor(cols, refCols []string, c string) string {
	for i, x := range cols {
		if x == c {
			return refCols[i]
		}
	}
	return ""
}

// AddAssociationJT creates an association mapped to its own join table —
// the variant of §3.4 that also covers many-to-many associations.
type AddAssociationJT struct {
	Name         string
	E1, E2       string
	Mult1, Mult2 edm.Mult
	// Table is a fresh table; KeyCols1/KeyCols2 are its columns storing the
	// two endpoint keys. Together they must cover the table's primary key.
	Table              string
	KeyCols1, KeyCols2 []string
}

// Describe implements SMO.
func (op *AddAssociationJT) Describe() string {
	return fmt.Sprintf("AddAssociationJT(%s: %s—%s → %s)", op.Name, op.E1, op.E2, op.Table)
}

func (op *AddAssociationJT) apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error {
	if err := m.Client.AddAssociation(edm.Association{
		Name: op.Name,
		End1: edm.End{Type: op.E1, Mult: op.Mult1},
		End2: edm.End{Type: op.E2, Mult: op.Mult2},
	}); err != nil {
		return err
	}
	assoc := m.Client.Association(op.Name)
	tab := m.Store.Table(op.Table)
	if tab == nil {
		return fmt.Errorf("unknown table %q", op.Table)
	}
	if len(m.FragsOnTable(op.Table)) > 0 {
		return fmt.Errorf("join table %q is already mentioned in a mapping fragment", op.Table)
	}
	e1cols, e2cols := cqt.AssocEndCols(m.Client, assoc)
	if len(op.KeyCols1) != len(e1cols) || len(op.KeyCols2) != len(e2cols) {
		return fmt.Errorf("key column arity mismatch")
	}
	mapped := map[string]bool{}
	colOf := map[string]string{}
	for i, c := range e1cols {
		colOf[c] = op.KeyCols1[i]
		mapped[op.KeyCols1[i]] = true
	}
	for i, c := range e2cols {
		colOf[c] = op.KeyCols2[i]
		mapped[op.KeyCols2[i]] = true
	}
	for _, k := range tab.Key {
		if !mapped[k] {
			return fmt.Errorf("join-table key column %q is not covered by the association", k)
		}
	}
	for _, tc := range tab.Cols {
		if !mapped[tc.Name] && !tc.Nullable {
			return fmt.Errorf("unmapped join-table column %q must be nullable", tc.Name)
		}
	}

	// --- Validation: the join table's foreign keys must accept all keys ----
	ch := ic.checker(m)
	defer ic.absorb(ch)
	endFor := func(col string) (string, string, []string, []string) {
		for i, c := range op.KeyCols1 {
			if c == col {
				return op.E1, m.Client.KeyOf(op.E1)[i], op.KeyCols1, m.Client.KeyOf(op.E1)
			}
		}
		for i, c := range op.KeyCols2 {
			if c == col {
				return op.E2, m.Client.KeyOf(op.E2)[i], op.KeyCols2, m.Client.KeyOf(op.E2)
			}
		}
		return "", "", nil, nil
	}
	for _, fk := range tab.FKs {
		endType, _, endCols, endKey := endFor(fk.Cols[0])
		if endType == "" {
			continue
		}
		if v.Update[fk.RefTable] == nil {
			return fmt.Errorf("validation failed: foreign key %s references unmapped table %s", fk.Name, fk.RefTable)
		}
		set := m.Client.SetFor(endType)
		l := make([]cqt.ProjCol, len(fk.Cols))
		for i, c := range fk.Cols {
			// Which end key attribute does this FK column store?
			attr := ""
			for j, ec := range endCols {
				if ec == c {
					attr = endKey[j]
				}
			}
			if attr == "" {
				return fmt.Errorf("validation failed: foreign key %s mixes association ends", fk.Name)
			}
			l[i] = cqt.ColAs(attr, fk.RefCols[i])
		}
		lhs := cqt.Project{In: cqt.Select{In: cqt.ScanSet{Set: set.Name}, Cond: cond.TypeIs{Type: endType}}, Cols: l}
		if err := ic.containsInView(ch, v, lhs, fk.RefTable, fk.RefCols,
			fmt.Sprintf("join-table foreign key %s would be violated by association %s", fk.Name, op.Name)); err != nil {
			return err
		}
	}
	if ic.Opts.WideValidation {
		if err := ic.wideFKRecheck(ch, m, v); err != nil {
			return err
		}
	}

	// --- Fragment, query view, update view ---------------------------------
	attrs := append(append([]string(nil), e1cols...), e2cols...)
	m.Frags = append(m.Frags, &frag.Fragment{
		ID:         "f_" + op.Name + "_" + op.Table,
		Assoc:      op.Name,
		ClientCond: cond.True{},
		Attrs:      attrs,
		Table:      op.Table,
		StoreCond:  cond.True{},
		ColOf:      colOf,
	})
	if err := m.CheckFragment(m.Frags[len(m.Frags)-1]); err != nil {
		return err
	}

	qaCols := make([]cqt.ProjCol, 0, len(attrs))
	utCols := make([]cqt.ProjCol, 0, len(tab.Cols))
	for _, a := range attrs {
		qaCols = append(qaCols, cqt.ColAs(colOf[a], a))
	}
	for _, tc := range tab.Cols {
		found := ""
		for _, a := range attrs {
			if colOf[a] == tc.Name {
				found = a
			}
		}
		if found != "" {
			utCols = append(utCols, cqt.ColAs(found, tc.Name))
		} else {
			utCols = append(utCols, cqt.LitAs(cqt.NullOf(tc.Type), tc.Name))
		}
	}
	v.SetAssoc(op.Name, &cqt.View{Q: cqt.Project{In: cqt.ScanTable{Table: op.Table}, Cols: qaCols}})
	v.SetUpdate(op.Table, &cqt.View{Q: cqt.Project{In: cqt.ScanAssoc{Assoc: op.Name}, Cols: utCols}})
	ic.Stats.BuiltViews += 2
	ic.markUpdate(op.Table)
	return nil
}
