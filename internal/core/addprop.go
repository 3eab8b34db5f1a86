package core

import (
	"fmt"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
)

// AddProperty adds an attribute to an existing entity type (§3.4). The new
// property is mapped either into a table that already stores the type's
// attributes (extending that fragment) or into a fresh table (adding a new
// TPT-style fragment). Query views of the type, its ancestors and its
// descendants are evolved so the new attribute becomes visible everywhere
// entities of the type can be constructed.
type AddProperty struct {
	// Type is E, the entity type gaining the property.
	Type string
	// Attr is the new attribute.
	Attr edm.Attribute
	// Table and Col say where the property is stored.
	Table string
	Col   string
}

// Describe implements SMO.
func (op *AddProperty) Describe() string {
	return fmt.Sprintf("AddProperty(%s.%s → %s.%s)", op.Type, op.Attr.Name, op.Table, op.Col)
}

func (op *AddProperty) apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error {
	if err := m.Client.AddAttr(op.Type, op.Attr); err != nil {
		return err
	}
	set := m.Client.SetFor(op.Type)
	if set == nil {
		return fmt.Errorf("type %q has no entity set", op.Type)
	}
	tab := m.Store.Table(op.Table)
	if tab == nil {
		return fmt.Errorf("unknown table %q", op.Table)
	}
	tc, ok := tab.Col(op.Col)
	if !ok {
		return fmt.Errorf("unknown column %s.%s", op.Table, op.Col)
	}
	if tc.Type != op.Attr.Type {
		return fmt.Errorf("dom(%s) ⊄ dom(%s)", op.Attr.Name, op.Col)
	}
	for _, f := range m.Frags {
		if f.Table == op.Table && f.MapsCol(op.Col) {
			return fmt.Errorf("column %s.%s is already mapped by fragment %s", op.Table, op.Col, f.ID)
		}
	}
	key := m.Client.KeyOf(op.Type)
	th := m.Client.TheoryFor(set.Name)

	// Find a fragment of this set on the table that covers all entities of
	// the type; extending it stores the property alongside the existing
	// attributes.
	var host *frag.Fragment
	for _, f := range m.FragsOnTable(op.Table) {
		if f.Set != set.Name {
			continue
		}
		ic.Stats.Implications++
		if ic.implies(th, cond.TypeIs{Type: op.Type}, f.ClientCond) {
			host = f
			break
		}
	}

	var sourceCond cond.Expr = cond.True{}
	var keyColOf map[string]string
	if host != nil {
		if !tc.Nullable && !hostExactlyCovers(th, host, op.Type, m, op.Table, ic) {
			return fmt.Errorf("column %s.%s must be nullable: table rows exist that are not %s entities", op.Table, op.Col, op.Type)
		}
		host = m.MutableFrag(host)
		host.Attrs = append(host.Attrs, op.Attr.Name)
		host.ColOf[op.Attr.Name] = op.Col
		sourceCond = host.StoreCond
		keyColOf = map[string]string{}
		for i, k := range key {
			kc, found := keyColOfFragment(host, k)
			if !found {
				return fmt.Errorf("fragment %s does not map the key attribute %q", host.ID, k)
			}
			keyColOf[k] = kc
			_ = i
		}
	} else {
		// Fresh table: the property gets its own TPT-style fragment.
		if len(m.FragsOnTable(op.Table)) > 0 {
			return fmt.Errorf("table %q stores other data; the property needs a table holding %s attributes or a fresh table", op.Table, op.Type)
		}
		keyColOf = map[string]string{}
		colOf := map[string]string{op.Attr.Name: op.Col}
		attrs := append(append([]string(nil), key...), op.Attr.Name)
		if len(tab.Key) != len(key) {
			return fmt.Errorf("table %q key arity does not match type %q", op.Table, op.Type)
		}
		for i, k := range key {
			colOf[k] = tab.Key[i]
			keyColOf[k] = tab.Key[i]
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         fmt.Sprintf("f_%s_%s_%s", op.Type, op.Attr.Name, op.Table),
			Set:        set.Name,
			ClientCond: cond.TypeIs{Type: op.Type},
			Attrs:      attrs,
			Table:      op.Table,
			StoreCond:  cond.True{},
			ColOf:      colOf,
		})
	}
	changed := host
	if changed == nil {
		changed = m.Frags[len(m.Frags)-1]
	}
	if err := m.CheckFragment(changed); err != nil {
		return err
	}

	// --- Update view of the affected table: regenerate from the adapted
	// fragments (only this table — the incremental scope; views of other
	// tables carry explicit projections, so the new attribute cannot leak
	// into them).
	comp := compiler.New()
	uv, err := comp.UpdateView(m, op.Table)
	if err != nil {
		return err
	}
	v.SetUpdate(op.Table, uv)
	ic.Stats.BuiltViews++
	ic.markUpdate(op.Table)

	// --- Validation: a fresh table's foreign keys must be preserved.
	ch := ic.checker(m)
	defer ic.absorb(ch)
	if host == nil {
		for _, fk := range tab.FKs {
			written := overlap(fk.Cols, []string{op.Col}) || overlap(fk.Cols, tab.Key)
			if !written {
				continue
			}
			if err := ic.fkCheck(ch, m, v, op.Table, fk); err != nil {
				return err
			}
		}
	}
	if ic.Opts.WideValidation {
		if err := ic.wideFKRecheck(ch, m, v); err != nil {
			return err
		}
	}

	// --- Query views: extend every view that can construct E or a
	// descendant with a left outer join supplying the new column.
	source := cqt.Project{
		In: cqt.Select{In: cqt.ScanTable{Table: op.Table}, Cond: sourceCond},
		Cols: func() []cqt.ProjCol {
			cols := make([]cqt.ProjCol, 0, len(key)+1)
			for _, k := range key {
				cols = append(cols, cqt.ColAs(keyColOf[k], k))
			}
			return append(cols, cqt.ColAs(op.Col, op.Attr.Name))
		}(),
	}
	keyOn := make([][2]string, 0, len(key))
	for _, k := range key {
		keyOn = append(keyOn, [2]string{k, k})
	}
	affected := map[string]bool{op.Type: true}
	for _, a := range m.Client.Ancestors(op.Type) {
		affected[a] = true
	}
	for _, d := range m.Client.Descendants(op.Type) {
		affected[d] = true
	}
	for ty := range affected {
		qv := v.MutableQuery(ty)
		if qv == nil {
			continue
		}
		qv.Q = cqt.Join{Kind: cqt.LeftOuter, L: qv.Q, R: source, On: keyOn}
		ic.markQuery(ty)
		for i := range qv.Cases {
			if m.Client.IsSubtype(qv.Cases[i].Type, op.Type) {
				qv.Cases[i].Attrs[op.Attr.Name] = op.Attr.Name
			}
		}
		ic.Stats.AdaptedViews++
	}
	return nil
}

func keyColOfFragment(f *frag.Fragment, keyAttr string) (string, bool) {
	c, ok := f.ColOf[keyAttr]
	return c, ok
}

// hostExactlyCovers reports whether the host fragment's table rows all
// correspond to entities of the property's type, so a non-nullable column
// is safe.
func hostExactlyCovers(th cond.Theory, host *frag.Fragment, ty string, m *frag.Mapping, table string, ic *Incremental) bool {
	if len(m.FragsOnTable(table)) > 1 {
		return false
	}
	ic.Stats.Implications++
	return ic.implies(th, host.ClientCond, cond.TypeIs{Type: ty})
}
