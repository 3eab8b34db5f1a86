package workload

import (
	"fmt"
	"slices"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// CustomerOptions scales the synthetic stand-in for the paper's real
// customer model (§4.2). The defaults reproduce the published statistics:
// 230 entity types over 18 non-trivial hierarchies, the deepest with four
// levels and the largest with 95 types, mapped with a mix of TPT and TPH,
// and associations mapped to non-junction tables.
type CustomerOptions struct {
	Types          int // total entity types (default 230)
	Hierarchies    int // hierarchy count (default 18)
	LargestTPH     int // size of the largest (TPH) hierarchy (default 95)
	Associations   int // association count mapped to entity tables (default 24)
	SharedTableFKs int // associations mapped into the TPH hierarchy's table (default 3)
}

// DefaultCustomerOptions returns the published statistics of the paper's
// customer model.
func DefaultCustomerOptions() CustomerOptions {
	return CustomerOptions{
		Types:          230,
		Hierarchies:    18,
		LargestTPH:     95,
		Associations:   24,
		SharedTableFKs: 3,
	}
}

// buildCustomer builds the synthetic customer model. Hierarchy 0 is the
// largest one, mapped TPH into a single wide table; hierarchy 1 is the
// deepest, mapped TPT; the remaining types are distributed over the other
// hierarchies, alternating TPT and TPH. A deterministic scheme (no
// randomness) places associations between hierarchy roots. Parameter
// checking and panic recovery live in the Customer/CustomerE wrappers
// (builders.go).
func buildCustomer(opt CustomerOptions) *frag.Mapping {
	c := edm.NewSchema()
	s := rel.NewSchema()
	m := &frag.Mapping{Client: c, Store: s}

	// Partition types over hierarchies.
	sizes := make([]int, opt.Hierarchies)
	sizes[0] = opt.LargestTPH
	rest := opt.Types - opt.LargestTPH
	for i := 1; i < opt.Hierarchies; i++ {
		share := rest / (opt.Hierarchies - 1)
		if i <= rest%(opt.Hierarchies-1) {
			share++
		}
		if share < 1 {
			share = 1
		}
		sizes[i] = share
	}

	for h := 0; h < opt.Hierarchies; h++ {
		tph := h == 0 || (h >= 2 && h%2 == 0)
		buildCustomerHierarchy(m, h, sizes[h], tph)
	}

	// Associations between hierarchy roots, mapped to FK columns of the
	// first endpoint's root table ("non-junction tables" per the paper).
	// The first SharedTableFKs of them land in the TPH hierarchy's shared
	// table, which is what makes its update view join-heavy.
	for a := 0; a < opt.Associations; a++ {
		h1 := a % opt.Hierarchies
		h2 := (a + 1 + a/opt.Hierarchies) % opt.Hierarchies
		if h2 == h1 {
			h2 = (h2 + 1) % opt.Hierarchies
		}
		if a < opt.SharedTableFKs {
			h1 = 0
		}
		addCustomerAssociation(m, a, h1, h2)
	}

	must(c.Validate())
	must(s.Validate())
	must(m.CheckWellFormed())
	return m
}

func custType(h, i int) string { return fmt.Sprintf("H%dT%d", h, i) }
func custRootTable(h int) string {
	return fmt.Sprintf("TabH%d", h)
}
func custSet(h int) string { return fmt.Sprintf("SetH%d", h) }

// buildCustomerHierarchy creates one hierarchy of n types. TPH hierarchies
// go into one wide shared table; TPT hierarchies get one table per type.
// The shape is a shallow 5-ary tree, matching the paper's published depth
// of at most four levels.
func buildCustomerHierarchy(m *frag.Mapping, h, n int, tph bool) {
	c := m.Client
	// Root.
	must(c.AddType(edm.EntityType{
		Name: custType(h, 0),
		Attrs: []edm.Attribute{
			{Name: "Id", Type: cond.KindInt},
			{Name: fmt.Sprintf("A%d_0", h), Type: cond.KindString, Nullable: true},
		},
		Key: []string{"Id"},
	}))
	for i := 1; i < n; i++ {
		// A 5-ary tree keeps the 95-type hierarchy within the paper's
		// published four levels.
		parentIdx := (i - 1) / 5
		must(c.AddType(edm.EntityType{
			Name: custType(h, i),
			Base: custType(h, parentIdx),
			Attrs: []edm.Attribute{
				{Name: fmt.Sprintf("A%d_%d", h, i), Type: cond.KindString, Nullable: true},
			},
		}))
	}
	must(c.AddSet(edm.EntitySet{Name: custSet(h), Type: custType(h, 0)}))

	if tph {
		buildCustomerTPH(m, h, n)
	} else {
		buildCustomerTPT(m, h, n)
	}
}

func buildCustomerTPH(m *frag.Mapping, h, n int) {
	var enum []cond.Value
	cols := []rel.Column{{Name: "Id", Type: cond.KindInt}}
	for i := 0; i < n; i++ {
		enum = append(enum, cond.String(custType(h, i)))
		cols = append(cols, rel.Column{Name: fmt.Sprintf("A%d_%d", h, i), Type: cond.KindString, Nullable: true})
	}
	cols = append(cols, rel.Column{Name: "Disc", Type: cond.KindString, Enum: enum})
	must(m.Store.AddTable(rel.Table{Name: custRootTable(h), Cols: cols, Key: []string{"Id"}}))
	for i := 0; i < n; i++ {
		ty := custType(h, i)
		// The fragment owns its attribute list; AttrNames serves a slice
		// shared with the schema.
		attrs := slices.Clone(m.Client.AttrNames(ty))
		colOf := map[string]string{}
		for _, a := range attrs {
			colOf[a] = a
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         "f_" + ty,
			Set:        custSet(h),
			ClientCond: exactCond(m.Client, ty),
			Attrs:      attrs,
			Table:      custRootTable(h),
			StoreCond:  cond.Cmp{Attr: "Disc", Op: cond.OpEq, Val: cond.String(ty)},
			ColOf:      colOf,
		})
	}
}

func buildCustomerTPT(m *frag.Mapping, h, n int) {
	for i := 0; i < n; i++ {
		ty := custType(h, i)
		tblName := custRootTable(h)
		if i > 0 {
			tblName = fmt.Sprintf("TabH%dT%d", h, i)
		}
		cols := []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: fmt.Sprintf("A%d_%d", h, i), Type: cond.KindString, Nullable: true},
		}
		t := rel.Table{Name: tblName, Cols: cols, Key: []string{"Id"}}
		if i > 0 {
			parent := m.Client.Parent(ty)
			parentTable := custRootTable(h)
			if parent != custType(h, 0) {
				// Parent's own table.
				var pIdx int
				fmt.Sscanf(parent, fmt.Sprintf("H%dT%%d", h), &pIdx)
				parentTable = fmt.Sprintf("TabH%dT%d", h, pIdx)
			}
			t.FKs = []rel.ForeignKey{{
				Name: "fk_" + tblName, Cols: []string{"Id"},
				RefTable: parentTable, RefCols: []string{"Id"},
			}}
		}
		must(m.Store.AddTable(t))
		var clientCond cond.Expr = cond.TypeIs{Type: ty}
		attrs := []string{"Id", fmt.Sprintf("A%d_%d", h, i)}
		colOf := map[string]string{"Id": "Id", attrs[1]: attrs[1]}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         "f_" + ty,
			Set:        custSet(h),
			ClientCond: clientCond,
			Attrs:      attrs,
			Table:      tblName,
			StoreCond:  cond.True{},
			ColOf:      colOf,
		})
	}
}

// addCustomerAssociation maps association a between the roots of h1 and h2
// to a fresh FK column added to h1's root table.
func addCustomerAssociation(m *frag.Mapping, a, h1, h2 int) {
	name := fmt.Sprintf("Assoc%d", a)
	e1, e2 := custType(h1, 0), custType(h2, 0)
	must(m.Client.AddAssociation(edm.Association{
		Name: name,
		End1: edm.End{Type: e1, Mult: edm.Many},
		End2: edm.End{Type: e2, Mult: edm.ZeroOne},
	}))
	tab := m.Store.MutableTable(custRootTable(h1))
	fkCol := fmt.Sprintf("FKA%d", a)
	tab.Cols = append(tab.Cols, rel.Column{Name: fkCol, Type: cond.KindInt, Nullable: true})
	must(m.Store.AddForeignKey(tab.Name, rel.ForeignKey{
		Name: "fk_" + name, Cols: []string{fkCol},
		RefTable: custRootTable(h2), RefCols: []string{"Id"},
	}))
	b1, b2 := e1, e2
	if b1 == b2 {
		b1 += "1"
		b2 += "2"
	}
	c1, c2 := b1+"_Id", b2+"_Id"
	m.Frags = append(m.Frags, &frag.Fragment{
		ID:         "f_" + name,
		Assoc:      name,
		ClientCond: cond.True{},
		Attrs:      []string{c1, c2},
		Table:      tab.Name,
		StoreCond:  cond.NotNull(fkCol),
		ColOf:      map[string]string{c1: "Id", c2: fkCol},
	})
}
