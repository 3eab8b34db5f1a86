package workload

import (
	"fmt"
	"slices"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// HubRimOptions parametrizes the Figure 3 "hub and rim" model: N entity
// types in an inheritance chain (the hub), each with foreign keys to M
// distinct rim entity types, with the whole hierarchy of N + N·M types
// mapped into one table with a discriminator (TPH) or into one table per
// type (TPT).
type HubRimOptions struct {
	N   int  // depth of the hub chain
	M   int  // rim fan-out per hub level
	TPH bool // map everything into one table; otherwise TPT
}

// buildHubRim builds the hub-and-rim mapping. Hub type i is Hub_i deriving
// from Hub_{i-1}; every hub level has M rim leaf types Rim_i_j derived from
// the hub root (so all N + N·M types share one entity set, as in the
// paper), and an association from hub level i to each of its rim types,
// mapped to foreign-key columns of the shared (TPH) or per-type (TPT)
// tables. Parameter checking and panic recovery live in the HubRim/HubRimE
// wrappers (builders.go).
func buildHubRim(opt HubRimOptions) *frag.Mapping {
	c := edm.NewSchema()
	s := rel.NewSchema()

	hubName := func(i int) string { return fmt.Sprintf("Hub%d", i) }
	rimName := func(i, j int) string { return fmt.Sprintf("Rim%d_%d", i, j) }

	// Client types: the hub chain plus rim leaves under the root.
	for i := 0; i < opt.N; i++ {
		base := ""
		if i > 0 {
			base = hubName(i - 1)
		}
		t := edm.EntityType{Name: hubName(i), Base: base,
			Attrs: []edm.Attribute{{Name: fmt.Sprintf("H%d", i), Type: cond.KindString, Nullable: true}}}
		if i == 0 {
			t.Attrs = append([]edm.Attribute{{Name: "Id", Type: cond.KindInt}}, t.Attrs...)
			t.Key = []string{"Id"}
		}
		must(c.AddType(t))
	}
	for i := 0; i < opt.N; i++ {
		for j := 0; j < opt.M; j++ {
			must(c.AddType(edm.EntityType{
				Name: rimName(i, j), Base: hubName(0),
				Attrs: []edm.Attribute{{Name: fmt.Sprintf("R%d_%d", i, j), Type: cond.KindString, Nullable: true}},
			}))
		}
	}
	must(c.AddSet(edm.EntitySet{Name: "Hubs", Type: hubName(0)}))

	m := &frag.Mapping{Client: c, Store: s}
	if opt.TPH {
		buildHubRimTPH(m, opt, hubName, rimName)
	} else {
		buildHubRimTPT(m, opt, hubName, rimName)
	}

	// Associations: hub level i connects to each of its rim types, mapped
	// to FK columns of the table holding the rim type (TPH: the shared
	// table; TPT: the rim type's own table).
	for i := 0; i < opt.N; i++ {
		for j := 0; j < opt.M; j++ {
			aName := fmt.Sprintf("A%d_%d", i, j)
			must(c.AddAssociation(edm.Association{
				Name: aName,
				End1: edm.End{Type: rimName(i, j), Mult: edm.Many},
				End2: edm.End{Type: hubName(i), Mult: edm.ZeroOne},
			}))
			table := fmt.Sprintf("T_%s", rimName(i, j))
			fkCol := fmt.Sprintf("FK%d_%d", i, j)
			if opt.TPH {
				table = "AllTypes"
			}
			e1, e2 := assocCols(c, aName)
			colOf := map[string]string{e1[0]: "Id", e2[0]: fkCol}
			m.Frags = append(m.Frags, &frag.Fragment{
				ID:         "f_" + aName,
				Assoc:      aName,
				ClientCond: cond.True{},
				Attrs:      []string{e1[0], e2[0]},
				Table:      table,
				StoreCond:  cond.NotNull(fkCol),
				ColOf:      colOf,
			})
		}
	}
	must(c.Validate())
	must(s.Validate())
	must(m.CheckWellFormed())
	return m
}

func assocCols(c *edm.Schema, name string) ([]string, []string) {
	a := c.Association(name)
	b1, b2 := a.End1.Type, a.End2.Type
	if b1 == b2 {
		b1 += "1"
		b2 += "2"
	}
	return []string{b1 + "_Id"}, []string{b2 + "_Id"}
}

func buildHubRimTPH(m *frag.Mapping, opt HubRimOptions, hubName func(int) string, rimName func(int, int) string) {
	// One wide table with a discriminator and every attribute and FK
	// column of every type.
	var discEnum []cond.Value
	cols := []rel.Column{
		{Name: "Id", Type: cond.KindInt},
	}
	for i := 0; i < opt.N; i++ {
		discEnum = append(discEnum, cond.String(hubName(i)))
		cols = append(cols, rel.Column{Name: fmt.Sprintf("H%d", i), Type: cond.KindString, Nullable: true})
		for j := 0; j < opt.M; j++ {
			discEnum = append(discEnum, cond.String(rimName(i, j)))
			cols = append(cols,
				rel.Column{Name: fmt.Sprintf("R%d_%d", i, j), Type: cond.KindString, Nullable: true},
				rel.Column{Name: fmt.Sprintf("FK%d_%d", i, j), Type: cond.KindInt, Nullable: true},
			)
		}
	}
	cols = append(cols, rel.Column{Name: "Disc", Type: cond.KindString, Enum: discEnum})
	must(m.Store.AddTable(rel.Table{Name: "AllTypes", Cols: cols, Key: []string{"Id"}}))

	addFrag := func(ty string, attrs []string) {
		colOf := map[string]string{}
		for _, a := range attrs {
			colOf[a] = a
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         "f_" + ty,
			Set:        "Hubs",
			ClientCond: exactCond(m.Client, ty),
			Attrs:      attrs,
			Table:      "AllTypes",
			StoreCond:  cond.Cmp{Attr: "Disc", Op: cond.OpEq, Val: cond.String(ty)},
			ColOf:      colOf,
		})
	}
	// Fragments own their attribute lists; AttrNames serves a slice
	// shared with the schema.
	for i := 0; i < opt.N; i++ {
		addFrag(hubName(i), slices.Clone(m.Client.AttrNames(hubName(i))))
		for j := 0; j < opt.M; j++ {
			addFrag(rimName(i, j), slices.Clone(m.Client.AttrNames(rimName(i, j))))
		}
	}
}

func buildHubRimTPT(m *frag.Mapping, opt HubRimOptions, hubName func(int) string, rimName func(int, int) string) {
	addTable := func(ty string, extra []rel.Column, fkTo string) {
		cols := append([]rel.Column{{Name: "Id", Type: cond.KindInt}}, extra...)
		t := rel.Table{Name: "T_" + ty, Cols: cols, Key: []string{"Id"}}
		if fkTo != "" {
			t.FKs = []rel.ForeignKey{{Name: "fk_" + ty, Cols: []string{"Id"}, RefTable: "T_" + fkTo, RefCols: []string{"Id"}}}
		}
		must(m.Store.AddTable(t))
	}
	addFrag := func(ty string, attrs []string, isRoot bool) {
		colOf := map[string]string{}
		for _, a := range attrs {
			colOf[a] = a
		}
		clientCond := cond.Expr(cond.TypeIs{Type: ty})
		if isRoot {
			// The root table stores every entity of the set.
			clientCond = cond.TypeIs{Type: hubName(0)}
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         "f_" + ty,
			Set:        "Hubs",
			ClientCond: clientCond,
			Attrs:      attrs,
			Table:      "T_" + ty,
			StoreCond:  cond.True{},
			ColOf:      colOf,
		})
	}

	for i := 0; i < opt.N; i++ {
		ty := hubName(i)
		extra := []rel.Column{{Name: fmt.Sprintf("H%d", i), Type: cond.KindString, Nullable: true}}
		fkTo := ""
		if i > 0 {
			fkTo = hubName(i - 1)
		}
		addTable(ty, extra, fkTo)
		attrs := []string{"Id", fmt.Sprintf("H%d", i)}
		addFrag(ty, attrs, i == 0)
	}
	for i := 0; i < opt.N; i++ {
		for j := 0; j < opt.M; j++ {
			ty := rimName(i, j)
			extra := []rel.Column{
				{Name: fmt.Sprintf("R%d_%d", i, j), Type: cond.KindString, Nullable: true},
				{Name: fmt.Sprintf("FK%d_%d", i, j), Type: cond.KindInt, Nullable: true},
			}
			addTable(ty, extra, hubName(0))
			// The association FK column references the hub level's table.
			must(m.Store.AddForeignKey("T_"+ty, rel.ForeignKey{
				Name:     fmt.Sprintf("fk_a%d_%d", i, j),
				Cols:     []string{fmt.Sprintf("FK%d_%d", i, j)},
				RefTable: "T_" + hubName(i),
				RefCols:  []string{"Id"},
			}))
			addFrag(ty, []string{"Id", fmt.Sprintf("R%d_%d", i, j)}, false)
		}
	}
}

// exactCond builds the "exactly this type" client condition a TPH fragment
// uses: IS OF (ONLY ty) expanded over the leaf, which for leaves is just
// IS OF ty.
func exactCond(c *edm.Schema, ty string) cond.Expr {
	if len(c.Descendants(ty)) == 0 {
		return cond.TypeIs{Type: ty}
	}
	return cond.TypeIs{Type: ty, Only: true}
}
