package difftest

import (
	"context"
	"fmt"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/workload"
)

// checkIndex holds a schema and a fresh clone of it to the scan oracle.
func checkIndex(t *testing.T, what string, s *edm.Schema) {
	t.Helper()
	if err := CheckSchemaIndex(s); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := CheckSchemaIndex(s.Clone()); err != nil {
		t.Fatalf("%s (clone): %v", what, err)
	}
}

func TestSchemaIndexBuilderModels(t *testing.T) {
	for _, b := range []struct {
		name  string
		build func() (*frag.Mapping, error)
	}{
		{"paper-initial", workload.PaperInitialE},
		{"paper-full", workload.PaperFullE},
		{"chain", func() (*frag.Mapping, error) { return workload.ChainE(40) }},
		{"hubrim-tph", func() (*frag.Mapping, error) { return workload.HubRimE(workload.HubRimOptions{N: 3, M: 4, TPH: true}) }},
		{"hubrim-tpt", func() (*frag.Mapping, error) { return workload.HubRimE(workload.HubRimOptions{N: 3, M: 4}) }},
		{"customer", func() (*frag.Mapping, error) { return workload.CustomerE(workload.DefaultCustomerOptions()) }},
	} {
		t.Run(b.name, func(t *testing.T) {
			m, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, b.name, m.Client)
		})
	}
}

// TestSchemaIndexSuiteGenerations runs the nine Figure 9/10 suite
// operations on the chain and customer models and checks the index of
// every generation they produce, and that the base generation's answers
// do not move.
func TestSchemaIndexSuiteGenerations(t *testing.T) {
	const chainSize = 40
	ty := func(i int) string { return fmt.Sprintf("Entity%d", i) }
	smallCustomer := workload.CustomerOptions{
		Types: 60, Hierarchies: 8, LargestTPH: 25, Associations: 8, SharedTableFKs: 2,
	}
	for _, c := range []struct {
		name    string
		build   func() (*frag.Mapping, error)
		targets experiments.SuiteTargets
	}{
		{"chain", func() (*frag.Mapping, error) { return workload.ChainE(chainSize) }, experiments.SuiteTargets{
			TPTParent: ty(20), TPCParent: ty(21), TPHParent: ty(22),
			FKEnd1: ty(9), FKEnd2: ty(17), JTEnd1: ty(25), JTEnd2: ty(33),
			PropType: ty(20),
		}},
		{"customer", func() (*frag.Mapping, error) { return workload.CustomerE(smallCustomer) }, experiments.SuiteTargets{
			TPTParent: "H1T1", TPCParent: "H3T0", TPHParent: "H0T2",
			FKEnd1: "H1T0", FKEnd2: "H5T0", JTEnd1: "H3T0", JTEnd2: "H7T0",
			PropType: "H1T1",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			views, err := (&compiler.Compiler{}).Compile(base)
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, "base", base.Client)
			accepted := 0
			for _, op := range experiments.Suite(c.targets) {
				m := base.Clone()
				smo, err := op.Make(m)
				if err != nil {
					t.Fatalf("%s: %v", op.Name, err)
				}
				nm, _, err := core.NewIncremental().ApplyCtx(context.Background(), m, views, smo)
				checkIndex(t, op.Name+" (planned)", m.Client)
				if err != nil {
					continue
				}
				accepted++
				checkIndex(t, op.Name, nm.Client)
				checkIndex(t, op.Name+" (base after)", base.Client)
			}
			if accepted < 8 {
				t.Fatalf("only %d of 9 suite operations were accepted", accepted)
			}
		})
	}
}

// TestSchemaIndexHandBuilt covers the orders a builder never produces: a
// type rerooted under a base declared after it, so descendant and concrete
// lists put the type before its new root, and sibling subtypes declaring
// the same attribute name with different domains. Domain and Nullable take
// the first type in declaration order that carries the name, declared or
// inherited, which after the reroot is not the first type declaring it.
func TestSchemaIndexHandBuilt(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	key := func(n string) edm.Attribute { return edm.Attribute{Name: n, Type: cond.KindInt} }
	s := edm.NewSchema()
	// Early is declared first and later rerooted under Late's subtype.
	must(s.AddType(edm.EntityType{Name: "Early", Attrs: []edm.Attribute{key("EId")}, Key: []string{"EId"}}))
	must(s.AddType(edm.EntityType{Name: "EarlyKid", Base: "Early", Abstract: true}))
	must(s.AddSet(edm.EntitySet{Name: "Earlies", Type: "Early"}))
	must(s.AddType(edm.EntityType{Name: "Late", Attrs: []edm.Attribute{key("Id")}, Key: []string{"Id"}}))
	must(s.AddSet(edm.EntitySet{Name: "Lates", Type: "Late"}))
	must(s.AddType(edm.EntityType{Name: "Sib1", Base: "Late", Attrs: []edm.Attribute{
		{Name: "Dept", Type: cond.KindString, Nullable: true, Enum: []cond.Value{cond.String("a")}}}}))
	must(s.AddType(edm.EntityType{Name: "Sib2", Base: "Late", Attrs: []edm.Attribute{key("Dept")}}))
	checkIndex(t, "before reroot", s)
	if got, _ := s.TheoryFor("Lates").Domain("Dept"); got.Kind != cond.KindString {
		t.Fatalf("Domain(Dept) before reroot = %v, want Sib1's string domain", got)
	}

	// Early moves under Sib2 and inherits Sib2's Dept. Early precedes Sib1
	// in declaration order, so Sib2's Dept now decides the domain.
	must(s.RerootType("Early", "Sib2"))
	checkIndex(t, "after reroot", s)
	if got := s.Descendants("Late"); fmt.Sprint(got) != "[Early EarlyKid Sib1 Sib2]" {
		t.Errorf("Descendants(Late) = %v", got)
	}
	if got := s.ConcreteIn("Sib2"); fmt.Sprint(got) != "[Early Sib2]" {
		t.Errorf("ConcreteIn(Sib2) = %v", got)
	}
	th := s.TheoryFor("Lates")
	if got, _ := th.Domain("Dept"); got.Kind != cond.KindInt {
		t.Errorf("Domain(Dept) after reroot = %v, want Sib2's int domain", got)
	}
	if th.Nullable("Dept") {
		t.Errorf("Nullable(Dept) after reroot = true, want Sib2's false")
	}

	// Eight siblings each declaring Dept, as the concurrent-readers test
	// of the pipeline builds them.
	p := edm.NewSchema()
	must(p.AddType(edm.EntityType{Name: "Person", Attrs: []edm.Attribute{key("Id")}, Key: []string{"Id"}}))
	must(p.AddSet(edm.EntitySet{Name: "People", Type: "Person"}))
	for i := 0; i < 8; i++ {
		must(p.AddType(edm.EntityType{Name: fmt.Sprintf("Emp%d", i), Base: "Person", Attrs: []edm.Attribute{
			{Name: "Dept", Type: cond.KindString, Nullable: i%2 == 1}}}))
		checkIndex(t, fmt.Sprintf("siblings %d", i), p)
	}
	must(p.AddAttr("Emp3", edm.Attribute{Name: "Extra", Type: cond.KindInt}))
	checkIndex(t, "siblings + attr", p)
	must(p.RemoveType("Emp0"))
	checkIndex(t, "siblings - Emp0", p)
	if p.TheoryFor("People").Nullable("Dept") != true {
		t.Errorf("Nullable(Dept) after removing Emp0 should come from Emp1")
	}
}
