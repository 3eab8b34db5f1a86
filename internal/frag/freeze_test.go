package frag

import (
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/rel"
)

// frozenPair returns a frozen generation with a view of each kind.
func frozenPair(t *testing.T) (*Mapping, *Views) {
	m := testMapping(t)
	v := NewViews()
	for _, name := range []string{"Person", "Employee"} {
		v.SetQuery(name, &cqt.View{Q: cqt.ScanTable{Table: "HR"}})
	}
	v.SetAssoc("A", &cqt.View{Q: cqt.ScanTable{Table: "HR"}})
	v.SetUpdate("HR", &cqt.View{Q: cqt.ScanSet{Set: "Persons"}})
	m.Freeze()
	v.Freeze()
	return m, v
}

// TestFrozenGenerationMutatorsPanic calls every in-place mutator of a
// frozen generation, its schemas included, and expects each to panic
// with a message that names the frozen generation.
func TestFrozenGenerationMutatorsPanic(t *testing.T) {
	m, v := frozenPair(t)
	if !m.Client.Frozen() || !m.Store.Frozen() {
		t.Fatal("freezing a mapping left a schema unfrozen")
	}
	view := &cqt.View{Q: cqt.ScanTable{Table: "HR"}}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"MutableFrag", func() { m.MutableFrag(m.Frags[0]) }},
		{"RemoveFrag", func() { m.RemoveFrag(m.Frags[0]) }},
		{"MutableQuery", func() { v.MutableQuery("Person") }},
		{"MutableAssoc", func() { v.MutableAssoc("A") }},
		{"MutableUpdate", func() { v.MutableUpdate("HR") }},
		{"SetQuery", func() { v.SetQuery("X", view) }},
		{"SetAssoc", func() { v.SetAssoc("X", view) }},
		{"SetUpdate", func() { v.SetUpdate("X", view) }},
		{"AddType", func() {
			_ = m.Client.AddType(edm.EntityType{Name: "X", Attrs: []edm.Attribute{{Name: "Id", Type: cond.KindInt}}, Key: []string{"Id"}})
		}},
		{"RemoveType", func() { _ = m.Client.RemoveType("Employee") }},
		{"RerootType", func() { _ = m.Client.RerootType("Person", "Employee") }},
		{"AddAttr", func() { _ = m.Client.AddAttr("Employee", edm.Attribute{Name: "X", Type: cond.KindInt}) }},
		{"AddSet", func() { _ = m.Client.AddSet(edm.EntitySet{Name: "X", Type: "Person"}) }},
		{"AddAssociation", func() {
			_ = m.Client.AddAssociation(edm.Association{Name: "X", End1: edm.End{Type: "Person"}, End2: edm.End{Type: "Person"}})
		}},
		{"RemoveAssociation", func() { _ = m.Client.RemoveAssociation("X") }},
		{"AddTable", func() {
			_ = m.Store.AddTable(rel.Table{Name: "X", Cols: []rel.Column{{Name: "Id", Type: cond.KindInt}}, Key: []string{"Id"}})
		}},
		{"AddForeignKey", func() {
			_ = m.Store.AddForeignKey("Emp", rel.ForeignKey{Name: "X", Cols: []string{"Id"}, RefTable: "HR", RefCols: []string{"Id"}})
		}},
		{"RemoveTable", func() { _ = m.Store.RemoveTable("Emp") }},
		{"MutableTable", func() { m.Store.MutableTable("HR") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s on a frozen generation did not panic", tc.name)
				}
				if msg, _ := r.(string); !strings.Contains(msg, tc.name) || !strings.Contains(msg, "frozen generation") {
					t.Errorf("panic %q does not name the call and the frozen generation", r)
				}
			}()
			tc.call()
		})
	}
}

// TestCloneLeavesFrozenReceiverUnchanged checks that Clone writes nothing
// to a frozen generation, and that the clone is an unfrozen generation
// whose mutators work and do not reach the frozen one.
func TestCloneLeavesFrozenReceiverUnchanged(t *testing.T) {
	m, v := frozenPair(t)
	frags, owned := m.fragsShared, len(v.owned)
	before := m.Frags[0].String()
	nm, nv := m.Clone(), v.Clone()
	if m.fragsShared != frags || len(v.owned) != owned || !m.Frozen() || !v.Frozen() {
		t.Fatal("Clone wrote to a frozen receiver")
	}
	if nm.Frozen() || nv.Frozen() || nm.Client.Frozen() || nm.Store.Frozen() {
		t.Fatal("a clone of a frozen generation is frozen")
	}
	f := nm.MutableFrag(nm.Frags[0])
	f.Attrs = f.Attrs[:1]
	nv.MutableQuery("Person").Cases = []cqt.Case{{When: cond.True{}, Type: "Person"}}
	if err := nm.Client.AddAttr("Employee", edm.Attribute{Name: "Extra", Type: cond.KindInt}); err != nil {
		t.Fatal(err)
	}
	if m.Frags[0].String() != before || len(v.Query["Person"].Cases) != 0 || m.Client.HasAttr("Employee", "Extra") {
		t.Fatal("mutating a clone changed the frozen generation")
	}
	m.Freeze() // a second Freeze is a no-op
	if dm := m.DeepClone(); dm.Frozen() || dm.Client.Frozen() {
		t.Fatal("DeepClone of a frozen generation is frozen")
	}
}

// TestMemoBuildsOnceAndDropsItsBase checks the memo's life cycle: built
// once per frozen generation, fed the frozen ancestor's value, which the
// generation stops referencing once it has its own.
func TestMemoBuildsOnceAndDropsItsBase(t *testing.T) {
	m, _ := frozenPair(t)
	builds := 0
	build := func(base any) (any, error) {
		builds++
		if base != nil {
			return base.(string) + "+", nil
		}
		return "root", nil
	}
	for i := 0; i < 3; i++ {
		if got, err := m.Memo(build); err != nil || got != "root" {
			t.Fatalf("Memo = %v, %v", got, err)
		}
	}
	c := m.Clone()
	if c.BaseMemo() != "root" {
		t.Fatalf("clone's base memo %v, want the frozen ancestor's", c.BaseMemo())
	}
	cc := c.Clone() // an unfrozen link passes the base on
	if cc.BaseMemo() != "root" {
		t.Fatalf("clone of an unfrozen clone has base memo %v", cc.BaseMemo())
	}
	c.Freeze()
	if got, _ := c.Memo(build); got != "root+" || c.BaseMemo() != nil {
		t.Fatalf("derived memo %v with base %v; want root+ and the base dropped", got, c.BaseMemo())
	}
	if builds != 2 {
		t.Fatalf("%d builds, want one per frozen generation", builds)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Memo on an unfrozen generation did not panic")
			}
		}()
		cc.Memo(build)
	}()
}
