package frag

import (
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/rel"
)

func testMapping(t *testing.T) *Mapping {
	t.Helper()
	c := edm.NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddType(edm.EntityType{
		Name: "Person",
		Attrs: []edm.Attribute{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Name", Type: cond.KindString, Nullable: true},
		},
		Key: []string{"Id"},
	}))
	must(c.AddType(edm.EntityType{
		Name: "Employee", Base: "Person",
		Attrs: []edm.Attribute{{Name: "Department", Type: cond.KindString, Nullable: true}},
	}))
	must(c.AddSet(edm.EntitySet{Name: "Persons", Type: "Person"}))

	s := rel.NewSchema()
	must(s.AddTable(rel.Table{
		Name: "HR",
		Cols: []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Name", Type: cond.KindString, Nullable: true},
		},
		Key: []string{"Id"},
	}))
	must(s.AddTable(rel.Table{
		Name: "Emp",
		Cols: []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Dept", Type: cond.KindString, Nullable: true},
		},
		Key: []string{"Id"},
	}))

	m := &Mapping{Client: c, Store: s}
	m.Frags = append(m.Frags,
		&Fragment{
			ID: "f1", Set: "Persons",
			ClientCond: cond.TypeIs{Type: "Person"},
			Attrs:      []string{"Id", "Name"},
			Table:      "HR", StoreCond: cond.True{},
			ColOf: map[string]string{"Id": "Id", "Name": "Name"},
		},
		&Fragment{
			ID: "f2", Set: "Persons",
			ClientCond: cond.TypeIs{Type: "Employee"},
			Attrs:      []string{"Id", "Department"},
			Table:      "Emp", StoreCond: cond.True{},
			ColOf: map[string]string{"Id": "Id", "Department": "Dept"},
		},
	)
	if err := m.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFragmentAccessors(t *testing.T) {
	m := testMapping(t)
	f := m.Frags[1]
	if got := f.Cols(); len(got) != 2 || got[1] != "Dept" {
		t.Errorf("Cols = %v", got)
	}
	if a, ok := f.AttrFor("Dept"); !ok || a != "Department" {
		t.Errorf("AttrFor(Dept) = %q, %v", a, ok)
	}
	if !f.MapsCol("Id") || f.MapsCol("Nope") {
		t.Errorf("MapsCol wrong")
	}
	if !strings.Contains(f.String(), "Emp") {
		t.Errorf("String() = %q", f.String())
	}
}

func TestMappingLookups(t *testing.T) {
	m := testMapping(t)
	if got := m.FragsOnTable("HR"); len(got) != 1 || got[0].ID != "f1" {
		t.Errorf("FragsOnTable = %v", got)
	}
	if got := m.FragsOnSet("Persons"); len(got) != 2 {
		t.Errorf("FragsOnSet = %v", got)
	}
	if got := m.MappedTables(); len(got) != 2 || got[0] != "Emp" {
		t.Errorf("MappedTables = %v", got)
	}
	if m.FragForAssoc("none") != nil {
		t.Errorf("unknown association should be nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	// Clone is copy-on-write: mutation must go through MutableFrag, which
	// clones the touched fragment and leaves the source generation intact.
	m := testMapping(t)
	c := m.Clone()
	f := c.MutableFrag(c.Frags[0])
	f.ClientCond = cond.False{}
	f.ColOf["Id"] = "X"
	if _, isFalse := m.Frags[0].ClientCond.(cond.False); isFalse {
		t.Errorf("clone shares conditions")
	}
	if m.Frags[0].ColOf["Id"] != "Id" {
		t.Errorf("clone shares ColOf")
	}
	if c.Frags[0] != f {
		t.Errorf("MutableFrag did not replace the fragment in the clone")
	}
	if _, isFalse := c.Frags[0].ClientCond.(cond.False); !isFalse {
		t.Errorf("mutation lost on the clone")
	}
}

func TestDeepCloneIndependence(t *testing.T) {
	// DeepClone permits unrestricted in-place mutation of the copy.
	m := testMapping(t)
	c := m.DeepClone()
	c.Frags[0].ClientCond = cond.False{}
	c.Frags[0].ColOf["Id"] = "X"
	if _, isFalse := m.Frags[0].ClientCond.(cond.False); isFalse {
		t.Errorf("deep clone shares conditions")
	}
	if m.Frags[0].ColOf["Id"] != "Id" {
		t.Errorf("deep clone shares ColOf")
	}
}

func TestRemoveFragPreservesSource(t *testing.T) {
	m := testMapping(t)
	c := m.Clone()
	c.RemoveFrag(c.Frags[0])
	if len(c.Frags) != 1 || c.Frags[0].ID != "f2" {
		t.Errorf("RemoveFrag left %v", c.Frags)
	}
	if len(m.Frags) != 2 || m.Frags[0].ID != "f1" {
		t.Errorf("RemoveFrag disturbed the source generation: %v", m.Frags)
	}
}

func TestCheckWellFormedErrors(t *testing.T) {
	m := testMapping(t)
	bad := m.DeepClone()
	bad.Frags[0].ColOf["Name"] = "Nope"
	if err := bad.CheckWellFormed(); err == nil {
		t.Errorf("unknown column accepted")
	}

	bad = m.DeepClone()
	bad.Frags[0].Attrs = []string{"Name"} // key missing
	bad.Frags[0].ColOf = map[string]string{"Name": "Name"}
	if err := bad.CheckWellFormed(); err == nil {
		t.Errorf("fragment without key accepted")
	}

	bad = m.DeepClone()
	bad.Frags[0].Set = ""
	if err := bad.CheckWellFormed(); err == nil {
		t.Errorf("fragment with neither set nor assoc accepted")
	}

	bad = m.DeepClone()
	bad.Frags[0].Attrs = []string{"Id", "Ghost"}
	bad.Frags[0].ColOf["Ghost"] = "Name"
	if err := bad.CheckWellFormed(); err == nil {
		t.Errorf("unknown attribute accepted")
	}
}

func TestFragmentQueries(t *testing.T) {
	m := testMapping(t)
	f := m.Frags[1]
	if _, ok := f.ClientQuery().(cqt.Project); !ok {
		t.Errorf("client query should be a projection")
	}
	if _, ok := f.StoreQuery().(cqt.Project); !ok {
		t.Errorf("store query should be a projection")
	}
}

func TestViewsClone(t *testing.T) {
	// Clone shares view pointers; MutableQuery clones on first touch so the
	// source generation keeps its constructor maps.
	v := NewViews()
	v.Query["A"] = &cqt.View{Q: cqt.ScanTable{Table: "T"}, Cases: []cqt.Case{{
		When: cond.True{}, Type: "A", Attrs: map[string]string{"x": "x"},
	}}}
	c := v.Clone()
	if c.Query["A"] != v.Query["A"] {
		t.Errorf("clone should share untouched view pointers")
	}
	q := c.MutableQuery("A")
	q.Cases[0].Attrs["x"] = "y"
	if v.Query["A"].Cases[0].Attrs["x"] != "x" {
		t.Errorf("view clone shares constructor maps")
	}
	if c.Query["A"].Cases[0].Attrs["x"] != "y" {
		t.Errorf("mutation lost on the clone")
	}
	if c.MutableQuery("A") != q {
		t.Errorf("second MutableQuery should return the owned view")
	}
	if c.MutableQuery("missing") != nil {
		t.Errorf("MutableQuery of an absent view should be nil")
	}
}

func TestViewsDeepClone(t *testing.T) {
	v := NewViews()
	v.Query["A"] = &cqt.View{Q: cqt.ScanTable{Table: "T"}, Cases: []cqt.Case{{
		When: cond.True{}, Type: "A", Attrs: map[string]string{"x": "x"},
	}}}
	c := v.DeepClone()
	c.Query["A"].Cases[0].Attrs["x"] = "y"
	if v.Query["A"].Cases[0].Attrs["x"] != "x" {
		t.Errorf("deep view clone shares constructor maps")
	}
}

// FixtureMapping is the HR/Emp mapping, shared with the external tests.
var FixtureMapping = testMapping
