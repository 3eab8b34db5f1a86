package cqt

import (
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/rel"
)

func fixtureCatalog(t *testing.T) *Catalog {
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
	must(c.AddType(edm.EntityType{
		Name: "Customer", Base: "Person",
		Attrs: []edm.Attribute{
			{Name: "CredScore", Type: cond.KindInt, Nullable: true},
			{Name: "BillAddr", Type: cond.KindString, Nullable: true},
		},
	}))
	must(c.AddSet(edm.EntitySet{Name: "Persons", Type: "Person"}))
	must(c.AddAssociation(edm.Association{
		Name: "Supports",
		End1: edm.End{Type: "Customer", Mult: edm.Many},
		End2: edm.End{Type: "Employee", Mult: edm.ZeroOne},
	}))

	s := rel.NewSchema()
	must(s.AddTable(rel.Table{
		Name: "HR",
		Cols: []rel.Column{{Name: "Id", Type: cond.KindInt}, {Name: "Name", Type: cond.KindString, Nullable: true}},
		Key:  []string{"Id"},
	}))
	must(s.AddTable(rel.Table{
		Name: "Emp",
		Cols: []rel.Column{{Name: "Id", Type: cond.KindInt}, {Name: "Dept", Type: cond.KindString, Nullable: true}},
		Key:  []string{"Id"},
	}))
	return &Catalog{Client: c, Store: s}
}

func personQueryView() *View {
	// Q_Person from §2.2: HR left-outer-join Emp with a provenance flag.
	q := Join{
		Kind: LeftOuter,
		L:    ScanTable{Table: "HR"},
		R: Project{
			In: ScanTable{Table: "Emp"},
			Cols: []ProjCol{
				Col("Id"),
				ColAs("Dept", "Department"),
				LitAs(Const(cond.Bool(true)), "from_Emp"),
			},
		},
		On: [][2]string{{"Id", "Id"}},
	}
	return &View{
		Q: q,
		Cases: []Case{
			{
				When: cond.Cmp{Attr: "from_Emp", Op: cond.OpEq, Val: cond.Bool(true)},
				Type: "Employee",
				Attrs: map[string]string{
					"Id": "Id", "Name": "Name", "Department": "Department",
				},
			},
			{
				When:  cond.True{},
				Type:  "Person",
				Attrs: map[string]string{"Id": "Id", "Name": "Name"},
			},
		},
	}
}

func TestSimplifyMergesSelectsAndProjections(t *testing.T) {
	cat := fixtureCatalog(t)
	e := Select{
		In:   Select{In: ScanTable{Table: "HR"}, Cond: cond.NotNull("Name")},
		Cond: cond.Cmp{Attr: "Id", Op: cond.OpGt, Val: cond.Int(0)},
	}
	s := Simplify(cat, e)
	sel, ok := s.(Select)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if _, ok := sel.In.(ScanTable); !ok {
		t.Fatalf("selects not merged: %s", Format(s))
	}

	p := Project{
		In: Project{
			In:   ScanTable{Table: "Emp"},
			Cols: []ProjCol{Col("Id"), ColAs("Dept", "Department")},
		},
		Cols: []ProjCol{Col("Id"), ColAs("Department", "D2")},
	}
	s = Simplify(cat, p)
	pr, ok := s.(Project)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if _, ok := pr.In.(ScanTable); !ok {
		t.Fatalf("projections not composed: %s", Format(s))
	}
	if pr.Cols[1].Src != "Dept" || pr.Cols[1].As != "D2" {
		t.Fatalf("composed cols = %+v", pr.Cols)
	}
}

func TestSimplifyIdentityProjection(t *testing.T) {
	cat := fixtureCatalog(t)
	// Over a bare scan the identity projection must be KEPT: the scanned
	// table's column set can grow under later schema modifications, and a
	// dropped projection would silently widen the view with it.
	p := Project{In: ScanTable{Table: "HR"}, Cols: []ProjCol{Col("Id"), Col("Name")}}
	if _, ok := Simplify(cat, p).(Project); !ok {
		t.Fatalf("identity projection over a scan must be kept, got %s", Format(Simplify(cat, p)))
	}
	// Over an input with pinned columns (an explicit projection below) the
	// identity projection is redundant and is dropped.
	pinned := Project{
		In:   Project{In: ScanTable{Table: "HR"}, Cols: []ProjCol{Col("Id"), Col("Name")}},
		Cols: []ProjCol{Col("Id"), Col("Name")},
	}
	s := Simplify(cat, pinned)
	pr, ok := s.(Project)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if _, ok := pr.In.(ScanTable); !ok {
		t.Fatalf("stacked identity projections not collapsed: %s", Format(s))
	}
}

func TestSimplifyLOJElimination(t *testing.T) {
	cat := fixtureCatalog(t)
	// π_{Id,Name} (HR ⟕ Emp ON Id=Id) = π_{Id,Name}(HR) since Emp is keyed
	// on Id. This is the unfolding simplification used by the paper's
	// Example 7. The surviving projection over the scan is kept (scan
	// columns are not pinned), so the result is π_{Id,Name}(HR).
	j := Join{Kind: LeftOuter, L: ScanTable{Table: "HR"},
		R:  Project{In: ScanTable{Table: "Emp"}, Cols: []ProjCol{Col("Id"), ColAs("Dept", "Department")}},
		On: [][2]string{{"Id", "Id"}}}
	p := Project{In: j, Cols: []ProjCol{Col("Id"), Col("Name")}}
	s := Simplify(cat, p)
	pr, ok := s.(Project)
	if !ok {
		t.Fatalf("LOJ not eliminated: %s", Format(s))
	}
	if _, ok := pr.In.(ScanTable); !ok {
		t.Fatalf("LOJ not eliminated: %s", Format(s))
	}
}

func TestUnionFlattenAndEmptyElimination(t *testing.T) {
	cat := fixtureCatalog(t)
	u := UnionAll{Inputs: []Expr{
		UnionAll{Inputs: []Expr{ScanTable{Table: "HR"}, ScanTable{Table: "HR"}}},
		Select{In: ScanTable{Table: "HR"}, Cond: cond.False{}},
	}}
	s := Simplify(cat, u)
	flat, ok := s.(UnionAll)
	if !ok {
		t.Fatalf("got %T: %s", s, Format(s))
	}
	if len(flat.Inputs) != 2 {
		t.Fatalf("inputs = %d", len(flat.Inputs))
	}
}

func TestFormatOutput(t *testing.T) {
	view := personQueryView()
	out := FormatView(view)
	for _, want := range []string{"LEFT OUTER JOIN", "true AS from_Emp", "ON Id = Id", "Employee(", "Person("} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted view missing %q:\n%s", want, out)
		}
	}
}

func TestKeyColsTracing(t *testing.T) {
	cat := fixtureCatalog(t)
	p := Project{In: ScanTable{Table: "Emp"}, Cols: []ProjCol{ColAs("Id", "EmpId"), Col("Dept")}}
	key, ok := cat.KeyCols(p)
	if !ok || len(key) != 1 || key[0] != "EmpId" {
		t.Fatalf("KeyCols = %v, %v", key, ok)
	}
	dropped := Project{In: ScanTable{Table: "Emp"}, Cols: []ProjCol{Col("Dept")}}
	if _, ok := cat.KeyCols(dropped); ok {
		t.Fatalf("key should not be traceable through a dropping projection")
	}
}

func TestAssocEndColsSelfAssociation(t *testing.T) {
	c := edm.NewSchema()
	if err := c.AddType(edm.EntityType{Name: "P", Attrs: []edm.Attribute{{Name: "Id", Type: cond.KindInt}}, Key: []string{"Id"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSet(edm.EntitySet{Name: "Ps", Type: "P"}); err != nil {
		t.Fatal(err)
	}
	a := edm.Association{Name: "Knows", End1: edm.End{Type: "P", Mult: edm.Many}, End2: edm.End{Type: "P", Mult: edm.Many}}
	if err := c.AddAssociation(a); err != nil {
		t.Fatal(err)
	}
	e1, e2 := AssocEndCols(c, c.Association("Knows"))
	if e1[0] == e2[0] {
		t.Fatalf("self-association end columns collide: %v %v", e1, e2)
	}
}

// Fixtures shared with the external evaluator tests in eval_test.go.
var (
	FixtureCatalog  = fixtureCatalog
	PersonQueryView = personQueryView
)
