package cqt

import (
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/state"
)

func TestLiteralValue(t *testing.T) {
	if _, ok := NullOf(cond.KindInt).Value(); ok {
		t.Error("NULL literal has a value")
	}
	if v, ok := Const(cond.Int(7)).Value(); !ok || v.IntVal() != 7 {
		t.Error("constant literal value wrong")
	}
}

func TestJoinKindString(t *testing.T) {
	if Inner.String() != "INNER JOIN" || LeftOuter.String() != "LEFT OUTER JOIN" || FullOuter.String() != "FULL OUTER JOIN" {
		t.Error("join kind names wrong")
	}
}

func TestAnyCond(t *testing.T) {
	e := UnionAll{Inputs: []Expr{
		Select{In: ScanTable{Table: "A"}, Cond: cond.TypeIs{Type: "X"}},
		Project{In: Join{
			Kind: Inner,
			L:    ScanTable{Table: "B"},
			R:    Select{In: ScanTable{Table: "C"}, Cond: cond.NotNull("k")},
			On:   nil,
		}, Cols: []ProjCol{Col("k")}},
	}}
	hasType := func(c cond.Expr) bool {
		for _, a := range cond.Atoms(c) {
			if a.Kind == cond.AtomType {
				return true
			}
		}
		return false
	}
	if !AnyCond(e, hasType) {
		t.Error("type atom not found")
	}
	hasAttr := func(c cond.Expr) bool {
		for _, a := range cond.Atoms(c) {
			if a.Attr == "k" {
				return true
			}
		}
		return false
	}
	if !AnyCond(e, hasAttr) {
		t.Error("attribute atom not found")
	}
	if AnyCond(e, func(cond.Expr) bool { return false }) {
		t.Error("false predicate matched")
	}
}

func TestMapCondsRewrites(t *testing.T) {
	e := Join{
		Kind: LeftOuter,
		L:    Select{In: ScanTable{Table: "A"}, Cond: cond.TypeIs{Type: "Old"}},
		R:    Select{In: ScanTable{Table: "B"}, Cond: cond.True{}},
		On:   nil,
	}
	out := MapConds(e, func(c cond.Expr) cond.Expr {
		return cond.MapAtoms(c, func(x cond.Expr) cond.Expr {
			if ti, ok := x.(cond.TypeIs); ok && ti.Type == "Old" {
				ti.Type = "New"
				return ti
			}
			return x
		})
	})
	j := out.(Join)
	sel := j.L.(Select)
	if ti, ok := sel.Cond.(cond.TypeIs); !ok || ti.Type != "New" {
		t.Fatalf("condition not rewritten: %v", sel.Cond)
	}
}

func TestFormatConstructorMultiCase(t *testing.T) {
	v := &View{
		Q: ScanTable{Table: "T"},
		Cases: []Case{
			{When: cond.Cmp{Attr: "f", Op: cond.OpEq, Val: cond.Bool(true)}, Type: "Sub", Attrs: map[string]string{"a": "a", "b": "b"}},
			{When: cond.True{}, Type: "Base", Attrs: map[string]string{"a": "a"}},
		},
	}
	got := v.FormatConstructor()
	if !strings.Contains(got, "if (f = true) then Sub(a, b)") {
		t.Errorf("constructor format: %q", got)
	}
	if !strings.Contains(got, "else Base(a)") {
		t.Errorf("else branch missing: %q", got)
	}
}

func TestConstructorNoMatchErrors(t *testing.T) {
	_, err := ConstructEntity([]Case{
		{When: cond.False{}, Type: "X", Attrs: nil},
	}, state.Row{"a": cond.Int(1)})
	if err == nil {
		t.Fatal("unmatched row accepted")
	}
}

func TestSimplifyProjectionPushdownThroughUnion(t *testing.T) {
	cat := fixtureCatalog(t)
	u := UnionAll{Inputs: []Expr{
		Project{In: ScanTable{Table: "HR"}, Cols: []ProjCol{Col("Id"), Col("Name")}},
		Project{In: ScanTable{Table: "Emp"}, Cols: []ProjCol{Col("Id"), ColAs("Dept", "Name")}},
	}}
	p := Project{In: u, Cols: []ProjCol{Col("Id")}}
	s := Simplify(cat, p)
	su, ok := s.(UnionAll)
	if !ok {
		t.Fatalf("projection not pushed through union: %T", s)
	}
	for _, in := range su.Inputs {
		cols, err := cat.Cols(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) != 1 || cols[0] != "Id" {
			t.Fatalf("branch columns = %v", cols)
		}
	}
}
