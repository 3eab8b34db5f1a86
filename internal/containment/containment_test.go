package containment

import (
	"context"
	"sync"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/workload"
)

func checker(t *testing.T) *Checker {
	t.Helper()
	m := workload.PaperFull()
	return NewChecker(m.Catalog())
}

func persons(c cond.Expr, attrs ...string) cqt.Expr {
	cols := make([]cqt.ProjCol, len(attrs))
	for i, a := range attrs {
		cols[i] = cqt.Col(a)
	}
	return cqt.Project{In: cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: c}, Cols: cols}
}

func mustContain(t *testing.T, ch *Checker, a, b cqt.Expr, want bool, msg string) {
	t.Helper()
	got, err := ch.Contains(a, b)
	if err != nil {
		t.Fatalf("%s: %v", msg, err)
	}
	if got != want {
		t.Errorf("%s: Contains = %v, want %v", msg, got, want)
	}
}

// TestExample6Containment reproduces the validation check of Example 6:
// π_Id(σ IS OF Employee(Persons)) ⊆ π_Id(σ IS OF Person(Persons)).
func TestExample6Containment(t *testing.T) {
	ch := checker(t)
	emp := persons(cond.TypeIs{Type: "Employee"}, "Id")
	per := persons(cond.TypeIs{Type: "Person"}, "Id")
	mustContain(t, ch, emp, per, true, "Employee ⊆ Person")
	mustContain(t, ch, per, emp, false, "Person ⊄ Employee")
}

func TestRenamedProjection(t *testing.T) {
	ch := checker(t)
	a := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Customer"}},
		Cols: []cqt.ProjCol{cqt.ColAs("Id", "Cid")},
	}
	b := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Person"}},
		Cols: []cqt.ProjCol{cqt.ColAs("Id", "Cid")},
	}
	mustContain(t, ch, a, b, true, "renamed projection")
}

func TestConditionSubsumption(t *testing.T) {
	ch := checker(t)
	narrow := persons(cond.NewAnd(cond.TypeIs{Type: "Customer"}, cond.Cmp{Attr: "CredScore", Op: cond.OpGe, Val: cond.Int(700)}), "Id")
	wide := persons(cond.NewAnd(cond.TypeIs{Type: "Customer"}, cond.Cmp{Attr: "CredScore", Op: cond.OpGe, Val: cond.Int(600)}), "Id")
	mustContain(t, ch, narrow, wide, true, "narrow range ⊆ wide range")
	mustContain(t, ch, wide, narrow, false, "wide range ⊄ narrow range")
}

func TestUnionContainment(t *testing.T) {
	ch := checker(t)
	u := cqt.UnionAll{Inputs: []cqt.Expr{
		persons(cond.TypeIs{Type: "Employee"}, "Id"),
		persons(cond.TypeIs{Type: "Customer"}, "Id"),
	}}
	all := persons(cond.TypeIs{Type: "Person"}, "Id")
	mustContain(t, ch, u, all, true, "union of subtypes ⊆ supertype")
	// The reverse fails: ONLY Person entities are not covered.
	mustContain(t, ch, all, u, false, "supertype ⊄ union of proper subtypes")
	// But a union covering the whole hierarchy contains the supertype query.
	full := cqt.UnionAll{Inputs: []cqt.Expr{
		persons(cond.TypeIs{Type: "Person", Only: true}, "Id"),
		persons(cond.TypeIs{Type: "Employee"}, "Id"),
		persons(cond.TypeIs{Type: "Customer"}, "Id"),
	}}
	mustContain(t, ch, all, full, true, "supertype ⊆ exhaustive union")
}

func TestJoinHomomorphism(t *testing.T) {
	ch := checker(t)
	// a joins HR and Emp on key; b scans HR alone. π_Id(a) ⊆ π_Id(b).
	a := cqt.Project{
		In: cqt.Join{
			Kind: cqt.Inner,
			L:    cqt.ScanTable{Table: "HR"},
			R:    cqt.Project{In: cqt.ScanTable{Table: "Emp"}, Cols: []cqt.ProjCol{cqt.ColAs("Id", "EId"), cqt.Col("Dept")}},
			On:   [][2]string{{"Id", "EId"}},
		},
		Cols: []cqt.ProjCol{cqt.Col("Id")},
	}
	b := cqt.Project{In: cqt.ScanTable{Table: "HR"}, Cols: []cqt.ProjCol{cqt.Col("Id")}}
	mustContain(t, ch, a, b, true, "join ⊆ its left scan on left columns")
	mustContain(t, ch, b, a, false, "scan ⊄ join")
}

func TestJoinTransportsConditions(t *testing.T) {
	ch := checker(t)
	// In a, the condition is on Emp's copy of the key; the join equality
	// must transport it to HR's copy for the containment to be provable.
	a := cqt.Project{
		In: cqt.Select{
			In: cqt.Join{
				Kind: cqt.Inner,
				L:    cqt.ScanTable{Table: "HR"},
				R:    cqt.Project{In: cqt.ScanTable{Table: "Emp"}, Cols: []cqt.ProjCol{cqt.ColAs("Id", "EId")}},
				On:   [][2]string{{"Id", "EId"}},
			},
			Cond: cond.Cmp{Attr: "EId", Op: cond.OpGe, Val: cond.Int(10)},
		},
		Cols: []cqt.ProjCol{cqt.Col("Id")},
	}
	b := cqt.Project{
		In:   cqt.Select{In: cqt.ScanTable{Table: "HR"}, Cond: cond.Cmp{Attr: "Id", Op: cond.OpGe, Val: cond.Int(5)}},
		Cols: []cqt.ProjCol{cqt.Col("Id")},
	}
	mustContain(t, ch, a, b, true, "condition transported through join equality")
}

func TestLiteralProjections(t *testing.T) {
	ch := checker(t)
	a := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Employee"}},
		Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.LitAs(cqt.Const(cond.Bool(true)), "flag")},
	}
	b := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Person"}},
		Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.LitAs(cqt.Const(cond.Bool(true)), "flag")},
	}
	mustContain(t, ch, a, b, true, "matching literal outputs")
	c := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Person"}},
		Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.LitAs(cqt.Const(cond.Bool(false)), "flag")},
	}
	mustContain(t, ch, a, c, false, "mismatching literal outputs")
}

// TestExample7Unfolding reproduces check 2 of §3.2 as unfolded in
// Example 7: the customer identifiers are contained in the update view of
// Client projected on Cid. The update view contains a left outer join that
// the simplifier must eliminate.
func TestExample7Unfolding(t *testing.T) {
	ch := checker(t)
	// Q3_Client: customers projected into Client's columns.
	q3client := cqt.Project{
		In: cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Customer"}},
		Cols: []cqt.ProjCol{
			cqt.ColAs("Id", "Cid"),
			cqt.LitAs(cqt.NullOf(cond.KindInt), "Eid"),
			cqt.Col("Name"),
			cqt.ColAs("CredScore", "Score"),
			cqt.ColAs("BillAddr", "Addr"),
		},
	}
	// Q4_Client adds the association via a left outer join on the key.
	q4client := cqt.Join{
		Kind: cqt.LeftOuter,
		L: cqt.Project{
			In: q3client,
			Cols: []cqt.ProjCol{
				cqt.Col("Cid"), cqt.Col("Name"), cqt.Col("Score"), cqt.Col("Addr"),
			},
		},
		R: cqt.Project{
			In:   cqt.ScanAssoc{Assoc: "Supports"},
			Cols: []cqt.ProjCol{cqt.ColAs("Customer_Id", "Cid"), cqt.ColAs("Employee_Id", "Eid")},
		},
		On: [][2]string{{"Cid", "Cid"}},
	}
	lhs := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Customer"}},
		Cols: []cqt.ProjCol{cqt.ColAs("Id", "Cid")},
	}
	rhs := cqt.Project{In: q4client, Cols: []cqt.ProjCol{cqt.Col("Cid")}}
	mustContain(t, ch, lhs, rhs, true, "check 2 of Example 7")
}

func TestStatsAccumulate(t *testing.T) {
	ch := checker(t)
	a := persons(cond.TypeIs{Type: "Employee"}, "Id")
	b := persons(cond.TypeIs{Type: "Person"}, "Id")
	if _, err := ch.Contains(a, b); err != nil {
		t.Fatal(err)
	}
	if ch.Stats.Containments != 1 || ch.Stats.Implications == 0 {
		t.Errorf("stats = %+v", ch.Stats)
	}
}

func TestUnsatisfiableBlockSkipped(t *testing.T) {
	ch := checker(t)
	empty := persons(cond.NewAnd(cond.TypeIs{Type: "Employee"}, cond.TypeIs{Type: "Customer"}), "Id")
	anything := persons(cond.TypeIs{Type: "Customer"}, "Id")
	mustContain(t, ch, empty, anything, true, "empty query contained in anything")
}

// TestPrenormSharedAcrossGoroutines checks one right side from several
// goroutines at once, as the compiler's parallel foreign-key tasks do: the
// first check to reach the Prenorm normalizes it, and every check returns
// ContainsCtx's verdict.
func TestPrenormSharedAcrossGoroutines(t *testing.T) {
	ch := checker(t)
	per := persons(cond.TypeIs{Type: "Person"}, "Id")
	lefts := []cqt.Expr{
		persons(cond.TypeIs{Type: "Employee"}, "Id"),
		persons(cond.TypeIs{Type: "Customer"}, "Id"),
		persons(cond.TypeIs{Type: "Person"}, "Id"),
		cqt.Project{In: cqt.ScanTable{Table: "HR"}, Cols: []cqt.ProjCol{cqt.Col("Id")}},
	}
	want := make([]bool, len(lefts))
	for i, l := range lefts {
		ok, err := ch.Contains(l, per)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ok
	}
	pre := ch.PrenormalizeRight(per)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(lefts)
			ok, err := ch.ContainsPreCtx(context.Background(), lefts[i], pre)
			if err != nil || ok != want[i] {
				t.Errorf("check %d: %v, %v; want %v", i, ok, err, want[i])
			}
		}(g)
	}
	wg.Wait()
}

// TestVerdictIgnoresAliasNumbering joins an int key column to a string
// column, so a block comparing the key with a string literal is empty. The
// checker sees that only when the class's representative is the key column;
// the representative is chosen by scan position, so renumbering the aliases
// (t9 and t10 order the other way round as strings) keeps the verdict.
func TestVerdictIgnoresAliasNumbering(t *testing.T) {
	ch := checker(t)
	block := func(x, y string) CQ {
		return CQ{
			Scans:   []ScanRef{{Alias: x, Kind: KSet, Name: "Persons"}, {Alias: y, Kind: KSet, Name: "Persons"}},
			Eqs:     [][2]ColRef{{{Alias: x, Col: "Id"}, {Alias: y, Col: "Name"}}},
			Cond:    cond.Cmp{Attr: x + ".Id", Op: cond.OpEq, Val: cond.String("P")},
			Proj:    map[string]Term{"Id": {Ref: ColRef{Alias: x, Col: "Id"}}},
			Subject: x,
		}
	}
	hr := []CQ{{Scans: []ScanRef{{Alias: "r", Kind: KTable, Name: "HR"}}, Cond: cond.True{},
		Proj: map[string]Term{"Id": {Ref: ColRef{Alias: "r", Col: "Id"}}}}}
	for _, names := range [][2]string{{"t1", "t2"}, {"t9", "t10"}} {
		ok, err := ch.containsBlocks(context.Background(), []CQ{block(names[0], names[1])}, hr)
		if err != nil || !ok {
			t.Errorf("aliases %v: contained = %v, %v; want true (the block is empty)", names, ok, err)
		}
	}
}
