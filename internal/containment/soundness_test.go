package containment_test

import (
	"testing"
	"testing/quick"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/containment"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// TestContainmentSoundOnData is the key property of the checker: whenever
// Contains(a, b) reports true, evaluating a and b over concrete data must
// yield a's rows as a subset of b's rows. Random states are generated for
// the paper model; several query pairs are checked on each.
func TestContainmentSoundOnData(t *testing.T) {
	m := workload.PaperFull()
	ch := containment.NewChecker(m.Catalog())

	queries := []cqt.Expr{
		persons(cond.TypeIs{Type: "Person"}, "Id"),
		persons(cond.TypeIs{Type: "Employee"}, "Id"),
		persons(cond.TypeIs{Type: "Customer"}, "Id"),
		persons(cond.TypeIs{Type: "Person", Only: true}, "Id"),
		persons(cond.NewAnd(cond.TypeIs{Type: "Customer"}, cond.Cmp{Attr: "CredScore", Op: cond.OpGe, Val: cond.Int(500)}), "Id"),
		persons(cond.NotNull("Name"), "Id"),
		cqt.UnionAll{Inputs: []cqt.Expr{
			persons(cond.TypeIs{Type: "Employee"}, "Id"),
			persons(cond.TypeIs{Type: "Customer"}, "Id"),
		}},
	}

	// Pre-compute symbolic answers.
	type pair struct{ i, j int }
	contained := map[pair]bool{}
	for i := range queries {
		for j := range queries {
			ok, err := ch.Contains(queries[i], queries[j])
			if err != nil {
				t.Fatal(err)
			}
			contained[pair{i, j}] = ok
		}
	}
	if !contained[pair{1, 0}] || contained[pair{0, 1}] {
		t.Fatal("sanity: Employee ⊆ Person expected")
	}

	f := func(seed uint32, nP, nE, nC uint8) bool {
		cs := randomState(seed, int(nP%5), int(nE%5), int(nC%5))
		env := &difftest.Env{Catalog: m.Catalog(), Client: cs}
		results := make([][]state.Row, len(queries))
		for i, q := range queries {
			res, err := difftest.Eval(env, q)
			if err != nil {
				t.Logf("eval error: %v", err)
				return false
			}
			results[i] = res.Rows
		}
		for i := range queries {
			for j := range queries {
				if !contained[pair{i, j}] {
					continue
				}
				if !rowsSubset(results[i], results[j]) {
					t.Logf("Contains(%d ⊆ %d) claimed but data disagrees (seed %d)", i, j, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func rowsSubset(a, b []state.Row) bool {
	counts := map[string]int{}
	for _, r := range b {
		counts[r.Canonical()]++
	}
	for _, r := range a {
		k := r.Canonical()
		if counts[k] == 0 {
			return false
		}
		counts[k]--
	}
	return true
}

func randomState(seed uint32, nP, nE, nC int) *state.ClientState {
	rnd := seed
	next := func() uint32 {
		rnd = rnd*1664525 + 1013904223
		return rnd
	}
	cs := state.NewClientState()
	id := int64(1)
	add := func(ty string, n int) {
		for i := 0; i < n; i++ {
			e := &state.Entity{Type: ty, Attrs: state.Row{"Id": cond.Int(id)}}
			if next()%2 == 0 {
				e.Attrs["Name"] = cond.String(string(rune('a' + next()%4)))
			}
			if ty == "Employee" && next()%2 == 0 {
				e.Attrs["Department"] = cond.String("d")
			}
			if ty == "Customer" && next()%2 == 0 {
				e.Attrs["CredScore"] = cond.Int(int64(next() % 1000))
			}
			cs.Insert("Persons", e)
			id++
		}
	}
	add("Person", nP)
	add("Employee", nE)
	add("Customer", nC)
	return cs
}

// TestFKContainmentSoundOnData checks the foreign-key preservation
// containments of the paper model against materialized data: the symbolic
// claim π_Eid(Q_Client) ⊆ π_Id(Q_Emp) must hold on every generated store.
func TestFKContainmentSoundOnData(t *testing.T) {
	m := workload.PaperFull()
	views, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ch := containment.NewChecker(m.Catalog())

	lhs := cqt.Project{
		In:   cqt.Select{In: views.Update["Client"].Q, Cond: cond.NotNull("Eid")},
		Cols: []cqt.ProjCol{cqt.ColAs("Eid", "Id")},
	}
	rhs := cqt.Project{In: views.Update["Emp"].Q, Cols: []cqt.ProjCol{cqt.Col("Id")}}
	ok, err := ch.Contains(lhs, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("FK preservation containment not provable on the paper model")
	}
	// Concrete confirmation.
	cs := workload.PaperClientState()
	env := &difftest.Env{Catalog: m.Catalog(), Client: cs}
	l, err := difftest.Eval(env, lhs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := difftest.Eval(env, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsSubset(l.Rows, r.Rows) {
		t.Fatal("data disagrees with the proven containment")
	}
}

// persons builds a project-select over the Persons set (duplicated from the
// internal test helpers, since this file lives in the external test package
// to use the compiler without an import cycle).
func persons(c cond.Expr, attrs ...string) cqt.Expr {
	cols := make([]cqt.ProjCol, len(attrs))
	for i, a := range attrs {
		cols[i] = cqt.Col(a)
	}
	return cqt.Project{In: cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: c}, Cols: cols}
}
