package cond

import (
	"math/rand"
	"testing"
)

// satCacheTheory builds a theory with enough structure to exercise every
// fingerprint dimension: typed subjects, subtype relations, enum/int/bool
// domains, nullability, and per-type attribute presence.
func satCacheTheory() *MapTheory {
	return &MapTheory{
		Types: map[string][]string{"": {"Person", "Employee", "Customer"}},
		Sub: map[string]map[string]bool{
			"Employee": {"Person": true},
			"Customer": {"Person": true},
		},
		Domains: map[string]Domain{
			"Gender": {Kind: KindString, Enum: []Value{String("M"), String("F")}},
			"Age":    {Kind: KindInt},
			"Active": {Kind: KindBool},
		},
		NotNull: map[string]bool{"Id": true},
		Attrs: map[string]map[string]bool{
			"Person":   {"Id": true, "Gender": true, "Age": true},
			"Employee": {"Id": true, "Gender": true, "Age": true, "Salary": true},
			"Customer": {"Id": true, "Gender": true, "Age": true, "Active": true},
		},
	}
}

// randExpr generates a random condition over the theory's vocabulary.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return TypeIs{Type: []string{"Person", "Employee", "Customer"}[r.Intn(3)], Only: r.Intn(2) == 0}
		case 1:
			return Null{Attr: []string{"Gender", "Age", "Salary", "Id"}[r.Intn(4)]}
		case 2:
			return Cmp{Attr: "Gender", Op: OpEq, Val: String([]string{"M", "F", "X"}[r.Intn(3)])}
		case 3:
			ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
			return Cmp{Attr: "Age", Op: ops[r.Intn(len(ops))], Val: Int(int64(r.Intn(5) * 10))}
		case 4:
			return Cmp{Attr: "Active", Op: OpEq, Val: Bool(r.Intn(2) == 0)}
		default:
			return Cmp{Attr: "Salary", Op: OpGt, Val: Int(int64(r.Intn(3) * 1000))}
		}
	}
	switch r.Intn(3) {
	case 0:
		return NewNot(randExpr(r, depth-1))
	case 1:
		return NewAnd(randExpr(r, depth-1), randExpr(r, depth-1))
	default:
		return NewOr(randExpr(r, depth-1), randExpr(r, depth-1))
	}
}

// TestSatCacheAgreesWithDirect proves the memoized procedures agree with
// the direct solver on randomized expressions, on both the miss path and
// the hit path (every query is issued twice).
func TestSatCacheAgreesWithDirect(t *testing.T) {
	th := satCacheTheory()
	r := rand.New(rand.NewSource(7))
	c := NewSatCache()
	for i := 0; i < 400; i++ {
		a := randExpr(r, 3)
		b := randExpr(r, 3)
		for round := 0; round < 2; round++ {
			if got, want := c.Satisfiable(th, a), Satisfiable(th, a); got != want {
				t.Fatalf("Satisfiable mismatch (round %d) on %s: cache=%v direct=%v", round, a, got, want)
			}
			if got, want := c.Implies(th, a, b), Implies(th, a, b); got != want {
				t.Fatalf("Implies mismatch (round %d) on %s ⇒ %s: cache=%v direct=%v", round, a, b, got, want)
			}
			if got, want := c.Disjoint(th, a, b), Disjoint(th, a, b); got != want {
				t.Fatalf("Disjoint mismatch (round %d) on %s vs %s: cache=%v direct=%v", round, a, b, got, want)
			}
			if got, want := c.Tautology(th, a), Tautology(th, a); got != want {
				t.Fatalf("Tautology mismatch (round %d) on %s: cache=%v direct=%v", round, a, got, want)
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	if st.Entries > st.Misses {
		t.Fatalf("more entries than misses: %+v", st)
	}
}

// TestSatCacheTheoryFingerprint proves that one cache serves conflicting
// theories correctly: the key must capture the schema facts the verdict
// depends on, not just the expression.
func TestSatCacheTheoryFingerprint(t *testing.T) {
	c := NewSatCache()
	x := Expr(Null{Attr: "A"})
	nullable := &MapTheory{}
	notNull := &MapTheory{NotNull: map[string]bool{"A": true}}
	for round := 0; round < 2; round++ {
		if !c.Satisfiable(nullable, x) {
			t.Fatalf("round %d: A IS NULL should be satisfiable when A is nullable", round)
		}
		if c.Satisfiable(notNull, x) {
			t.Fatalf("round %d: A IS NULL should be unsatisfiable when A is NOT NULL", round)
		}
	}

	// Enum domains with different value sets must not collide either.
	y := Expr(Cmp{Attr: "G", Op: OpEq, Val: String("X")})
	mf := &MapTheory{Domains: map[string]Domain{"G": {Kind: KindString, Enum: []Value{String("M"), String("F")}}}}
	mfx := &MapTheory{Domains: map[string]Domain{"G": {Kind: KindString, Enum: []Value{String("M"), String("F"), String("X")}}}}
	for round := 0; round < 2; round++ {
		if c.Satisfiable(mf, y) {
			t.Fatalf("round %d: G = 'X' outside {M,F} should be unsatisfiable", round)
		}
		if !c.Satisfiable(mfx, y) {
			t.Fatalf("round %d: G = 'X' within {M,F,X} should be satisfiable", round)
		}
	}
}

// TestSatCacheSharedEntries checks that Implies, Disjoint and Satisfiable
// reduce to shared Satisfiable entries.
func TestSatCacheSharedEntries(t *testing.T) {
	th := FreeTheory
	a := Expr(Cmp{Attr: "A", Op: OpGt, Val: Int(1)})
	b := Expr(Cmp{Attr: "A", Op: OpGt, Val: Int(0)})
	c := NewSatCache()
	c.Implies(th, a, b) // caches SAT(a ∧ ¬b)
	if _, d := c.SatisfiableHit(th, NewAnd(a, NewNot(b))); d != Cached {
		t.Fatal("Implies should share its entry with the reduced Satisfiable query")
	}
	c.Disjoint(th, a, NewNot(b)) // same query again
	st := c.Stats()
	if st.Hits < 2 {
		t.Fatalf("expected shared entries to hit, got %+v", st)
	}
}

// TestSatCacheReset checks Reset drops entries and counters.
func TestSatCacheReset(t *testing.T) {
	c := NewSatCache()
	c.Satisfiable(FreeTheory, Cmp{Attr: "A", Op: OpEq, Val: Int(1)})
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
	if _, d := c.SatisfiableHit(FreeTheory, Cmp{Attr: "A", Op: OpEq, Val: Int(1)}); d != Solved {
		t.Fatal("Reset should drop cached entries")
	}
}
