package cond

import (
	"fmt"
	"math/rand"
	"testing"
)

// wideTheory is a random hierarchy of n concrete types under subject "",
// each carrying a random subset of the attributes s (nullable string), n
// (non-nullable int) and e (nullable three-value enum).
func wideTheory(rnd *rand.Rand, n int) (*MapTheory, []string) {
	types := make([]string, n)
	sub := map[string]map[string]bool{}
	attrs := map[string]map[string]bool{}
	for i := range types {
		types[i] = fmt.Sprintf("T%03d", i)
		sup := map[string]bool{types[i]: true}
		if i > 0 {
			for a := range sub[types[rnd.Intn(i)]] {
				sup[a] = true
			}
		}
		sub[types[i]] = sup
		attrs[types[i]] = map[string]bool{"s": rnd.Intn(3) > 0, "n": rnd.Intn(2) > 0, "e": rnd.Intn(4) > 0}
	}
	return &MapTheory{
		Types: map[string][]string{"": types},
		Sub:   sub,
		Domains: map[string]Domain{
			"s": {Kind: KindString},
			"n": {Kind: KindInt},
			"e": {Kind: KindString, Enum: []Value{String("p"), String("q"), String("r")}},
		},
		NotNull: map[string]bool{"n": true},
		Attrs:   attrs,
	}, types
}

// randWideExpr builds a random formula of depth ≤ d over type atoms of the
// hierarchy and null and comparison atoms of its attributes.
func randWideExpr(rnd *rand.Rand, types []string, d int) Expr {
	if d == 0 || rnd.Intn(3) == 0 {
		switch rnd.Intn(7) {
		case 0, 1:
			return TypeIs{Type: types[rnd.Intn(len(types))]}
		case 2:
			return TypeIs{Type: types[rnd.Intn(len(types))], Only: true}
		case 3:
			return Null{Attr: []string{"s", "n", "e"}[rnd.Intn(3)]}
		case 4:
			return Cmp{Attr: "s", Op: OpEq, Val: String([]string{"x", "y"}[rnd.Intn(2)])}
		case 5:
			return Cmp{Attr: "n", Op: []Op{OpLt, OpGe, OpEq}[rnd.Intn(3)], Val: Int(int64(rnd.Intn(4)))}
		default:
			return Cmp{Attr: "e", Op: OpEq, Val: String([]string{"p", "q", "r"}[rnd.Intn(3)])}
		}
	}
	xs := make([]Expr, 2+rnd.Intn(2))
	for i := range xs {
		xs[i] = randWideExpr(rnd, types, d-1)
	}
	switch rnd.Intn(3) {
	case 0:
		return NewAnd(xs...)
	case 1:
		return NewOr(xs...)
	default:
		return NewNot(NewAnd(xs...))
	}
}

// TestWideSubjectAgreesWithNaive holds the engine's decisions over subjects
// of more than 64 candidates, whose type atoms and attribute groups are
// multi-word bitsets, to the naive DPLL oracle: satisfiability of random
// formulas mixing type and attribute literals, and the consistency of
// random full assignments of their atoms.
func TestWideSubjectAgreesWithNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	sat, consistent, checked := 0, 0, 0
	for _, n := range []int{maxMaskBits + 1, 130, 200} {
		th, types := wideTheory(rnd, n)
		for k := 0; k < 150; k++ {
			x := randWideExpr(rnd, types, 3)
			got, want := Satisfiable(th, x), satisfiableNaive(th, x)
			if got != want {
				t.Fatalf("%d types: Satisfiable(%v) = %v, naive solver says %v", n, x, got, want)
			}
			if got {
				sat++
			}
			atoms := Atoms(x)
			for r := 0; r < 8; r++ {
				asg := Assignment{}
				for _, a := range atoms {
					asg[a] = rnd.Intn(2) == 0
				}
				got, want := ConsistentAssignment(th, asg), naiveConsistentAssignment(th, asg)
				if got != want {
					t.Fatalf("%d types: ConsistentAssignment(%v) = %v, naive solver says %v", n, asg, got, want)
				}
				if got {
					consistent++
				}
				checked++
			}
		}
	}
	if sat == 0 || sat == 450 || consistent == 0 || consistent == checked {
		t.Fatalf("%d of 450 formulas satisfiable, %d of %d assignments consistent: the comparison is vacuous", sat, consistent, checked)
	}
}
