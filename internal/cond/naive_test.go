package cond

import (
	"fmt"
	"testing"
)

// The historical DPLL solver, kept as the differential-testing oracle for
// the CDCL prover (satisfiableNaive) and for the enumeration engine's
// consistency check (naiveConsistentAssignment). It re-derives a subject's
// consistency from its assigned literals at every search node, sharing
// only the per-attribute domain reasoning (attrFeasibleLits) with
// production code.

// satisfiableNaive assigns the atoms in order, true before false, pruning
// every branch whose touched subject admits no witness, until the
// condition's truth is decided.
func satisfiableNaive(t Theory, x Expr) bool {
	return naiveSearch(t, Atoms(x), Assignment{}, 0, x)
}

func naiveSearch(t Theory, atoms []Atom, asg Assignment, i int, x Expr) bool {
	if v, known := evalPartial(x, asg); known {
		// The partial assignment is theory-consistent by construction, so a
		// witness exists for the assigned atoms; unassigned atoms take
		// whatever truth values the witness induces without affecting x.
		return v
	}
	if i >= len(atoms) {
		return false
	}
	a := atoms[i]
	defer delete(asg, a)
	for _, val := range [2]bool{true, false} {
		asg[a] = val
		if subjectConsistent(t, asg, a.subject()) && naiveSearch(t, atoms, asg, i+1, x) {
			return true
		}
	}
	return false
}

// naiveConsistentAssignment reports whether every subject of a full
// assignment admits a witness.
func naiveConsistentAssignment(t Theory, asg Assignment) bool {
	for a := range asg {
		if !subjectConsistent(t, asg, a.subject()) {
			return false
		}
	}
	return true
}

// subjectConsistent checks whether the assigned literals about one subject
// admit a witness: a concrete type (for typed subjects) together with
// per-attribute values or NULLs.
func subjectConsistent(t Theory, asg Assignment, subject string) bool {
	var typeLits []typeLit
	attrLits := map[string][]attrLit{}
	for a, val := range asg {
		if a.subject() != subject {
			continue
		}
		switch a.Kind {
		case AtomType:
			typeLits = append(typeLits, typeLit{typ: a.Type, only: a.Only, pos: val})
		case AtomNull:
			attrLits[a.Attr] = append(attrLits[a.Attr], attrLit{null: true, pos: val})
		case AtomCmp:
			attrLits[a.Attr] = append(attrLits[a.Attr], attrLit{op: a.Op, val: a.Val, pos: val})
		}
	}
	feasible := func(attr string, lits []attrLit) bool {
		var d domEntry
		d.dom, d.known = t.Domain(attr)
		d.nullable = t.Nullable(attr)
		var buf []attrLit
		return attrFeasibleLits(d, lits, &buf)
	}
	candidates := t.ConcreteTypes(subject)
	if len(candidates) == 0 {
		// Untyped subject: every positive type literal is unsatisfiable and
		// attribute groups stand alone.
		for _, tl := range typeLits {
			if tl.pos {
				return false
			}
		}
		for attr, lits := range attrLits {
			if !feasible(attr, lits) {
				return false
			}
		}
		return true
	}
	// Typed subject: some concrete type must satisfy the type literals and
	// admit all attribute groups.
	for _, c := range candidates {
		if !typeLitsHold(t, c, typeLits) {
			continue
		}
		ok := true
		for attr, lits := range attrLits {
			if t.HasAttr(c, bareAttr(attr)) {
				ok = feasible(attr, lits)
			} else {
				// The attribute does not exist on this type, hence is NULL.
				ok = !forcedNonNull(lits)
			}
			if !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestConsistentAssignmentAgreesWithNaive replays random full assignments
// through the engine-backed ConsistentAssignment and the naive solver's
// whole-subject check. The wide theory has more concrete types than the
// engine's bitmasks cover, so its slow gather path runs too.
func TestConsistentAssignmentAgreesWithNaive(t *testing.T) {
	types := make([]string, maxMaskBits+6)
	sub := map[string]map[string]bool{}
	attrs := map[string]map[string]bool{}
	for i := range types {
		types[i] = fmt.Sprintf("T%02d", i)
		sub[types[i]] = map[string]bool{"T00": true}
		attrs[types[i]] = map[string]bool{"a": true, "n": i%2 == 0}
	}
	wide := &MapTheory{
		Types:   map[string][]string{"": types},
		Sub:     sub,
		Domains: map[string]Domain{"a": {Kind: KindString}, "n": {Kind: KindInt}},
		NotNull: map[string]bool{"a": true},
		Attrs:   attrs,
	}
	person := personTheory()
	for name, tc := range map[string]struct {
		th Theory
		x  Expr
	}{
		"wide": {wide, NewAnd(
			TypeIs{Type: "T00"}, TypeIs{Type: "T01", Only: true}, TypeIs{Type: "T02"},
			Null{Attr: "n"}, Cmp{Attr: "n", Op: OpGt, Val: Int(3)}, Cmp{Attr: "n", Op: OpLt, Val: Int(5)},
			Cmp{Attr: "a", Op: OpEq, Val: String("x")},
		)},
		"person": {person, NewAnd(
			TypeIs{Type: "Person"}, TypeIs{Type: "Employee"}, TypeIs{Type: "Customer", Only: true},
			Null{Attr: "CredScore"}, Cmp{Attr: "Age", Op: OpGe, Val: Int(18)}, Cmp{Attr: "Age", Op: OpLt, Val: Int(18)},
			Cmp{Attr: "Gender", Op: OpEq, Val: String("M")}, Cmp{Attr: "Gender", Op: OpEq, Val: String("F")},
		)},
	} {
		atoms := Atoms(tc.x)
		rnd := uint32(1)
		consistent := 0
		for n := 0; n < 2000; n++ {
			asg := Assignment{}
			for _, a := range atoms {
				rnd = rnd*1664525 + 1013904223
				asg[a] = rnd>>16&1 == 1
			}
			got, want := ConsistentAssignment(tc.th, asg), naiveConsistentAssignment(tc.th, asg)
			if got != want {
				t.Fatalf("%s: ConsistentAssignment(%v) = %v, naive solver says %v", name, asg, got, want)
			}
			if got {
				consistent++
			}
		}
		if consistent == 0 || consistent == 2000 {
			t.Fatalf("%s: %d of 2000 random assignments consistent; the comparison is vacuous", name, consistent)
		}
	}
}

type typeLit struct {
	typ  string
	only bool
	pos  bool
}

func typeLitsHold(t Theory, concrete string, lits []typeLit) bool {
	for _, l := range lits {
		var holds bool
		if l.only {
			holds = concrete == l.typ
		} else {
			holds = t.IsSubtype(concrete, l.typ)
		}
		if holds != l.pos {
			return false
		}
	}
	return true
}
