package cond

// Map-based enumerators over the same engine as EnumerateCells, kept for
// tests and benchmarks that visit cells as Assignments.

// EnumerateAssignments visits every theory-consistent full assignment of the
// given atoms. It stops early when visit returns false and reports whether
// the enumeration ran to completion.
func EnumerateAssignments(t Theory, atoms []Atom, visit func(Assignment) bool) bool {
	e := newEnumEngine(t, atoms)
	e.asg = make(Assignment, len(atoms))
	return e.run(0, func([]int8) bool { return visit(e.asg) })
}

// EnumerateAllAssignments visits every full boolean assignment of the atoms
// with no theory pruning (2^len(atoms) visits).
func EnumerateAllAssignments(atoms []Atom, visit func(Assignment) bool) bool {
	asg := Assignment{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i >= len(atoms) {
			return visit(asg)
		}
		for _, val := range [2]bool{true, false} {
			asg[atoms[i]] = val
			if !rec(i + 1) {
				return false
			}
		}
		delete(asg, atoms[i])
		return true
	}
	return rec(0)
}
