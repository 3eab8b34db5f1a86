package cond

import (
	"sort"
	"strings"
)

// Assignment maps atoms to truth values. A full assignment determines the
// truth of every condition built from those atoms.
type Assignment map[Atom]bool

// Eval evaluates the expression under the (full) assignment. Atoms missing
// from the assignment evaluate to false.
func (a Assignment) Eval(x Expr) bool {
	v, known := evalPartial(x, a)
	return known && v
}

// evalPartial performs three-valued evaluation of x under a partial
// assignment. known reports whether the truth value is already determined.
func evalPartial(x Expr, asg Assignment) (val, known bool) {
	switch v := x.(type) {
	case True:
		return true, true
	case False:
		return false, true
	case *Not:
		iv, ik := evalPartial(v.X, asg)
		return !iv, ik
	case *And:
		all := true
		for _, c := range v.Xs {
			cv, ck := evalPartial(c, asg)
			if ck && !cv {
				return false, true
			}
			if !ck {
				all = false
			}
		}
		return true, all
	case *Or:
		none := true
		for _, c := range v.Xs {
			cv, ck := evalPartial(c, asg)
			if ck && cv {
				return true, true
			}
			if !ck {
				none = false
			}
		}
		return false, none
	default:
		a, ok := atomOf(x)
		if !ok {
			return false, true
		}
		if b, assigned := asg[a]; assigned {
			return b, true
		}
		return false, false
	}
}

// Satisfiable reports whether some theory-consistent instance satisfies x.
// The check is a CDCL search (cdcl.go) over the Tseitin-encoded condition
// with theory-consistency propagation; it is exponential in the number of
// atoms in the worst case, which is inherent (the underlying problem is
// NP-hard), but clause learning and non-chronological backjumping prune
// the repeated near-identical subproblems that containment checking
// generates in practice.
func Satisfiable(t Theory, x Expr) bool {
	return satisfiableCDCL(t, x, Atoms(x), nil, nil)
}

// Implies reports whether every theory-consistent instance satisfying a
// also satisfies b.
func Implies(t Theory, a, b Expr) bool {
	return !Satisfiable(t, NewAnd(a, NewNot(b)))
}

// Tautology reports whether every theory-consistent instance satisfies x.
// This implements the coverage check of §3.3 of the paper (e.g. that
// age >= 18 OR age < 18 is a tautology over non-null integer ages, and that
// gender = 'M' OR gender = 'F' is one over the two-valued gender domain).
func Tautology(t Theory, x Expr) bool { return !Satisfiable(t, NewNot(x)) }

// Equivalent reports whether a and b agree on every theory-consistent
// instance.
func Equivalent(t Theory, a, b Expr) bool { return Implies(t, a, b) && Implies(t, b, a) }

// Disjoint reports whether no theory-consistent instance satisfies both a
// and b.
func Disjoint(t Theory, a, b Expr) bool { return !Satisfiable(t, NewAnd(a, b)) }

// EnumerateAllAssignmentsIndexed visits every full boolean assignment of
// the atoms with no theory pruning (2^len(atoms) visits), for the
// cell-pruning ablation (compiler.Options.NaiveCells). The visitor also
// receives the dense truth slice indexed like atoms (1 true, 0 false),
// valid only for the duration of the call. Use EnumerateCells otherwise.
func EnumerateAllAssignmentsIndexed(atoms []Atom, visit func(Assignment, []int8) bool) bool {
	asg := Assignment{}
	vals := make([]int8, len(atoms))
	for i := range vals {
		vals[i] = -1
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i >= len(atoms) {
			return visit(asg, vals)
		}
		for _, val := range [2]bool{true, false} {
			asg[atoms[i]] = val
			if val {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
			if !rec(i + 1) {
				return false
			}
		}
		delete(asg, atoms[i])
		vals[i] = -1
		return true
	}
	return rec(0)
}

// ConsistentAssignment reports whether a full assignment admits a witness
// instance under the theory. It replays the assignment atom by atom through
// the enumeration engine, requiring the theory to stay feasible after each.
func ConsistentAssignment(t Theory, asg Assignment) bool {
	atoms := make([]Atom, 0, len(asg))
	for a := range asg {
		atoms = append(atoms, a)
	}
	SortAtoms(atoms)
	e := newEnumEngine(t, atoms)
	for i, a := range atoms {
		var v int8
		if asg[a] {
			v = 1
		}
		e.assign(i, v)
		if !e.feasibleAfter(i) {
			return false
		}
	}
	return true
}

// domEntry caches per-attribute theory lookups for the enumeration hot
// path.
type domEntry struct {
	dom      Domain
	known    bool
	nullable bool
}

func (a Atom) subject() string {
	if a.Kind == AtomType {
		return a.Var
	}
	if i := strings.IndexByte(a.Attr, '.'); i >= 0 {
		return a.Attr[:i]
	}
	return ""
}

func bareAttr(attr string) string {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return attr[i+1:]
	}
	return attr
}

type typeLit struct {
	typ  string
	only bool
	pos  bool
}

type attrLit struct {
	null bool // true for IS NULL atoms, false for comparisons
	op   Op
	val  Value
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

func forcedNonNull(lits []attrLit) bool {
	for _, l := range lits {
		if l.null && !l.pos {
			return true // IS NULL assigned false
		}
		if !l.null && l.pos {
			return true // a positive comparison requires a value
		}
	}
	return false
}

func forcedNull(lits []attrLit) bool {
	for _, l := range lits {
		if l.null && l.pos {
			return true
		}
	}
	return false
}

// attrFeasibleLits is the domain reasoning of the enumeration engine and
// of the naive DPLL oracle in the tests: whether one attribute admits a
// value (or NULL) consistent with its assigned literals. cmpsBuf is
// caller-owned scratch, grown as needed.
func attrFeasibleLits(info domEntry, lits []attrLit, cmpsBuf *[]attrLit) bool {
	// Option 1: the attribute is NULL. All comparisons are then false.
	if info.nullable && !forcedNonNull(lits) {
		return true
	}
	// Option 2: the attribute holds a value.
	if forcedNull(lits) {
		return false
	}
	cmps := (*cmpsBuf)[:0]
	for _, l := range lits {
		if !l.null {
			cmps = append(cmps, l)
		}
	}
	*cmpsBuf = cmps
	if !info.known {
		return regionFeasibleUnknownDomain(cmps)
	}
	return regionFeasible(info.dom, cmps)
}

// regionFeasibleUnknownDomain handles attributes with no declared domain:
// the value may be of any kind.
func regionFeasibleUnknownDomain(cmps []attrLit) bool {
	// Positive literals force the kind.
	kind := Kind(-1)
	for _, l := range cmps {
		if l.pos {
			if kind >= 0 && kind != l.val.K {
				return false
			}
			kind = l.val.K
		}
	}
	if kind < 0 {
		// Only negative literals: pick any kind not mentioned, or any value
		// far from the mentioned constants; for bool fall through to the
		// two-valued check.
		return true
	}
	var same []attrLit
	for _, l := range cmps {
		if l.val.K == kind {
			same = append(same, l)
		} else if l.pos {
			return false
		}
		// Negative literals of other kinds hold vacuously.
	}
	return regionFeasible(Domain{Kind: kind}, same)
}

// regionFeasible decides whether some value of the given domain satisfies
// each comparison literal with its assigned polarity. Literals whose
// constant kind differs from the domain kind are always-false atoms: a
// positive occurrence is infeasible, a negative one vacuous (enumFeasible
// handles the latter through cmpHolds; rangeFeasible skips them).
func regionFeasible(dom Domain, cmps []attrLit) bool {
	for _, l := range cmps {
		if l.val.K != dom.Kind && l.pos {
			return false
		}
	}
	if len(dom.Enum) > 0 {
		return enumFeasible(dom.Enum, cmps)
	}
	if dom.Kind == KindBool {
		return enumFeasible([]Value{Bool(false), Bool(true)}, cmps)
	}
	return rangeFeasible(dom.Kind, cmps)
}

func enumFeasible(enum []Value, lits []attrLit) bool {
	// Fast path: a positive equality pins the value, so the enum scan
	// collapses to membership plus one pass over the literals. This keeps
	// exhaustive cell enumeration over large TPH discriminator domains
	// near-linear per search node.
	for _, l := range lits {
		if !l.pos || l.op != OpEq {
			continue
		}
		v := l.val
		if len(enum) > 0 && v.K != enum[0].K {
			return false // positive equality outside the domain kind
		}
		in := false
		for _, e := range enum {
			if c, ok := Compare(e, v); ok && c == 0 {
				in = true
				break
			}
		}
		if !in {
			return false
		}
		for _, l2 := range lits {
			if cmpHolds(v, l2.op, l2.val) != l2.pos {
				return false
			}
		}
		return true
	}
	// Negated equalities can rule out at most one enum value each.
	allNegEq := true
	for _, l := range lits {
		if l.pos || l.op != OpEq {
			allNegEq = false
			break
		}
	}
	if allNegEq && len(lits) < len(enum) {
		return true
	}
	for _, v := range enum {
		ok := true
		for _, l := range lits {
			if cmpHolds(v, l.op, l.val) != l.pos {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// rangeFeasible decides feasibility over an unbounded ordered domain using
// interval reasoning. Integer domains account for integrality of strict
// bounds and point exclusions; float and string domains are treated as
// dense unbounded orders.
func rangeFeasible(kind Kind, lits []attrLit) bool {
	type bound struct {
		val    Value
		strict bool
		set    bool
	}
	var lo, hi bound
	var eq *Value
	var excl []Value

	tightenLo := func(v Value, strict bool) {
		if !lo.set {
			lo = bound{val: v, strict: strict, set: true}
			return
		}
		c, _ := Compare(v, lo.val)
		if c > 0 || (c == 0 && strict && !lo.strict) {
			lo = bound{val: v, strict: strict, set: true}
		}
	}
	tightenHi := func(v Value, strict bool) {
		if !hi.set {
			hi = bound{val: v, strict: strict, set: true}
			return
		}
		c, _ := Compare(v, hi.val)
		if c < 0 || (c == 0 && strict && !hi.strict) {
			hi = bound{val: v, strict: strict, set: true}
		}
	}
	requireEq := func(v Value) bool {
		if eq != nil {
			c, _ := Compare(*eq, v)
			return c == 0
		}
		eq = &v
		return true
	}

	for _, l := range lits {
		if l.val.K != kind {
			continue // mismatched negatives are vacuous
		}
		op := l.op
		if !l.pos {
			op = op.Negate()
		}
		switch op {
		case OpEq:
			if !requireEq(l.val) {
				return false
			}
		case OpNe:
			excl = append(excl, l.val)
		case OpLt:
			tightenHi(l.val, true)
		case OpLe:
			tightenHi(l.val, false)
		case OpGt:
			tightenLo(l.val, true)
		case OpGe:
			tightenLo(l.val, false)
		}
	}

	if eq != nil {
		v := *eq
		for _, x := range excl {
			if c, _ := Compare(v, x); c == 0 {
				return false
			}
		}
		if lo.set {
			c, _ := Compare(v, lo.val)
			if c < 0 || (c == 0 && lo.strict) {
				return false
			}
		}
		if hi.set {
			c, _ := Compare(v, hi.val)
			if c > 0 || (c == 0 && hi.strict) {
				return false
			}
		}
		return true
	}

	if kind == KindInt {
		return intIntervalFeasible(lo.set, lo.val.IntVal(), lo.strict, hi.set, hi.val.IntVal(), hi.strict, excl)
	}

	// Dense order (floats; strings approximated as dense, which is sound
	// for the query classes this compiler generates).
	if lo.set && hi.set {
		c, _ := Compare(lo.val, hi.val)
		if c > 0 {
			return false
		}
		if c == 0 {
			if lo.strict || hi.strict {
				return false
			}
			for _, x := range excl {
				if cc, _ := Compare(lo.val, x); cc == 0 {
					return false
				}
			}
		}
	}
	return true
}

func intIntervalFeasible(loSet bool, lo int64, loStrict, hiSet bool, hi int64, hiStrict bool, excl []Value) bool {
	if loSet && loStrict {
		lo++
	}
	if hiSet && hiStrict {
		hi--
	}
	if loSet && hiSet {
		if lo > hi {
			return false
		}
		// Count distinct excluded points inside the closed interval.
		seen := map[int64]bool{}
		for _, x := range excl {
			v := x.IntVal()
			if v >= lo && v <= hi {
				seen[v] = true
			}
		}
		return hi-lo+1 > int64(len(seen))
	}
	return true
}

// SortAtoms orders atoms deterministically (the order used by Atoms).
func SortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].less(atoms[j]) })
}
