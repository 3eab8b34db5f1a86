package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
)

// randomHierarchies builds a schema of n types in a few hierarchies, with
// one entity set per hierarchy. Each schema draws its share of abstract
// types (none to a quarter) and of new roots. New types attach below a
// random earlier type, so the first hierarchies grow large: at n near 150
// some sets have more than 128 concrete types.
func randomHierarchies(r *rand.Rand, n int) (*edm.Schema, error) {
	s := edm.NewSchema()
	var names []string
	abstract, roots := r.Intn(5), 8+r.Intn(64)
	for i := 0; i < n; i++ {
		et := edm.EntityType{Name: fmt.Sprintf("T%d", i), Abstract: r.Intn(16) < abstract}
		if i == 0 || r.Intn(roots) == 0 {
			et.Attrs = []edm.Attribute{{Name: "Id", Type: cond.KindInt}}
			et.Key = []string{"Id"}
		} else {
			et.Base = names[r.Intn(len(names))]
		}
		if err := s.AddType(et); err != nil {
			return nil, err
		}
		names = append(names, et.Name)
		if et.Base == "" {
			if err := s.AddSet(edm.EntitySet{Name: "S" + et.Name, Type: et.Name}); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// randomTypeFormula draws a formula over IS OF and IS OF ONLY atoms of the
// given type names, combined with Not, And and Or. With mixed set, a
// quarter of the leaves are atoms the type-only path does not decide: a
// type atom of another subject or an attribute atom.
func randomTypeFormula(r *rand.Rand, names []string, depth int, mixed bool) cond.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if mixed && r.Intn(4) == 0 {
			if r.Intn(2) == 0 {
				return cond.TypeIs{Var: "x", Type: names[r.Intn(len(names))]}
			}
			return cond.Null{Attr: "Id"}
		}
		return cond.TypeIs{Type: names[r.Intn(len(names))], Only: r.Intn(2) == 0}
	}
	switch r.Intn(3) {
	case 0:
		return cond.NewNot(randomTypeFormula(r, names, depth-1, mixed))
	case 1:
		return cond.NewAnd(randomTypeFormula(r, names, depth-1, mixed), randomTypeFormula(r, names, depth-1, mixed))
	default:
		return cond.NewOr(randomTypeFormula(r, names, depth-1, mixed), randomTypeFormula(r, names, depth-1, mixed),
			randomTypeFormula(r, names, depth-1, mixed))
	}
}

// holdsAt evaluates a type-only formula at one concrete candidate, from
// the scan oracle's hierarchy.
func holdsAt(sc *schemaScan, c string, x cond.Expr) bool {
	switch v := x.(type) {
	case cond.TypeIs:
		if v.Only {
			return c == v.Type
		}
		return sc.IsSubtype(c, v.Type)
	case *cond.Not:
		return !holdsAt(sc, c, v.X)
	case *cond.And:
		for _, y := range v.Xs {
			if !holdsAt(sc, c, y) {
				return false
			}
		}
		return true
	case *cond.Or:
		for _, y := range v.Xs {
			if holdsAt(sc, c, y) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("holdsAt: %T is not a type-only node", x))
}

// typeOnly reports whether every atom of x is a type atom of subject "".
func typeOnly(x cond.Expr) bool {
	for _, a := range cond.Atoms(x) {
		if a.Kind != cond.AtomType || a.Var != "" {
			return false
		}
	}
	return true
}

// checkTypeOnly builds a random schema of n types and decides every type
// atom and random formulas over one of its entity sets through a
// SatCache, against two
// theories of the same hierarchy: the set's edm.SetTheory (bitsets from
// the schema index) and a cond.MapTheory (bitsets per candidate). Every
// Satisfiable, Implies and Disjoint verdict must equal the CDCL solver's
// (package-level cond.Satisfiable and Implies) and, for a type-only query,
// a per-candidate evaluation over the scan oracle. Every type-only query
// over a set with concrete types must be decided by the type-only path,
// and no other query by it.
func checkTypeOnly(t *testing.T, seed int64, n, depth int) {
	r := rand.New(rand.NewSource(seed))
	s, err := randomHierarchies(r, n)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSchemaScan(s)
	sets := s.Sets()
	set := sets[r.Intn(len(sets))]
	if r.Intn(2) == 0 {
		for _, e := range sets { // the set with the most concrete types
			if len(sc.ConcreteIn(e.Type)) > len(sc.ConcreteIn(set.Type)) {
				set = e
			}
		}
	}
	cands := sc.ConcreteIn(set.Type)
	// Atoms name every type of the schema, abstract ones and ones outside
	// the set's hierarchy included, and an unknown type.
	names := append(append([]string(nil), sc.order...), "NoSuchType")
	mt := &cond.MapTheory{Types: map[string][]string{"": cands}, Sub: map[string]map[string]bool{}}
	for _, ty := range sc.order {
		mt.Sub[ty] = map[string]bool{}
		for _, a := range sc.Ancestors(ty) {
			mt.Sub[ty][a] = true
		}
	}
	some := func(x cond.Expr) bool {
		for _, c := range cands {
			if holdsAt(sc, c, x) {
				return true
			}
		}
		return false
	}
	// Queries: every atom and its negation, then random formulas. Pairs:
	// random pairs of the former, then consecutive formulas.
	queries := make([]cond.Expr, 0, 4*len(names)+12)
	for _, ty := range names {
		for _, x := range []cond.Expr{cond.TypeIs{Type: ty}, cond.TypeIs{Type: ty, Only: true}} {
			queries = append(queries, x, cond.NewNot(x))
		}
	}
	atoms := len(queries)
	mixed := r.Intn(2) == 0
	for range 12 {
		queries = append(queries, randomTypeFormula(r, names, 1+r.Intn(depth), mixed))
	}
	var pairs [][2]cond.Expr
	for range atoms {
		pairs = append(pairs, [2]cond.Expr{queries[r.Intn(atoms)], queries[r.Intn(atoms)]})
	}
	for i := atoms; i < len(queries); i++ {
		pairs = append(pairs, [2]cond.Expr{queries[i], queries[atoms+(i+1-atoms)%12]})
	}
	for _, th := range []cond.Theory{s.TheoryFor(set.Name), mt} {
		cache := cond.NewSatCache()
		var fast, solved int64 // decisions expected on each path
		decided := func(what string, x cond.Expr, got, solver bool, oracle func() bool) {
			t.Helper()
			if got != solver {
				t.Fatalf("%T %s %s over %d candidates: SatCache says %v, CDCL %v", th, what, x, len(cands), got, solver)
			}
			if typeOnly(x) && len(cands) > 0 {
				fast++
				if want := oracle(); got != want {
					t.Fatalf("%T %s %s over %d candidates: %v, the scan oracle says %v", th, what, x, len(cands), got, want)
				}
			} else {
				solved++
			}
		}
		for _, a := range queries {
			decided("SAT", a, cache.Satisfiable(th, a), cond.Satisfiable(th, a), func() bool { return some(a) })
		}
		for _, p := range pairs {
			a, b := p[0], p[1]
			ab := cond.NewAnd(a, cond.NewNot(b))
			decided("IMPLIES", ab, cache.Implies(th, a, b), cond.Implies(th, a, b), func() bool { return !some(ab) })
			ab = cond.NewAnd(a, b)
			decided("DISJOINT", ab, cache.Disjoint(th, a, b), cond.Disjoint(th, a, b), func() bool { return !some(ab) })
		}
		st := cache.Stats()
		if st.TypeOnly != fast || st.Hits+st.Misses != solved {
			t.Fatalf("%T: %d type-only decisions and %d through the cache (%+v), want %d and %d",
				th, st.TypeOnly, st.Hits+st.Misses, st, fast, solved)
		}
	}
}

// FuzzTypeOnly holds the SatCache's type-only path to the CDCL solver and
// to the scan oracle on random hierarchies of up to 150 types. The seeds
// reach sets of more than 64 and more than 128 concrete types, sets with
// none, and queries mixed with atoms the path does not decide.
func FuzzTypeOnly(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3))   // 13 concrete types
	f.Add(int64(1), uint8(139), uint8(4))  // 94
	f.Add(int64(23), uint8(149), uint8(3)) // 130
	f.Add(int64(11), uint8(149), uint8(4)) // 145
	f.Add(int64(4), uint8(149), uint8(3))  // none: the solver decides
	f.Add(int64(5), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size, depth uint8) {
		checkTypeOnly(t, seed, 1+int(size)%150, 1+int(depth)%5)
	})
}
