package cond

// Type-only decisions. A query whose atoms are all type atoms of one typed
// subject is decided exactly by set operations on that subject's concrete
// candidates, the universe the solver's engine ranges the subject over:
//
//   - IS OF T is the candidates T admits, IS OF ONLY T is {T} if T is a
//     candidate and empty otherwise;
//   - Not, And and Or are complement, intersection and union;
//   - the query is satisfiable iff its set is non-empty.
//
// SatCache takes this path first, with no key, cache entry, lemma scope or
// solver run. Untyped subjects, atom-free formulas and any node the
// evaluator does not handle keep the solver path.

// TypeSets is implemented by theories that serve a type atom's candidates
// from a precomputed index (edm.SetTheory). Theories without it get each
// atom's candidates from ConcreteTypes and IsSubtype, one candidate at a
// time, as the solver's engine defines them (newEnumEngine).
type TypeSets interface {
	// TypeSet writes into dst the candidates of the subject at which IS OF
	// typ holds (IS OF ONLY typ when only). dst has ⌈n/64⌉ words for the
	// subject's n = len(ConcreteTypes(subject)) candidates. Which bit stands
	// for which candidate is the theory's choice, the same for every atom
	// of one subject.
	TypeSet(dst []uint64, subject, typ string, only bool)
}

// typeSubject reports the subject of a formula whose atoms are all type
// atoms of that one subject. A bare atom is its own atom list and a
// composite's atoms are memoized, so classifying allocates nothing.
func typeSubject(x Expr) (string, bool) {
	switch v := x.(type) {
	case TypeIs:
		return v.Var, true
	case *Not, *And, *Or:
		atoms := Atoms(x)
		if len(atoms) == 0 {
			return "", false
		}
		for _, a := range atoms {
			if a.Kind != AtomType || a.Var != atoms[0].Var {
				return "", false
			}
		}
		return atoms[0].Var, true
	}
	return "", false
}

// typeEval evaluates type-only formulas over one subject as bitsets of its
// candidates. It is not safe for concurrent use.
type typeEval struct {
	t     Theory
	sets  TypeSets // nil: per-candidate masks from cands and IsSubtype
	subj  string
	cands []string
	tail  uint64     // the valid bits of a set's last word
	spare [][]uint64 // sets free for reuse
}

// newTypeEval returns the evaluator for subj, or false when subj has no
// concrete candidates.
func newTypeEval(t Theory, subj string) (*typeEval, bool) {
	cands := t.ConcreteTypes(subj)
	if len(cands) == 0 {
		return nil, false
	}
	e := &typeEval{t: t, subj: subj, cands: cands, tail: ^uint64(0) >> uint((64-len(cands)%64)%64)}
	e.sets, _ = t.(TypeSets)
	return e, true
}

func (e *typeEval) get() []uint64 {
	if k := len(e.spare); k > 0 {
		s := e.spare[k-1]
		e.spare = e.spare[:k-1]
		return s
	}
	return make([]uint64, (len(e.cands)+63)/64)
}

func (e *typeEval) put(s []uint64) { e.spare = append(e.spare, s) }

// eval returns the candidates at which x holds, or false at a node it does
// not handle.
func (e *typeEval) eval(x Expr) ([]uint64, bool) {
	switch v := x.(type) {
	case TypeIs:
		if v.Var != e.subj {
			return nil, false
		}
		dst := e.get()
		if e.sets != nil {
			e.sets.TypeSet(dst, e.subj, v.Type, v.Only)
			dst[len(dst)-1] &= e.tail
			return dst, true
		}
		clear(dst)
		for i, c := range e.cands {
			if v.Only && c == v.Type || !v.Only && e.t.IsSubtype(c, v.Type) {
				dst[i>>6] |= 1 << uint(i&63)
			}
		}
		return dst, true
	case *Not:
		dst, ok := e.eval(v.X)
		if !ok {
			return nil, false
		}
		for i := range dst {
			dst[i] = ^dst[i]
		}
		dst[len(dst)-1] &= e.tail
		return dst, true
	case *And:
		return e.fold(v.Xs, func(d, s uint64) uint64 { return d & s })
	case *Or:
		return e.fold(v.Xs, func(d, s uint64) uint64 { return d | s })
	}
	return nil, false
}

// fold combines the sets of xs word by word.
func (e *typeEval) fold(xs []Expr, op func(d, s uint64) uint64) ([]uint64, bool) {
	if len(xs) == 0 {
		return nil, false
	}
	dst, ok := e.eval(xs[0])
	if !ok {
		return nil, false
	}
	for _, x := range xs[1:] {
		s, ok := e.eval(x)
		if !ok {
			return nil, false
		}
		for i := range dst {
			dst[i] = op(dst[i], s[i])
		}
		e.put(s)
	}
	return dst, true
}

// typeOnlySets evaluates xs, when they are all type-only formulas over one
// typed subject, as sets of that subject's candidates; ok is false
// otherwise, and the caller solves.
func typeOnlySets(t Theory, xs ...Expr) (sets [][]uint64, ok bool) {
	var subj string
	for i, x := range xs {
		s, ok := typeSubject(x)
		if !ok || i > 0 && s != subj {
			return nil, false
		}
		subj = s
	}
	e, ok := newTypeEval(t, subj)
	if !ok {
		return nil, false
	}
	sets = make([][]uint64, len(xs))
	for i, x := range xs {
		if sets[i], ok = e.eval(x); !ok {
			return nil, false
		}
	}
	return sets, true
}

// meets reports whether some candidate is in both a and b, or in a but
// not in b when outside is set.
func meets(a, b []uint64, outside bool) bool {
	for i, w := range a {
		if outside {
			w &^= b[i]
		} else {
			w &= b[i]
		}
		if w != 0 {
			return true
		}
	}
	return false
}
