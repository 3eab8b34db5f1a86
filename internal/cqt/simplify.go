package cqt

import (
	"github.com/ormkit/incmap/internal/cond"
)

// Simplify applies cost-reducing, semantics-preserving rewrites to a query
// tree: merging stacked selections and projections, flattening unions,
// dropping identity projections, and eliminating left-outer joins whose
// right side cannot affect the projected columns. The paper notes (§6) that
// the full compiler relies on such optimizations to turn full outer joins
// into cheaper operators, and that incremental compilation produces the
// cheap forms directly; our ablation benchmark measures the effect.
func Simplify(cat *Catalog, e Expr) Expr {
	for i := 0; i < 8; i++ {
		next, changed := simplify(cat, e)
		e = next
		if !changed {
			break
		}
	}
	return e
}

func simplify(cat *Catalog, e Expr) (Expr, bool) {
	switch v := e.(type) {
	case Select:
		in, ch := simplify(cat, v.In)
		if _, isTrue := v.Cond.(cond.True); isTrue {
			return in, true
		}
		if inner, ok := in.(Select); ok {
			return Select{In: inner.In, Cond: cond.NewAnd(inner.Cond, v.Cond)}, true
		}
		return Select{In: in, Cond: v.Cond}, ch

	case Project:
		in, ch := simplify(cat, v.In)

		// Compose stacked projections.
		if inner, ok := in.(Project); ok {
			srcOf := map[string]ProjCol{}
			for _, pc := range inner.Cols {
				srcOf[pc.As] = pc
			}
			merged := make([]ProjCol, 0, len(v.Cols))
			ok := true
			for _, pc := range v.Cols {
				if pc.Lit != nil {
					merged = append(merged, pc)
					continue
				}
				base, found := srcOf[pc.Src]
				if !found {
					ok = false
					break
				}
				base.As = pc.As
				merged = append(merged, base)
			}
			if ok {
				return Project{In: inner.In, Cols: merged}, true
			}
		}

		// Eliminate a left-outer join whose right side is unused: when every
		// projected source column comes from the left input and the right
		// side is joined on (a superset of) its own key, the join neither
		// filters nor duplicates left rows.
		if j, ok := in.(Join); ok && j.Kind == LeftOuter {
			if lcols, err := cat.Cols(j.L); err == nil {
				lset := map[string]bool{}
				for _, c := range lcols {
					lset[c] = true
				}
				allLeft := true
				for _, pc := range v.Cols {
					if pc.Lit == nil && !lset[pc.Src] {
						allLeft = false
						break
					}
				}
				if allLeft && rightKeyed(cat, j) {
					return simplifyOnce(cat, Project{In: j.L, Cols: v.Cols})
				}
				// Otherwise push the projection into the left side, keeping
				// the join columns; this lets unrelated outer joins nested
				// inside the left input be eliminated recursively (the
				// unfolding simplification behind the paper's Example 7).
				needed := map[string]bool{}
				for _, pc := range v.Cols {
					if pc.Lit == nil && lset[pc.Src] {
						needed[pc.Src] = true
					}
				}
				for _, p := range j.On {
					needed[p[0]] = true
				}
				if len(needed) < len(lcols) {
					// A name the left input outputs twice (a projection's
					// outputs need not be distinct) is kept once, so the
					// pushed projection is not pushed again.
					keep := make([]ProjCol, 0, len(needed))
					for _, c := range lcols {
						if needed[c] {
							keep = append(keep, Col(c))
							needed[c] = false
						}
					}
					nl, _ := simplify(cat, Project{In: j.L, Cols: keep})
					return simplifyOnce(cat, Project{
						In:   Join{Kind: LeftOuter, L: nl, R: j.R, On: j.On},
						Cols: v.Cols,
					})
				}
			}
		}

		// Push projections through unions so joins nested inside branches
		// can be eliminated.
		if u, ok := in.(UnionAll); ok {
			inputs := make([]Expr, len(u.Inputs))
			for i, b := range u.Inputs {
				inputs[i], _ = simplify(cat, Project{In: b, Cols: v.Cols})
			}
			return UnionAll{Inputs: inputs}, true
		}

		// Drop identity projections — but only over inputs whose column
		// set is fixed by the expression itself. A scan's columns are
		// inherited from the scanned schema object, and a later SMO can
		// widen that object (AddProperty adds attributes to a set's
		// entities, AddEntity adds them for new subtypes the adapted
		// conditions select); an identity projection dropped today would
		// silently widen the view tomorrow.
		if cols, err := cat.Cols(in); err == nil && isIdentityProj(v.Cols, cols) && fixedCols(in) {
			return in, true
		}
		return Project{In: in, Cols: v.Cols}, ch

	case Join:
		l, ch1 := simplify(cat, v.L)
		r, ch2 := simplify(cat, v.R)
		return Join{Kind: v.Kind, L: l, R: r, On: v.On}, ch1 || ch2

	case UnionAll:
		var inputs []Expr
		changed := false
		for _, in := range v.Inputs {
			si, ch := simplify(cat, in)
			changed = changed || ch
			if nested, ok := si.(UnionAll); ok {
				inputs = append(inputs, nested.Inputs...)
				changed = true
				continue
			}
			// Drop inputs that are statically empty.
			if sel, ok := si.(Select); ok {
				if _, isFalse := sel.Cond.(cond.False); isFalse {
					changed = true
					continue
				}
			}
			inputs = append(inputs, si)
		}
		if len(inputs) == 1 {
			return inputs[0], true
		}
		return UnionAll{Inputs: inputs}, changed
	}
	return e, false
}

func simplifyOnce(cat *Catalog, e Expr) (Expr, bool) {
	out, _ := simplify(cat, e)
	return out, true
}

// rightKeyed reports whether the join's right input is matched on a
// superset of its own key, so each left row joins at most one right row.
func rightKeyed(cat *Catalog, j Join) bool {
	key, ok := cat.KeyCols(j.R)
	if !ok {
		return false
	}
	onRight := map[string]bool{}
	for _, p := range j.On {
		onRight[p[1]] = true
	}
	for _, k := range key {
		if !onRight[k] {
			return false
		}
	}
	return true
}

// Metrics summarizes the shape of a query tree, for the comparative study
// of incrementally vs fully compiled views suggested as future work in §6
// of the paper.
type Metrics struct {
	Nodes      int
	Scans      int
	Joins      int
	OuterJoins int
	Unions     int // union branches
}

// Measure computes tree metrics.
func Measure(e Expr) Metrics {
	var m Metrics
	var walk func(Expr)
	walk = func(x Expr) {
		m.Nodes++
		switch v := x.(type) {
		case ScanTable, ScanSet, ScanAssoc:
			m.Scans++
		case Select:
			walk(v.In)
		case Project:
			walk(v.In)
		case Join:
			m.Joins++
			if v.Kind != Inner {
				m.OuterJoins++
			}
			walk(v.L)
			walk(v.R)
		case UnionAll:
			m.Unions += len(v.Inputs)
			for _, in := range v.Inputs {
				walk(in)
			}
		}
	}
	walk(e)
	return m
}

// AnyCond reports whether any selection condition in the tree satisfies
// pred. It lets callers skip MapConds rewrites over unaffected views.
func AnyCond(e Expr, pred func(cond.Expr) bool) bool {
	switch v := e.(type) {
	case Select:
		return pred(v.Cond) || AnyCond(v.In, pred)
	case Project:
		return AnyCond(v.In, pred)
	case Join:
		return AnyCond(v.L, pred) || AnyCond(v.R, pred)
	case UnionAll:
		for _, in := range v.Inputs {
			if AnyCond(in, pred) {
				return true
			}
		}
	}
	return false
}

// MapConds rewrites every selection condition in the tree through f,
// leaving the relational structure intact. The incremental compiler uses it
// to apply the IS OF (ONLY P) and IS OF F adaptations of §3.1.2 of the
// paper to existing update views. Subtrees whose conditions f leaves
// unchanged are returned as-is, so an identity rewrite costs no
// allocations and keeps the original tree shared. (Condition identity is
// decided with ==, which hash-consing in package cond makes both safe and
// structural.)
func MapConds(e Expr, f func(cond.Expr) cond.Expr) Expr {
	out, _ := mapConds(e, f)
	return out
}

func mapConds(e Expr, f func(cond.Expr) cond.Expr) (Expr, bool) {
	switch v := e.(type) {
	case Select:
		in, inCh := mapConds(v.In, f)
		nc := f(v.Cond)
		if !inCh && nc == v.Cond {
			return e, false
		}
		return Select{In: in, Cond: nc}, true
	case Project:
		in, inCh := mapConds(v.In, f)
		if !inCh {
			return e, false
		}
		return Project{In: in, Cols: v.Cols}, true
	case Join:
		l, lCh := mapConds(v.L, f)
		r, rCh := mapConds(v.R, f)
		if !lCh && !rCh {
			return e, false
		}
		return Join{Kind: v.Kind, L: l, R: r, On: v.On}, true
	case UnionAll:
		var out []Expr
		for i, in := range v.Inputs {
			ni, ch := mapConds(in, f)
			if ch && out == nil {
				out = make([]Expr, len(v.Inputs))
				copy(out, v.Inputs[:i])
			}
			if out != nil {
				out[i] = ni
			}
		}
		if out == nil {
			return e, false
		}
		return UnionAll{Inputs: out}, true
	}
	return e, false
}

// fixedCols reports whether the expression's output columns are pinned by
// the expression itself — every path from the root to a leaf crosses an
// explicit projection — rather than inherited from a scanned schema
// object, whose column set can grow under later schema modifications.
func fixedCols(e Expr) bool {
	switch v := e.(type) {
	case Project:
		return true
	case Select:
		return fixedCols(v.In)
	case UnionAll:
		for _, in := range v.Inputs {
			if !fixedCols(in) {
				return false
			}
		}
		return true
	case Join:
		return fixedCols(v.L) && fixedCols(v.R)
	default:
		return false
	}
}

func isIdentityProj(cols []ProjCol, inCols []string) bool {
	if len(cols) != len(inCols) {
		return false
	}
	for i, pc := range cols {
		if pc.Lit != nil || pc.Src != pc.As || pc.As != inCols[i] {
			return false
		}
	}
	return true
}
