package containment

import (
	"fmt"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
)

// refNormalizer is the test oracle for the production normalizer: the
// normalizer before column pruning, kept verbatim. Every node builds every
// column, and an upper-mode outer join normalizes its left input once for
// the inner blocks and again for the padded ones (its right input too, for
// a full outer join). The production normalizer must produce the same
// number of blocks, in the same order, with the same verdicts and errors.
type refNormalizer struct {
	normalizer
	inexact bool // an approximation was actually applied
}

// refBlocks normalizes the two sides of a containment check as
// Checker.Contains does, with the oracle: a simplified, upper-mode left side
// and a simplified, lower-mode right side drawn from a disjoint alias range.
func (ch *Checker) refBlocks(a, b cqt.Expr) (A, B []CQ, err error) {
	if ch.Simplify {
		a = cqt.Simplify(ch.Cat, a)
		b = cqt.Simplify(ch.Cat, b)
	}
	na := &refNormalizer{normalizer: normalizer{cat: ch.Cat, mode: upper}}
	if A, err = na.normalize(a); err != nil {
		return nil, nil, err
	}
	nb := &refNormalizer{normalizer: normalizer{cat: ch.Cat, mode: lower, nextID: 1 << 20}}
	if B, err = nb.normalize(b); err != nil {
		return nil, nil, err
	}
	return A, B, nil
}

// normalize converts a query tree into a union of conjunctive blocks.
func (n *refNormalizer) normalize(e cqt.Expr) ([]CQ, error) {
	switch v := e.(type) {
	case cqt.ScanTable:
		return n.scan(KTable, v.Table)
	case cqt.ScanSet:
		return n.scan(KSet, v.Set)
	case cqt.ScanAssoc:
		return n.scan(KAssoc, v.Assoc)

	case cqt.Select:
		blocks, err := n.normalize(v.In)
		if err != nil {
			return nil, err
		}
		out := blocks[:0]
		for _, b := range blocks {
			c, ok := rewriteCond(v.Cond, &b)
			if !ok {
				return nil, fmt.Errorf("containment: cannot rewrite condition %v over block", v.Cond)
			}
			b.Cond = cond.NewAnd(b.Cond, c)
			if _, isFalse := b.Cond.(cond.False); isFalse {
				continue
			}
			out = append(out, b)
		}
		return out, nil

	case cqt.Project:
		blocks, err := n.normalize(v.In)
		if err != nil {
			return nil, err
		}
		for i := range blocks {
			proj := make(map[string]Term, len(v.Cols))
			for _, pc := range v.Cols {
				if pc.Lit != nil {
					proj[pc.As] = Term{Lit: pc.Lit}
					continue
				}
				t, ok := blocks[i].Proj[pc.Src]
				if !ok {
					return nil, fmt.Errorf("containment: projection of unknown column %q", pc.Src)
				}
				proj[pc.As] = t
			}
			blocks[i].Proj = proj
		}
		return blocks, nil

	case cqt.Join:
		switch v.Kind {
		case cqt.Inner:
			return n.innerJoin(v)
		case cqt.LeftOuter:
			inner, err := n.innerJoin(cqt.Join{Kind: cqt.Inner, L: v.L, R: v.R, On: v.On})
			if err != nil {
				return nil, err
			}
			switch n.mode {
			case lower:
				n.inexact = true
				return inner, nil
			case upper:
				n.inexact = true
				padded, err := n.padBlocks(v.L, v.R)
				if err != nil {
					return nil, err
				}
				return append(inner, padded...), nil
			default:
				return nil, fmt.Errorf("containment: outer join not supported in exact mode")
			}
		case cqt.FullOuter:
			inner, err := n.innerJoin(cqt.Join{Kind: cqt.Inner, L: v.L, R: v.R, On: v.On})
			if err != nil {
				return nil, err
			}
			switch n.mode {
			case lower:
				n.inexact = true
				return inner, nil
			case upper:
				n.inexact = true
				lp, err := n.padBlocks(v.L, v.R)
				if err != nil {
					return nil, err
				}
				rp, err := n.padBlocks(v.R, v.L)
				if err != nil {
					return nil, err
				}
				return append(append(inner, lp...), rp...), nil
			default:
				return nil, fmt.Errorf("containment: outer join not supported in exact mode")
			}
		}
		return nil, fmt.Errorf("containment: unknown join kind")

	case cqt.UnionAll:
		var out []CQ
		for _, in := range v.Inputs {
			bs, err := n.normalize(in)
			if err != nil {
				return nil, err
			}
			out = append(out, bs...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("containment: unsupported expression %T", e)
}

func (n *refNormalizer) scan(kind ScanKind, name string) ([]CQ, error) {
	var scanExpr cqt.Expr
	switch kind {
	case KTable:
		scanExpr = cqt.ScanTable{Table: name}
	case KSet:
		scanExpr = cqt.ScanSet{Set: name}
	case KAssoc:
		scanExpr = cqt.ScanAssoc{Assoc: name}
	}
	cols, err := n.cat.Cols(scanExpr)
	if err != nil {
		return nil, err
	}
	alias := n.fresh()
	proj := make(map[string]Term, len(cols))
	for _, c := range cols {
		proj[c] = Term{Ref: ColRef{Alias: alias, Col: c}}
	}
	b := CQ{
		Scans: []ScanRef{{Alias: alias, Kind: kind, Name: name}},
		Cond:  cond.True{},
		Proj:  proj,
	}
	if kind == KSet {
		b.Subject = alias
	}
	if kind == KAssoc && n.mode == upper {
		n.addReferentialIntegrity(&b, alias, name)
	}
	return []CQ{b}, nil
}

func (n *refNormalizer) innerJoin(v cqt.Join) ([]CQ, error) {
	lbs, err := n.normalize(v.L)
	if err != nil {
		return nil, err
	}
	rbs, err := n.normalize(v.R)
	if err != nil {
		return nil, err
	}
	var out []CQ
	for _, lb := range lbs {
		for _, rb := range rbs {
			m := CQ{
				Scans: append(append([]ScanRef{}, lb.Scans...), rb.Scans...),
				Eqs:   append(append([][2]ColRef{}, lb.Eqs...), rb.Eqs...),
				Cond:  cond.NewAnd(lb.Cond, rb.Cond),
				Proj:  map[string]Term{},
			}
			m.Subject = lb.Subject
			if m.Subject == "" {
				m.Subject = rb.Subject
			}
			ok := true
			for _, p := range v.On {
				lt, lok := lb.Proj[p[0]]
				rt, rok := rb.Proj[p[1]]
				if !lok || !rok {
					return nil, fmt.Errorf("containment: join column %v/%v not projected", p[0], p[1])
				}
				switch {
				case lt.Lit == nil && rt.Lit == nil:
					m.Eqs = append(m.Eqs, [2]ColRef{lt.Ref, rt.Ref})
				case lt.Lit != nil && rt.Lit == nil:
					c, o := litEqCond(rt.Ref, lt.Lit)
					if !o {
						ok = false
					} else {
						m.Cond = cond.NewAnd(m.Cond, c)
					}
				case lt.Lit == nil && rt.Lit != nil:
					c, o := litEqCond(lt.Ref, rt.Lit)
					if !o {
						ok = false
					} else {
						m.Cond = cond.NewAnd(m.Cond, c)
					}
				default:
					if !litEqual(lt.Lit, rt.Lit) || lt.Lit.Null {
						ok = false // NULL = NULL is false
					}
				}
			}
			if !ok {
				continue
			}
			// Merge projections, left side winning on shared names (the
			// evaluator requires shared names to be join-equated).
			for k, t := range rb.Proj {
				m.Proj[k] = t
			}
			for k, t := range lb.Proj {
				m.Proj[k] = t
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// padBlocks builds the "keep side, NULL-pad other" blocks used in outer
// join over-approximation.
func (n *refNormalizer) padBlocks(keep, pad cqt.Expr) ([]CQ, error) {
	kbs, err := n.normalize(keep)
	if err != nil {
		return nil, err
	}
	padCols, err := n.cat.Cols(pad)
	if err != nil {
		return nil, err
	}
	for i := range kbs {
		for _, c := range padCols {
			if _, exists := kbs[i].Proj[c]; !exists {
				kbs[i].Proj[c] = Term{Lit: &cqt.Literal{Null: true}}
			}
		}
	}
	return kbs, nil
}
