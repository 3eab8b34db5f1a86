// Package containment implements a query-containment checker for the query
// class the mapping compiler generates: unions of conjunctive blocks over
// entity sets, association sets and tables, with the condition language of
// package cond. Containment of such queries is NP-hard (the paper relies on
// this to motivate incremental compilation); the checker is sound — a true
// answer is always correct — and complete for the union-of-project-select
// and key-joined query shapes that fragments and views produce.
//
// Queries containing outer joins are first simplified; any remaining outer
// join is approximated conservatively (the left-hand query of ⊆ from above,
// the right-hand query from below), preserving soundness.
package containment

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
)

// ScanKind distinguishes block scan targets.
type ScanKind int

// Scan targets.
const (
	KTable ScanKind = iota
	KSet
	KAssoc
)

// ScanRef is one scan of a conjunctive block.
type ScanRef struct {
	Alias string
	Kind  ScanKind
	Name  string
}

// ColRef is a column of a scan.
type ColRef struct {
	Alias, Col string
}

func (c ColRef) qualified() string { return c.Alias + "." + c.Col }

// Term is a projected output: a column reference or a literal.
type Term struct {
	Lit *cqt.Literal
	Ref ColRef
}

// CQ is one conjunctive block: a set of scans joined by column equalities,
// filtered by a condition with alias-qualified atoms, projecting named
// terms.
type CQ struct {
	Scans   []ScanRef
	Eqs     [][2]ColRef
	Cond    cond.Expr
	Proj    map[string]Term
	Subject string // alias of the typed (entity-set) scan, if any
}

// approxMode selects how outer joins are approximated.
type approxMode int

const (
	exact approxMode = iota
	upper            // superset of the query (for the ⊆ left-hand side)
	lower            // subset of the query (for the ⊆ right-hand side)
)

// normalizer converts query trees into unions of conjunctive blocks,
// building only the output columns each node's parent reads: a check reads
// whole output schemas at the top of both sides, and below that a node's
// columns are needed only where a projection, a condition or a join key
// reads them.
type normalizer struct {
	cat    *cqt.Catalog
	mode   approxMode
	nextID int
}

func (n *normalizer) fresh() string {
	n.nextID++
	return "t" + strconv.Itoa(n.nextID)
}

// colSet is the set of output columns a parent reads from a node; the nil
// set reads every column.
type colSet map[string]struct{}

func (s colSet) reads(c string) bool {
	if s == nil {
		return true
	}
	_, ok := s[c]
	return ok
}

// size bounds the columns read from a node that outputs n, for sizing maps.
func (s colSet) size(n int) int {
	if s == nil {
		return n
	}
	return min(n, len(s))
}

// plus returns s with cols added; every column plus more is still every
// column.
func (s colSet) plus(cols ...string) colSet {
	if s == nil {
		return nil
	}
	out := make(colSet, len(s)+len(cols))
	for c := range s {
		out[c] = struct{}{}
	}
	for _, c := range cols {
		out[c] = struct{}{}
	}
	return out
}

// nullTerm pads an outer join's missing side. Terms are never written
// through, so every padded column shares one literal.
var nullTerm = Term{Lit: &cqt.Literal{Null: true}}

// normalize converts a query tree into a union of conjunctive blocks with
// every output column.
func (n *normalizer) normalize(e cqt.Expr) ([]CQ, error) {
	return n.norm(e, nil)
}

// norm converts e into a union of conjunctive blocks whose projections hold
// at least the columns of need that e outputs. The returned slice belongs
// to the caller; the blocks' Scans, Eqs and Proj may be shared with other
// blocks and are never written through.
func (n *normalizer) norm(e cqt.Expr, need colSet) ([]CQ, error) {
	switch v := e.(type) {
	case cqt.ScanTable:
		return n.scan(KTable, v.Table, need)
	case cqt.ScanSet:
		return n.scan(KSet, v.Set, need)
	case cqt.ScanAssoc:
		return n.scan(KAssoc, v.Assoc, need)

	case cqt.Select:
		var attrs []string
		if need != nil {
			for _, a := range cond.Atoms(v.Cond) {
				if a.Kind != cond.AtomType {
					attrs = append(attrs, a.Attr)
				}
			}
		}
		blocks, err := n.norm(v.In, need.plus(attrs...))
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
		// Every source is read, so a projection of an unknown column is
		// reported whether or not the parent reads its output.
		src := make(colSet, len(v.Cols))
		for _, pc := range v.Cols {
			if pc.Lit == nil {
				src[pc.Src] = struct{}{}
			}
		}
		blocks, err := n.norm(v.In, src)
		if err != nil {
			return nil, err
		}
		for i := range blocks {
			proj := make(map[string]Term, len(v.Cols))
			for _, pc := range v.Cols {
				if pc.Lit != nil {
					if need.reads(pc.As) {
						proj[pc.As] = Term{Lit: pc.Lit}
					}
					continue
				}
				t, ok := blocks[i].Proj[pc.Src]
				if !ok {
					return nil, fmt.Errorf("containment: projection of unknown column %q", pc.Src)
				}
				if need.reads(pc.As) {
					proj[pc.As] = t
				}
			}
			blocks[i].Proj = proj
		}
		return blocks, nil

	case cqt.Join:
		if v.Kind != cqt.Inner && v.Kind != cqt.LeftOuter && v.Kind != cqt.FullOuter {
			return nil, fmt.Errorf("containment: unknown join kind")
		}
		lneed, rneed := need, need
		if need != nil {
			lcols := make([]string, len(v.On))
			rcols := make([]string, len(v.On))
			for i, p := range v.On {
				lcols[i], rcols[i] = p[0], p[1]
			}
			lneed, rneed = need.plus(lcols...), need.plus(rcols...)
		}
		lbs, err := n.norm(v.L, lneed)
		if err != nil {
			return nil, err
		}
		rbs, err := n.norm(v.R, rneed)
		if err != nil {
			return nil, err
		}
		inner, err := innerJoin(lbs, rbs, v.On, need)
		if err != nil || v.Kind == cqt.Inner {
			return inner, err
		}
		switch n.mode {
		case lower:
			return inner, nil
		case upper:
			// The padded blocks reuse the inputs' blocks, and with them
			// their aliases: every block is reasoned about on its own.
			out, err := n.padBlocks(inner, lbs, v.R, need)
			if err != nil || v.Kind == cqt.LeftOuter {
				return out, err
			}
			return n.padBlocks(out, rbs, v.L, need)
		default:
			return nil, fmt.Errorf("containment: outer join not supported in exact mode")
		}

	case cqt.UnionAll:
		var out []CQ
		for _, in := range v.Inputs {
			bs, err := n.norm(in, need)
			if err != nil {
				return nil, err
			}
			out = append(out, bs...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("containment: unsupported expression %T", e)
}

func (n *normalizer) scan(kind ScanKind, name string, need colSet) ([]CQ, error) {
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
	proj := make(map[string]Term, need.size(len(cols)))
	for _, c := range cols {
		if need.reads(c) {
			proj[c] = Term{Ref: ColRef{Alias: alias, Col: c}}
		}
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

// addReferentialIntegrity encodes the client-side axiom that association
// ends reference existing entities: each end of an association scan is
// joined with a companion entity-set scan restricted to the end's type.
// This is what lets foreign-key preservation checks like check 3 of the
// paper's Example 7 go through. It is applied to the ⊆ left-hand side only
// (enlarging the right-hand side would be unsound).
func (n *normalizer) addReferentialIntegrity(b *CQ, assocAlias, assocName string) {
	a := n.cat.Client.Association(assocName)
	if a == nil {
		return
	}
	e1, e2 := cqt.AssocEndCols(n.cat.Client, a)
	for end := 0; end < 2; end++ {
		endType := a.End1.Type
		cols := e1
		if end == 1 {
			endType = a.End2.Type
			cols = e2
		}
		set := n.cat.Client.SetFor(endType)
		if set == nil {
			continue
		}
		companion := n.fresh()
		b.Scans = append(b.Scans, ScanRef{Alias: companion, Kind: KSet, Name: set.Name})
		for i, key := range n.cat.Client.KeyOf(endType) {
			b.Eqs = append(b.Eqs, [2]ColRef{
				{Alias: assocAlias, Col: cols[i]},
				{Alias: companion, Col: key},
			})
		}
		b.Cond = cond.NewAnd(b.Cond, cond.TypeIs{Var: companion, Type: endType})
	}
}

// innerJoin pairs every left block with every right block whose join
// columns can match, keeping the columns need reads.
func innerJoin(lbs, rbs []CQ, on [][2]string, need colSet) ([]CQ, error) {
	var out []CQ
	for _, lb := range lbs {
		for _, rb := range rbs {
			m := CQ{
				Scans: append(append(make([]ScanRef, 0, len(lb.Scans)+len(rb.Scans)), lb.Scans...), rb.Scans...),
				Eqs:   append(append(make([][2]ColRef, 0, len(lb.Eqs)+len(rb.Eqs)+len(on)), lb.Eqs...), rb.Eqs...),
				Cond:  cond.NewAnd(lb.Cond, rb.Cond),
			}
			m.Subject = lb.Subject
			if m.Subject == "" {
				m.Subject = rb.Subject
			}
			ok := true
			for _, p := range on {
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
			m.Proj = make(map[string]Term, need.size(len(lb.Proj)+len(rb.Proj)))
			for k, t := range rb.Proj {
				if need.reads(k) {
					m.Proj[k] = t
				}
			}
			for k, t := range lb.Proj {
				if need.reads(k) {
					m.Proj[k] = t
				}
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// padBlocks appends to out the "keep side, NULL-pad other" blocks of outer
// join over-approximation: each kept block with the columns need reads,
// and NULL for every read column of pad it lacks. Each copy gets its own
// Proj; its Scans and Eqs are the kept block's.
func (n *normalizer) padBlocks(out, keep []CQ, pad cqt.Expr, need colSet) ([]CQ, error) {
	padCols, err := n.cat.Cols(pad)
	if err != nil {
		return nil, err
	}
	for _, b := range keep {
		proj := make(map[string]Term, need.size(len(b.Proj)+len(padCols)))
		for k, t := range b.Proj {
			if need.reads(k) {
				proj[k] = t
			}
		}
		for _, c := range padCols {
			if _, exists := proj[c]; !exists && need.reads(c) {
				proj[c] = nullTerm
			}
		}
		b.Proj = proj
		out = append(out, b)
	}
	return out, nil
}

func litEqual(a, b *cqt.Literal) bool {
	if a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	c, ok := cond.Compare(a.Val, b.Val)
	return ok && c == 0
}

func litEqCond(r ColRef, l *cqt.Literal) (cond.Expr, bool) {
	if l.Null {
		return nil, false // join key NULL never matches
	}
	return cond.Cmp{Attr: r.qualified(), Op: cond.OpEq, Val: l.Val}, true
}

// rewriteCond rewrites a condition stated over the block's output names
// into one over qualified scan columns, folding atoms that land on
// literals.
func rewriteCond(c cond.Expr, b *CQ) (cond.Expr, bool) {
	ok := true
	out := cond.MapAtoms(c, func(e cond.Expr) cond.Expr {
		switch v := e.(type) {
		case cond.TypeIs:
			if v.Var == "" {
				if b.Subject == "" {
					// IS OF over an untyped block is false.
					return cond.False{}
				}
				v.Var = b.Subject
			}
			return v
		case cond.Null:
			t, found := b.Proj[v.Attr]
			if !found {
				ok = false
				return cond.False{}
			}
			if t.Lit != nil {
				if t.Lit.Null {
					return cond.True{}
				}
				return cond.False{}
			}
			return cond.Null{Attr: t.Ref.qualified()}
		case cond.Cmp:
			t, found := b.Proj[v.Attr]
			if !found {
				ok = false
				return cond.False{}
			}
			if t.Lit != nil {
				val, nonNull := t.Lit.Value()
				if !nonNull {
					return cond.False{}
				}
				inst := &cond.MapInstance{Vals: map[string]cond.Value{"x": val}}
				if cond.EvalOn(cond.FreeTheory, cond.Cmp{Attr: "x", Op: v.Op, Val: v.Val}, inst) {
					return cond.True{}
				}
				return cond.False{}
			}
			v.Attr = t.Ref.qualified()
			return v
		}
		return e
	})
	return out, ok
}

// bareCol strips the alias qualification.
func bareCol(q string) string {
	if i := strings.IndexByte(q, '.'); i >= 0 {
		return q[i+1:]
	}
	return q
}
