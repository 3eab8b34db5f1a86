package containment

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/obsv"
)

// Process-wide metric counters shared by every checker (full compile,
// incremental compile, tooling), resolved once.
var (
	mChecks     = obsv.Metrics().Counter(obsv.MContainments)
	mBlockPairs = obsv.Metrics().Counter(obsv.MContainmentBlockPairs)
)

// Stats counts the work a checker performed, for the experiment harness.
// The counters are updated atomically, so one checker may serve concurrent
// Contains calls (all other per-call state is local).
type Stats struct {
	// Containments is the number of Contains calls.
	Containments int64
	// BlockPairs is the number of conjunctive-block pairs compared.
	BlockPairs int64
	// Implications is the number of theory implication checks issued.
	Implications int64
	// CacheHits and CacheMisses count decisions served from the decision
	// cache and solved (zero when no cache is attached); type-only
	// decisions are neither (cond.SatCacheStats.TypeOnly).
	CacheHits   int64
	CacheMisses int64
}

// Checker decides query containment over a catalog. The zero value is not
// usable; construct with NewChecker.
type Checker struct {
	Cat *cqt.Catalog
	// Simplify controls whether query trees are simplified before
	// normalization (outer-join elimination). Disabling it forces the
	// conservative approximations and is measured by the simplifier
	// ablation benchmark.
	Simplify bool
	// Cache, when non-nil, memoizes the satisfiability and implication
	// verdicts the containment check reduces to. Sharing one cache between
	// the full compiler and the incremental compiler lets neighbourhood
	// re-validation after an SMO reuse verdicts from the original compile.
	Cache *cond.SatCache
	// Budget, when limited, bounds the work of this checker's containment
	// calls: once Stats.Containments reaches Budget.MaxContainments, or
	// the wall clock passes Start+Budget.MaxWallTime, ContainsCtx returns
	// a *fault.BudgetExceededError instead of deciding. Op labels the
	// error with the operation being validated.
	Budget fault.Budget
	// Start anchors Budget.MaxWallTime; the zero value disables the
	// wall-time limit.
	Start time.Time
	// Op names the operation for budget errors ("full compile", an SMO
	// description, ...).
	Op    string
	Stats Stats
}

// NewChecker returns a checker with simplification enabled.
func NewChecker(cat *cqt.Catalog) *Checker {
	return &Checker{Cat: cat, Simplify: true}
}

func (ch *Checker) countCache(d cond.Decision) {
	switch d {
	case cond.Cached:
		atomic.AddInt64(&ch.Stats.CacheHits, 1)
	case cond.Solved:
		atomic.AddInt64(&ch.Stats.CacheMisses, 1)
	}
}

func (ch *Checker) satisfiable(t cond.Theory, x cond.Expr) bool {
	if ch.Cache == nil {
		return cond.Satisfiable(t, x)
	}
	v, d := ch.Cache.SatisfiableHit(t, x)
	ch.countCache(d)
	return v
}

func (ch *Checker) implies(t cond.Theory, a, b cond.Expr) bool {
	if ch.Cache == nil {
		return cond.Implies(t, a, b)
	}
	v, d := ch.Cache.ImpliesHit(t, a, b)
	ch.countCache(d)
	return v
}

// Contains reports whether query a is contained in query b (a ⊆ b) on
// every instance. The answer true is always sound. A false answer means
// containment could not be established; for the query shapes the compiler
// generates the check is complete, so false is reported to the user as a
// validation failure, matching the paper's behaviour of aborting the SMO.
func (ch *Checker) Contains(a, b cqt.Expr) (bool, error) {
	return ch.ContainsCtx(context.Background(), a, b)
}

// budgetErr reports whether the checker's budget is exhausted, building
// the typed error if so. Containment is the NP-hard step of validation, so
// the budget is re-checked before every Contains call and between the
// left-side blocks of one call.
func (ch *Checker) budgetErr() *fault.BudgetExceededError {
	op := ch.Op
	if op == "" {
		op = "containment"
	}
	if ch.Budget.MaxContainments > 0 && atomic.LoadInt64(&ch.Stats.Containments) > ch.Budget.MaxContainments {
		return &fault.BudgetExceededError{
			Op:           op,
			Reason:       "containments",
			Containments: atomic.LoadInt64(&ch.Stats.Containments),
			Elapsed:      ch.elapsed(),
		}
	}
	if ch.Budget.MaxWallTime > 0 && !ch.Start.IsZero() && time.Since(ch.Start) > ch.Budget.MaxWallTime {
		return &fault.BudgetExceededError{
			Op:           op,
			Reason:       "wall time",
			Containments: atomic.LoadInt64(&ch.Stats.Containments),
			Elapsed:      ch.elapsed(),
		}
	}
	return nil
}

func (ch *Checker) elapsed() time.Duration {
	if ch.Start.IsZero() {
		return 0
	}
	return time.Since(ch.Start)
}

// ContainsCtx is Contains with cooperative cancellation and budget
// enforcement: it returns ctx.Err() once the context is cancelled and a
// *fault.BudgetExceededError once the checker's Budget is exhausted,
// checking both between the normalized blocks of the left side so a
// runaway check stops within one block's homomorphism enumeration.
//
// When the context carries a span (a validation task's, or an SMO
// application's), the check records itself as a "containment-check" child
// span labelled with its verdict and the number of block pairs compared.
func (ch *Checker) ContainsCtx(ctx context.Context, a, b cqt.Expr) (bool, error) {
	return ch.check(ctx, a, b, nil)
}

// Prenorm is the reusable right-hand side of a containment check: the
// simplify + normalize result of one query, shared across every
// ContainsPreCtx call that checks containment in that query. It is built
// once, by the first check that uses it and under that check's span. The
// blocks are never mutated after construction (the left side's aliases are
// drawn from a disjoint range), so one Prenorm may serve concurrent checks.
type Prenorm struct {
	ch     *Checker
	q      cqt.Expr
	once   sync.Once
	blocks []CQ
	err    error
}

// PrenormalizeRight prepares q for use as the right-hand (containing) side
// of ContainsPreCtx, normalized with this checker's settings. Validation
// passes that check many queries against the same view — every foreign key
// referencing one table, say — pay q's simplification and normalization
// once instead of once per check.
func (ch *Checker) PrenormalizeRight(q cqt.Expr) *Prenorm {
	return &Prenorm{ch: ch, q: q}
}

// get returns the right side's blocks, normalizing them on first use.
func (p *Prenorm) get() ([]CQ, error) {
	p.once.Do(func() {
		q := p.q
		if p.ch.Simplify {
			q = cqt.Simplify(p.ch.Cat, q)
		}
		nb := &normalizer{cat: p.ch.Cat, mode: lower, nextID: 1 << 20}
		p.blocks, p.err = nb.normalize(q)
		p.q = nil
	})
	return p.blocks, p.err
}

// ContainsPreCtx is ContainsCtx with a prenormalized right-hand side; the
// verdict and error are those of ContainsCtx against the query the Prenorm
// was built from.
func (ch *Checker) ContainsPreCtx(ctx context.Context, a cqt.Expr, pre *Prenorm) (bool, error) {
	return ch.check(ctx, a, nil, pre)
}

// check is the one body of ContainsCtx and ContainsPreCtx. It opens the
// "containment-check" span, checks the context, passes the containment
// fault site, counts the check, enforces the budget and normalizes the
// left side a. The right side is pre, or b prenormalized when pre is nil.
func (ch *Checker) check(ctx context.Context, a, b cqt.Expr, pre *Prenorm) (contained bool, err error) {
	sp := obsv.SpanFromContext(ctx).Child("containment-check")
	pairs0 := atomic.LoadInt64(&ch.Stats.BlockPairs)
	defer func() {
		switch {
		case err != nil:
			sp.End(fault.Outcome(err))
		case contained:
			sp.End(obsv.OutcomeOK)
		default:
			sp.End("not-contained",
				obsv.String("block_pairs", strconv.FormatInt(atomic.LoadInt64(&ch.Stats.BlockPairs)-pairs0, 10)))
		}
	}()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if err := faultinject.At(faultinject.SiteContainment); err != nil {
		return false, err
	}
	atomic.AddInt64(&ch.Stats.Containments, 1)
	mChecks.Add(1)
	if be := ch.budgetErr(); be != nil {
		return false, be
	}
	if ch.Simplify {
		a = cqt.Simplify(ch.Cat, a)
	}
	na := &normalizer{cat: ch.Cat, mode: upper}
	A, err := na.normalize(a)
	if err != nil {
		return false, err
	}
	if pre == nil {
		pre = ch.PrenormalizeRight(b)
	}
	B, err := pre.get()
	if err != nil {
		return false, err
	}
	return ch.containsBlocks(ctx, A, B)
}

// containsBlocks runs the block-level containment check: every satisfiable
// left block must be covered by the disjunction of its homomorphism
// requirements into the right blocks.
func (ch *Checker) containsBlocks(ctx context.Context, A, B []CQ) (bool, error) {
	for i := range A {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if be := ch.budgetErr(); be != nil {
			return false, be
		}
		ab := &A[i]
		th := ch.theoryFor(ab)
		cls := newClasses(ab)
		acond := cls.rewrite(ab.reasoningCond())
		if !ch.satisfiable(th, acond) {
			continue // empty block is contained in anything
		}
		// A block of the left side may be covered jointly by several blocks
		// of the right side (e.g. IS OF Person split into ONLY Person ∨
		// derived types), so collect the requirement of every valid
		// homomorphism into every right block and check that the left
		// condition implies their disjunction.
		var coverage []cond.Expr
		for j := range B {
			atomic.AddInt64(&ch.Stats.BlockPairs, 1)
			mBlockPairs.Add(1)
			coverage = append(coverage, ch.homRequirements(ab, &B[j], cls)...)
		}
		atomic.AddInt64(&ch.Stats.Implications, 1)
		if !ch.implies(th, acond, cond.NewOr(coverage...)) {
			return false, nil
		}
	}
	return true, nil
}

// reasoningCond is the block's condition strengthened with the non-null
// facts implied by its join equalities.
func (b *CQ) reasoningCond() cond.Expr {
	parts := []cond.Expr{b.Cond}
	for _, eq := range b.Eqs {
		parts = append(parts,
			cond.NotNull(eq[0].qualified()),
			cond.NotNull(eq[1].qualified()))
	}
	return cond.NewAnd(parts...)
}

// homRequirements enumerates the scan homomorphisms from block b into block
// a and returns, for each structurally valid one, the condition a's rows
// must satisfy for b to produce the same output row.
func (ch *Checker) homRequirements(a, b *CQ, cls *classes) []cond.Expr {
	// Output schemas must agree.
	if len(a.Proj) != len(b.Proj) {
		return nil
	}
	for name := range b.Proj {
		if _, ok := a.Proj[name]; !ok {
			return nil
		}
	}
	var out []cond.Expr
	h := map[string]string{}
	var try func(i int)
	try = func(i int) {
		if i == len(b.Scans) {
			if req, ok := ch.homRequirement(a, b, cls, h); ok {
				out = append(out, req)
			}
			return
		}
		bs := b.Scans[i]
		for _, as := range a.Scans {
			if as.Kind != bs.Kind || as.Name != bs.Name {
				continue
			}
			h[bs.Alias] = as.Alias
			try(i + 1)
		}
		delete(h, bs.Alias)
	}
	try(0)
	return out
}

// homRequirement computes the requirement of one candidate homomorphism:
// b's join equalities, projection compatibility, and b's condition
// transported into a's aliases. ok is false when the homomorphism is
// structurally impossible regardless of conditions.
func (ch *Checker) homRequirement(a, b *CQ, cls *classes, h map[string]string) (cond.Expr, bool) {
	mapRef := func(r ColRef) ColRef { return ColRef{Alias: h[r.Alias], Col: r.Col} }

	var req []cond.Expr

	// b's join equalities must hold on a's rows.
	for _, eq := range b.Eqs {
		x, y := mapRef(eq[0]), mapRef(eq[1])
		if !cls.sameClass(x, y) {
			return nil, false
		}
		req = append(req, cond.NotNull(cls.rep(x.qualified())))
	}

	// Projection compatibility.
	for name, tb := range b.Proj {
		ta := a.Proj[name]
		switch {
		case tb.Lit != nil && ta.Lit != nil:
			if !litEqual(tb.Lit, ta.Lit) {
				return nil, false
			}
		case tb.Lit != nil && ta.Lit == nil:
			r := cls.rep(ta.Ref.qualified())
			if tb.Lit.Null {
				req = append(req, cond.Null{Attr: r})
			} else {
				req = append(req, cond.Cmp{Attr: r, Op: cond.OpEq, Val: tb.Lit.Val})
			}
		case tb.Lit == nil && ta.Lit == nil:
			hr := mapRef(tb.Ref)
			if !cls.sameClass(hr, ta.Ref) {
				return nil, false
			}
		default: // tb ref, ta literal
			hr := cls.rep(mapRef(tb.Ref).qualified())
			if ta.Lit.Null {
				req = append(req, cond.Null{Attr: hr})
			} else {
				req = append(req, cond.Cmp{Attr: hr, Op: cond.OpEq, Val: ta.Lit.Val})
			}
		}
	}

	// b's condition, transported through h and a's equality classes.
	req = append(req, cls.rewrite(transport(b.Cond, h)))
	return cond.NewAnd(req...), true
}

// transport rewrites b-side atoms through the homomorphism.
func transport(c cond.Expr, h map[string]string) cond.Expr {
	mapAttr := func(q string) string {
		alias := q
		col := ""
		if i := indexDot(q); i >= 0 {
			alias, col = q[:i], q[i+1:]
		}
		if na, ok := h[alias]; ok {
			return na + "." + col
		}
		return q
	}
	return cond.MapAtoms(c, func(e cond.Expr) cond.Expr {
		switch v := e.(type) {
		case cond.TypeIs:
			if na, ok := h[v.Var]; ok {
				v.Var = na
			}
			return v
		case cond.Null:
			v.Attr = mapAttr(v.Attr)
			return v
		case cond.Cmp:
			v.Attr = mapAttr(v.Attr)
			return v
		}
		return e
	})
}

func indexDot(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// classes is a union-find over a block's column references, seeded by its
// join equalities, used to canonicalize conditions and compare references.
type classes struct {
	parent map[string]string
	pos    map[string]int // each alias's position in the block's scans
}

func newClasses(b *CQ) *classes {
	c := &classes{parent: map[string]string{}, pos: make(map[string]int, len(b.Scans))}
	for i, s := range b.Scans {
		c.pos[s.Alias] = i
	}
	for _, eq := range b.Eqs {
		c.union(eq[0].qualified(), eq[1].qualified())
	}
	return c
}

func (c *classes) find(x string) string {
	p, ok := c.parent[x]
	if !ok || p == x {
		return x
	}
	r := c.find(p)
	c.parent[x] = r
	return r
}

func (c *classes) union(x, y string) {
	rx, ry := c.find(x), c.find(y)
	if rx != ry {
		// The representative's domain and nullability stand for the whole
		// class, so it is chosen by scan position, then column name: a
		// verdict must not depend on how the normalizer numbered the
		// aliases.
		if c.before(rx, ry) {
			c.parent[ry] = rx
		} else {
			c.parent[rx] = ry
		}
	}
}

// before orders qualified column references by their alias's scan
// position, then by column name.
func (c *classes) before(x, y string) bool {
	i, j := indexDot(x), indexDot(y)
	if px, py := c.pos[x[:i]], c.pos[y[:j]]; px != py {
		return px < py
	}
	return x[i+1:] < y[j+1:]
}

func (c *classes) rep(q string) string { return c.find(q) }

func (c *classes) sameClass(x, y ColRef) bool {
	return c.find(x.qualified()) == c.find(y.qualified())
}

// rewrite canonicalizes a condition's attribute references to class
// representatives so that facts about joined columns combine.
func (c *classes) rewrite(e cond.Expr) cond.Expr {
	return cond.MapAtoms(e, func(x cond.Expr) cond.Expr {
		switch v := x.(type) {
		case cond.Null:
			v.Attr = c.rep(v.Attr)
			return v
		case cond.Cmp:
			v.Attr = c.rep(v.Attr)
			return v
		}
		return x
	})
}

// theoryFor builds the reasoning theory for one block: each alias's
// concrete types and attribute domains come from the scanned set or table.
func (ch *Checker) theoryFor(b *CQ) cond.Theory {
	scans := map[string]ScanRef{}
	for _, s := range b.Scans {
		scans[s.Alias] = s
	}
	return &blockTheory{cat: ch.Cat, scans: scans}
}

type blockTheory struct {
	cat   *cqt.Catalog
	scans map[string]ScanRef
}

func (t *blockTheory) ConcreteTypes(subject string) []string {
	s, ok := t.scans[subject]
	if !ok || s.Kind != KSet {
		return nil
	}
	set := t.cat.Client.Set(s.Name)
	if set == nil {
		return nil
	}
	return t.cat.Client.ConcreteIn(set.Type)
}

func (t *blockTheory) IsSubtype(sub, typ string) bool {
	return t.cat.Client.IsSubtype(sub, typ)
}

func (t *blockTheory) Domain(attr string) (cond.Domain, bool) {
	s, col, ok := t.resolve(attr)
	if !ok {
		return cond.Domain{}, false
	}
	switch s.Kind {
	case KTable:
		tab := t.cat.Store.Table(s.Name)
		if tab == nil {
			return cond.Domain{}, false
		}
		c, ok := tab.Col(col)
		if !ok {
			return cond.Domain{}, false
		}
		return c.Domain(), true
	case KSet:
		set := t.cat.Client.Set(s.Name)
		if set == nil {
			return cond.Domain{}, false
		}
		if a, ok := t.setAttr(set.Type, col); ok {
			return a, true
		}
		return cond.Domain{}, false
	case KAssoc:
		if d, _, ok := t.assocCol(s.Name, col); ok {
			return d, true
		}
	}
	return cond.Domain{}, false
}

func (t *blockTheory) Nullable(attr string) bool {
	s, col, ok := t.resolve(attr)
	if !ok {
		return true
	}
	switch s.Kind {
	case KTable:
		tab := t.cat.Store.Table(s.Name)
		if tab == nil {
			return true
		}
		c, ok := tab.Col(col)
		if !ok {
			return true
		}
		return c.Nullable
	case KSet:
		set := t.cat.Client.Set(s.Name)
		if set == nil {
			return true
		}
		// An attribute of a set scan is NULL when the row's entity type
		// lacks it, even if declared non-nullable.
		declared := false
		declaredNullable := false
		for _, ty := range t.cat.Client.ConcreteIn(set.Type) {
			a, ok := t.cat.Client.Attr(ty, col)
			if ok {
				declared = true
				declaredNullable = declaredNullable || a.Nullable
			} else {
				return true
			}
		}
		if !declared {
			return true
		}
		return declaredNullable
	case KAssoc:
		if _, nullable, ok := t.assocCol(s.Name, col); ok {
			return nullable
		}
	}
	return true
}

func (t *blockTheory) HasAttr(concreteType, attr string) bool {
	return t.cat.Client.HasAttr(concreteType, attr)
}

func (t *blockTheory) resolve(attr string) (ScanRef, string, bool) {
	i := indexDot(attr)
	if i < 0 {
		return ScanRef{}, "", false
	}
	s, ok := t.scans[attr[:i]]
	return s, attr[i+1:], ok
}

func (t *blockTheory) setAttr(rootType, attr string) (cond.Domain, bool) {
	if a, ok := t.cat.Client.Attr(rootType, attr); ok {
		return a.Domain(), true
	}
	for _, ty := range t.cat.Client.Descendants(rootType) {
		if a, ok := t.cat.Client.Attr(ty, attr); ok {
			return a.Domain(), true
		}
	}
	return cond.Domain{}, false
}

func (t *blockTheory) assocCol(assoc, col string) (cond.Domain, bool, bool) {
	a := t.cat.Client.Association(assoc)
	if a == nil {
		return cond.Domain{}, false, false
	}
	e1, e2 := cqt.AssocEndCols(t.cat.Client, a)
	for i, c := range e1 {
		if c == col {
			attr, _ := t.cat.Client.Attr(a.End1.Type, t.cat.Client.KeyOf(a.End1.Type)[i])
			return attr.Domain(), false, true
		}
	}
	for i, c := range e2 {
		if c == col {
			attr, _ := t.cat.Client.Attr(a.End2.Type, t.cat.Client.KeyOf(a.End2.Type)[i])
			return attr.Domain(), false, true
		}
	}
	return cond.Domain{}, false, false
}
