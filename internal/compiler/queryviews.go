// Package compiler implements full mapping compilation: the baseline the
// paper's incremental compiler is measured against. Following Melnik et
// al. (TODS 2008) and §2.2 of Bernstein et al. (SIGMOD 2013), compilation
// validates that the declarative mapping roundtrips and generates query
// views (client types as views over tables) and update views (tables as
// views over the client schema).
//
// The computational profile matches the paper's: per-table and per-set
// roundtrip analysis enumerates the satisfiable cells of the condition
// space, which is exponential in the number of interacting condition atoms
// (the Figure 4 blow-up for hub-and-rim models mapped TPH), and integrity
// constraints are checked with NP-hard query containment.
package compiler

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
)

// Process-wide metric counters, resolved once so the per-event cost is a
// single striped atomic add. The intern-table gauge is registered here
// because every compilation path loads this package.
var (
	mCompiles     = obsv.Metrics().Counter(obsv.MCompiles)
	mCells        = obsv.Metrics().Counter(obsv.MCompileCells)
	mTasks        = obsv.Metrics().Counter(obsv.MCompileTasks)
	mCacheHits    = obsv.Metrics().Counter(obsv.MCompileCacheHits)
	mCacheMisses  = obsv.Metrics().Counter(obsv.MCompileCacheMisses)
	mCancelled    = obsv.Metrics().Counter(obsv.MCompileCancelled)
	mBudget       = obsv.Metrics().Counter(obsv.MCompileBudget)
	mPanics       = obsv.Metrics().Counter(obsv.MCompilePanics)
	mContainments = obsv.Metrics().Counter(obsv.MCompileContainments)
)

func init() {
	obsv.RegisterGauge(obsv.MInternSize, cond.InternStats)
	obsv.RegisterGauge(obsv.MInternEvictions, cond.InternEvictions)
	// The prover counters live in cond (which cannot import obsv) and are
	// sampled as gauges at snapshot time.
	obsv.RegisterGauge(obsv.MSatPropagations, func() int64 { return cond.SolverTotals().Propagations })
	obsv.RegisterGauge(obsv.MSatConflicts, func() int64 { return cond.SolverTotals().Conflicts })
	obsv.RegisterGauge(obsv.MSatLearned, func() int64 { return cond.SolverTotals().Learned })
	obsv.RegisterGauge(obsv.MSatBackjumps, func() int64 { return cond.SolverTotals().Backjumps })
	obsv.RegisterGauge(obsv.MSatLemmaHits, func() int64 { return cond.SolverTotals().LemmaHits })
	obsv.RegisterGauge(obsv.MSatLemmasStored, func() int64 { return cond.SolverTotals().LemmasStored })
}

// Options tunes the compiler; the zero value is the standard configuration.
type Options struct {
	// NoSimplify disables query-tree simplification of generated views and
	// of containment inputs (the simplifier ablation).
	NoSimplify bool
	// NaiveCells turns enumeration-engine pruning off (the cell-pruning
	// ablation): validation visits all 2^n boolean assignments and checks
	// each with the engine's cond.ConsistentAssignment.
	NaiveCells bool
	// Parallelism is the number of validation workers. 0 means
	// runtime.GOMAXPROCS(0); 1 runs the exact sequential algorithm. Any
	// value produces the same views, the same first validation error, and
	// the same error text as the sequential run: the cell spaces and
	// foreign-key checks are partitioned into ordered tasks and the error
	// of the lowest-ordered failing task wins.
	Parallelism int
	// SatCache, when non-nil, memoizes satisfiability/implication verdicts
	// across compilations. When nil each compilation uses a private cache,
	// which still deduplicates the (heavily repetitive) queries within one
	// compile.
	SatCache *cond.SatCache
	// Budget bounds the validation work of one compilation. When a limit
	// is reached, CompileCtx returns a *fault.BudgetExceededError carrying
	// the partial Stats, which callers can distinguish from a validation
	// failure (invalid mapping) and respond to — e.g. by retrying with a
	// larger budget or queueing a full recompilation.
	Budget fault.Budget
	// Tracer, when non-nil, records the compilation as a hierarchical span
	// tree (Compile → Validate → span-worker → containment-check). When nil
	// the process-wide tracer installed with obsv.SetDefault is used;
	// resolving it costs one atomic load per compilation, and with no
	// tracer installed anywhere no spans are created at all.
	Tracer *obsv.Tracer
}

// Stats reports the work a compilation performed. Counters are plain int64s
// updated atomically, so a Stats value can be copied freely once the
// compilation has finished.
type Stats struct {
	CellsVisited   int64
	Implications   int64
	Containments   int64
	EquivalenceOps int64
	// CacheHits and CacheMisses count this compilation's decisions (view
	// assembly, validation, and containment checks) served from the
	// satisfiability cache and solved; type-only decisions are neither
	// (cond.SatCacheStats.TypeOnly).
	CacheHits   int64
	CacheMisses int64
	// Workers is the validation worker count the compilation ran with.
	Workers int64
	// Cancelled counts compilations stopped by context cancellation or
	// deadline expiry; PanicsRecovered counts worker panics recovered into
	// typed errors instead of crashing the process. Both are merged
	// atomically across workers.
	Cancelled       int64
	PanicsRecovered int64
}

// Compiler compiles mappings into views.
type Compiler struct {
	Opts  Options
	Stats Stats

	cache *cond.SatCache
	// start anchors the wall-time budget; set at CompileCtx entry.
	start time.Time
	// budgetErr records the first budget error a validation task surfaced
	// (the containment checker builds richer errors than the watcher).
	budgetErr *fault.BudgetExceededError
	// tr is the resolved tracer (nil when tracing is off) and root the
	// in-flight compilation's root span; both are set at CompileCtx entry.
	tr   *obsv.Tracer
	root *obsv.Span
}

// New returns a compiler with default options.
func New() *Compiler { return &Compiler{} }

// workers resolves Options.Parallelism.
func (c *Compiler) workers() int {
	if c.Opts.Parallelism > 0 {
		return c.Opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// satCache resolves the decision cache: the shared one from Options, or a
// lazily created private one.
func (c *Compiler) satCache() *cond.SatCache {
	if c.cache == nil {
		if c.Opts.SatCache != nil {
			c.cache = c.Opts.SatCache
		} else {
			c.cache = cond.NewSatCache()
		}
	}
	return c.cache
}

func (c *Compiler) addEquivalenceOp() { atomic.AddInt64(&c.Stats.EquivalenceOps, 1) }

func (c *Compiler) countCache(d cond.Decision) {
	switch d {
	case cond.Cached:
		atomic.AddInt64(&c.Stats.CacheHits, 1)
		mCacheHits.Add(1)
	case cond.Solved:
		atomic.AddInt64(&c.Stats.CacheMisses, 1)
		mCacheMisses.Add(1)
	}
}

// outcome refines the generic fault classification with the compiler's
// validation verdict: a *ValidationError means the mapping is invalid, a
// different label than an infrastructure error.
func outcome(err error) string {
	var ve *ValidationError
	if errors.As(err, &ve) {
		return obsv.OutcomeInvalid
	}
	return fault.Outcome(err)
}

// satisfiable, implies, equivalent and disjoint are the compiler's
// cache-backed decision procedures.
func (c *Compiler) satisfiable(t cond.Theory, x cond.Expr) bool {
	v, d := c.satCache().SatisfiableHit(t, x)
	c.countCache(d)
	return v
}

func (c *Compiler) implies(t cond.Theory, a, b cond.Expr) bool {
	v, d := c.satCache().ImpliesHit(t, a, b)
	c.countCache(d)
	return v
}

func (c *Compiler) equivalent(t cond.Theory, a, b cond.Expr) bool {
	return c.implies(t, a, b) && c.implies(t, b, a)
}

func (c *Compiler) disjoint(t cond.Theory, a, b cond.Expr) bool {
	v, d := c.satCache().DisjointHit(t, a, b)
	c.countCache(d)
	return v
}

// Compile validates the mapping and generates its query and update views.
// A validation failure returns an error describing the first violated
// condition; the mapping is then not valid (it does not roundtrip).
func (c *Compiler) Compile(m *frag.Mapping) (*frag.Views, error) {
	return c.CompileCtx(context.Background(), m)
}

// CompileCtx is Compile with cooperative cancellation and budget
// enforcement. Cancellation is observed between view generations, between
// validation tasks and — inside the exponential cell walks — within one
// cell, so a timed-out or user-cancelled compile stops promptly and
// returns ctx.Err() deterministically. When Options.Budget is limited, a
// compilation that exhausts it returns a *fault.BudgetExceededError
// carrying the partial work counters; both outcomes are distinguishable
// from a validation failure, which reports the mapping as invalid.
func (c *Compiler) CompileCtx(ctx context.Context, m *frag.Mapping) (views *frag.Views, err error) {
	if err := m.CheckWellFormed(); err != nil {
		return nil, err
	}
	c.start = time.Now()
	c.tr = obsv.Resolve(c.Opts.Tracer)
	mCompiles.Add(1)
	c.root = c.tr.SpanCtx(ctx, "Compile",
		obsv.String("workers", strconv.Itoa(c.workers())),
		obsv.String("tables", strconv.Itoa(len(m.MappedTables()))),
		obsv.String("fragments", strconv.Itoa(len(m.Frags))))
	defer func() { c.root.End(outcome(err)) }()
	views = frag.NewViews()
	cat := m.Catalog()
	c.satCache()
	c.Stats.Workers = int64(c.workers())

	checkCtx := func() error {
		if err := ctx.Err(); err != nil {
			atomic.AddInt64(&c.Stats.Cancelled, 1)
			mCancelled.Add(1)
			return err
		}
		return nil
	}
	if err := checkCtx(); err != nil {
		return nil, err
	}

	// Update views come first: validation issues containment checks over
	// them.
	err = c.phase("update-views", func() error {
		for _, tn := range m.MappedTables() {
			if err := checkCtx(); err != nil {
				return err
			}
			v, err := c.updateView(m, tn)
			if err != nil {
				return fmt.Errorf("update view for %s: %w", tn, err)
			}
			if !c.Opts.NoSimplify {
				v.Q = cqt.Simplify(cat, v.Q)
			}
			views.Update[tn] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := c.validate(ctx, m, views); err != nil {
		return nil, err
	}

	err = c.phase("query-views", func() error {
		for _, set := range m.Client.Sets() {
			if len(m.FragsOnSet(set.Name)) == 0 {
				continue
			}
			types := append([]string{set.Type}, m.Client.Descendants(set.Type)...)
			for _, ty := range types {
				if err := checkCtx(); err != nil {
					return err
				}
				v, err := c.queryView(m, set.Name, ty)
				if err != nil {
					return fmt.Errorf("query view for %s: %w", ty, err)
				}
				if !c.Opts.NoSimplify {
					v.Q = cqt.Simplify(cat, v.Q)
				}
				views.Query[ty] = v
			}
		}
		for _, a := range m.Client.Associations() {
			f := m.FragForAssoc(a.Name)
			if f == nil {
				continue
			}
			views.Assoc[a.Name] = assocQueryView(m, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return views, nil
}

// phase runs fn under a child span of the compilation root, labelling the
// span with fn's verdict.
func (c *Compiler) phase(name string, fn func() error) error {
	sp := c.root.Child(name)
	err := fn()
	sp.End(outcome(err))
	return err
}

// Assembly builds the query reconstructing entities of exactly the given
// concrete type from the current fragments. It is exported for the
// incremental compiler, which uses it when an SMO (such as AddEntityPart)
// needs a freshly assembled base query for the new type.
func (c *Compiler) Assembly(m *frag.Mapping, setName, ty string) (cqt.Expr, error) {
	q, _, err := c.assembly(m, setName, ty)
	return q, err
}

// QueryView is the exported form of queryView, used by the incremental
// compiler to regenerate the views of the types in an SMO's neighbourhood
// without a full compilation.
func (c *Compiler) QueryView(m *frag.Mapping, setName, ty string) (*cqt.View, error) {
	return c.queryView(m, setName, ty)
}

// UpdateView is the exported form of updateView, used by the incremental
// compiler to regenerate a single affected table's update view.
func (c *Compiler) UpdateView(m *frag.Mapping, table string) (*cqt.View, error) {
	return c.updateView(m, table)
}

// typeFlag names the provenance flag column for a type and typeTag the
// union discriminant column of generated query views.
const typeTag = "__type"

func typeFlag(ty string) string { return "__is_" + ty }

// fragTableQuery builds π_{f(α) AS α}(σ_χ(T)) for a fragment, optionally
// restricted to a subset of its attributes.
func fragTableQuery(f *frag.Fragment, attrs []string) cqt.Expr {
	if attrs == nil {
		attrs = f.Attrs
	}
	cols := make([]cqt.ProjCol, 0, len(attrs))
	for _, a := range attrs {
		cols = append(cols, cqt.ColAs(f.ColOf[a], a))
	}
	return cqt.Project{
		In:   cqt.Select{In: cqt.ScanTable{Table: f.Table}, Cond: f.StoreCond},
		Cols: cols,
	}
}

// applicable reports whether a fragment's client condition can hold for
// entities of exactly the given concrete type.
func (c *Compiler) applicable(m *frag.Mapping, setName string, f *frag.Fragment, ty string) bool {
	atomic.AddInt64(&c.Stats.EquivalenceOps, 1)
	th := m.Client.TheoryFor(setName)
	return c.satisfiable(th, cond.NewAnd(f.ClientCond, cond.TypeIs{Type: ty, Only: true}))
}

// assembly builds the query that reconstructs the attribute values of
// entities of exactly the given concrete type, from the fragments
// applicable to it. It returns the query (projecting the type's attributes)
// and the set of attributes it could not cover (to be reported by
// validation).
func (c *Compiler) assembly(m *frag.Mapping, setName, ty string) (cqt.Expr, map[string]bool, error) {
	th := m.Client.TheoryFor(setName)
	only := cond.Expr(cond.TypeIs{Type: ty, Only: true})
	attrs := m.Client.AttrNames(ty)
	key := m.Client.KeyOf(ty)

	var common []*frag.Fragment
	type group struct {
		frags []*frag.Fragment
		cond  cond.Expr // representative restricted condition
	}
	var groups []*group
	for _, f := range m.FragsOnSet(setName) {
		if !c.applicable(m, setName, f, ty) {
			continue
		}
		restricted := cond.NewAnd(f.ClientCond, only)
		atomic.AddInt64(&c.Stats.EquivalenceOps, 1)
		if c.implies(th, only, f.ClientCond) {
			common = append(common, f)
			continue
		}
		placed := false
		for _, g := range groups {
			atomic.AddInt64(&c.Stats.EquivalenceOps, 1)
			if c.equivalent(th, g.cond, restricted) {
				g.frags = append(g.frags, f)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, &group{frags: []*frag.Fragment{f}, cond: restricted})
		}
	}
	if len(common) == 0 && len(groups) == 0 {
		return nil, nil, fmt.Errorf("no fragment maps entities of type %s", ty)
	}

	missing := map[string]bool{}
	branch := func(frags []*frag.Fragment, fixed map[string]cond.Value) (cqt.Expr, bool) {
		covered := map[string]bool{}
		var q cqt.Expr
		for _, f := range frags {
			// Project only this type's attributes the fragment maps and
			// that are not yet covered, always keeping the key for joins.
			var proj []string
			for _, a := range f.Attrs {
				if m.Client.HasAttr(ty, a) && (!covered[a] || isKeyAttr(key, a)) {
					proj = append(proj, a)
				}
			}
			if len(proj) == 0 {
				continue
			}
			fq := fragTableQuery(f, proj)
			if q == nil {
				q = fq
			} else {
				on := make([][2]string, 0, len(key))
				for _, k := range key {
					on = append(on, [2]string{k, k})
				}
				q = cqt.Join{Kind: cqt.Inner, L: q, R: fq, On: on}
			}
			for _, a := range proj {
				covered[a] = true
			}
		}
		if q == nil {
			return nil, false
		}
		// Final projection: all attributes of the type, with fixed
		// constants from the branch condition and NULL padding for
		// attributes nothing covers (validation reports those).
		cols := make([]cqt.ProjCol, 0, len(attrs))
		for _, a := range attrs {
			switch {
			case covered[a]:
				cols = append(cols, cqt.Col(a))
			case hasFixed(fixed, a):
				cols = append(cols, cqt.LitAs(cqt.Const(fixed[a]), a))
			default:
				attr, _ := m.Client.Attr(ty, a)
				cols = append(cols, cqt.LitAs(cqt.NullOf(attr.Type), a))
				missing[a] = true
			}
		}
		return cqt.Project{In: q, Cols: cols}, true
	}

	if len(groups) == 0 {
		q, ok := branch(common, nil)
		if !ok {
			return nil, nil, fmt.Errorf("no fragment maps entities of type %s", ty)
		}
		return q, missing, nil
	}

	var branches []cqt.Expr
	for _, g := range groups {
		fixed := fixedConstants(g.frags)
		q, ok := branch(append(append([]*frag.Fragment{}, common...), g.frags...), fixed)
		if !ok {
			continue
		}
		branches = append(branches, q)
	}
	if len(branches) == 0 {
		return nil, nil, fmt.Errorf("no fragment maps entities of type %s", ty)
	}
	if len(branches) == 1 {
		return branches[0], missing, nil
	}
	return cqt.UnionAll{Inputs: branches}, missing, nil
}

func isKeyAttr(key []string, a string) bool {
	for _, k := range key {
		if k == a {
			return true
		}
	}
	return false
}

func hasFixed(fixed map[string]cond.Value, a string) bool {
	_, ok := fixed[a]
	return ok
}

// fixedConstants extracts attribute values fixed by the client conditions
// of a fragment group: top-level equality conjuncts A = c (the §3.3
// gender = 'M' reasoning).
func fixedConstants(frags []*frag.Fragment) map[string]cond.Value {
	out := map[string]cond.Value{}
	for _, f := range frags {
		collectEqualities(f.ClientCond, out)
	}
	return out
}

func collectEqualities(e cond.Expr, out map[string]cond.Value) {
	switch v := e.(type) {
	case cond.Cmp:
		if v.Op == cond.OpEq {
			out[v.Attr] = v.Val
		}
	case *cond.And:
		for _, x := range v.Xs {
			collectEqualities(x, out)
		}
	}
}

// queryView builds the (Q | τ) query view for one entity type: the union,
// over the concrete types at or below it, of that type's assembly filtered
// to rows not claimed by a deeper type, with provenance flags driving the
// constructor — the LOJ/UNION ALL/CASE shape of Figure 2 in the paper.
func (c *Compiler) queryView(m *frag.Mapping, setName, ty string) (*cqt.View, error) {
	set := m.Client.Set(setName)
	outAttrs := cqt.SetCols(m.Client, set)
	key := m.Client.KeyOf(set.Type)

	var branches []cqt.Expr
	var cases []cqt.Case
	for _, ct := range m.Client.ConcreteIn(ty) {
		asm, _, err := c.assembly(m, setName, ct)
		if err != nil {
			return nil, err
		}
		// Exclude rows that belong to a strictly deeper concrete type:
		// left-outer-join each descendant's assembly (keyed detector) and
		// require its flag NULL.
		q := asm
		var excl []cond.Expr
		for _, dt := range m.Client.ConcreteIn(ct) {
			if dt == ct {
				continue
			}
			dasm, _, err := c.assembly(m, setName, dt)
			if err != nil {
				return nil, err
			}
			flag := typeFlag(dt)
			detCols := make([]cqt.ProjCol, 0, len(key)+1)
			for _, k := range key {
				detCols = append(detCols, cqt.Col(k))
			}
			detCols = append(detCols, cqt.LitAs(cqt.Const(cond.Bool(true)), flag))
			det := cqt.Project{In: dasm, Cols: detCols}
			on := make([][2]string, 0, len(key))
			for _, k := range key {
				on = append(on, [2]string{k, k})
			}
			q = cqt.Join{Kind: cqt.LeftOuter, L: q, R: det, On: on}
			excl = append(excl, cond.Null{Attr: flag})
		}
		if len(excl) > 0 {
			q = cqt.Select{In: q, Cond: cond.NewAnd(excl...)}
		}
		// Align to the set-wide output schema and tag the branch.
		tyAttrs := map[string]bool{}
		for _, a := range m.Client.AttrNames(ct) {
			tyAttrs[a] = true
		}
		cols := make([]cqt.ProjCol, 0, len(outAttrs)+1)
		for _, a := range outAttrs {
			if tyAttrs[a] {
				cols = append(cols, cqt.Col(a))
			} else {
				kind := attrKindInSet(m, set.Type, a)
				cols = append(cols, cqt.LitAs(cqt.NullOf(kind), a))
			}
		}
		cols = append(cols, cqt.LitAs(cqt.Const(cond.String(ct)), typeTag))
		branches = append(branches, cqt.Project{In: q, Cols: cols})

		attrMap := map[string]string{}
		for _, a := range m.Client.AttrNames(ct) {
			attrMap[a] = a
		}
		cases = append(cases, cqt.Case{
			When:  cond.Cmp{Attr: typeTag, Op: cond.OpEq, Val: cond.String(ct)},
			Type:  ct,
			Attrs: attrMap,
		})
	}
	if len(branches) == 0 {
		return nil, fmt.Errorf("type %s has no concrete types", ty)
	}
	var q cqt.Expr = cqt.UnionAll{Inputs: branches}
	if len(branches) == 1 {
		q = branches[0]
	}
	return &cqt.View{Q: q, Cases: cases}, nil
}

func attrKindInSet(m *frag.Mapping, rootType, attr string) cond.Kind {
	for _, ty := range append([]string{rootType}, m.Client.Descendants(rootType)...) {
		if a, ok := m.Client.Attr(ty, attr); ok {
			return a.Type
		}
	}
	return cond.KindString
}

// assocQueryView builds the query view for an association from its single
// fragment (§3.2.1).
func assocQueryView(m *frag.Mapping, f *frag.Fragment) *cqt.View {
	cols := make([]cqt.ProjCol, 0, len(f.Attrs))
	for _, a := range f.Attrs {
		cols = append(cols, cqt.ColAs(f.ColOf[a], a))
	}
	return &cqt.View{Q: cqt.Project{
		In:   cqt.Select{In: cqt.ScanTable{Table: f.Table}, Cond: f.StoreCond},
		Cols: cols,
	}}
}
