// Package core implements the paper's contribution: the incremental
// mapping compiler of Bernstein et al. (SIGMOD 2013). Given a mapping that
// has already been validated and compiled into query and update views, a
// schema modification operation (SMO) is compiled into incremental
// modifications of the schemas, fragments and views, validating only the
// neighbourhood of the change instead of the whole mapping.
//
// Each SMO provides the four algorithms of §1.2: adapt/create query views,
// adapt/create update views, adapt the fragment set, and validate the new
// mapping with localized query-containment checks.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/containment"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/rel"
)

// Process-wide metric counters for the incremental compiler, resolved once.
// Per-Apply deltas of the Stats struct are mirrored into them when ApplyCtx
// returns, so every applier site is covered without per-site wiring.
var (
	mApplies           = obsv.Metrics().Counter(obsv.MApplies)
	mApplyContainments = obsv.Metrics().Counter(obsv.MApplyContainments)
	mApplyAdaptedViews = obsv.Metrics().Counter(obsv.MApplyAdaptedViews)
	mApplyBuiltViews   = obsv.Metrics().Counter(obsv.MApplyBuiltViews)
	mApplyCacheHits    = obsv.Metrics().Counter(obsv.MApplyCacheHits)
	mApplyCacheMisses  = obsv.Metrics().Counter(obsv.MApplyCacheMisses)
	mApplyCancelled    = obsv.Metrics().Counter(obsv.MApplyCancelled)
)

// ErrUnsupportedSMO reports that an operation cannot be compiled
// incrementally: it is not one of the executable SMOs of §3 (or a Planner
// resolving to one). Callers holding a full compiler can respond by
// falling back to full recompilation, as §1.2 of the paper prescribes;
// the pipeline package automates exactly that ladder.
var ErrUnsupportedSMO = errors.New("SMO is not incrementally compilable")

// Options tunes the incremental compiler.
type Options struct {
	// NoSimplify disables simplification of evolved views and containment
	// inputs (the simplifier ablation).
	NoSimplify bool
	// WideValidation re-checks every foreign key of every mapped table
	// instead of only the SMO's neighbourhood (the neighbourhood-
	// restriction ablation).
	WideValidation bool
	// SatCache, when non-nil, memoizes satisfiability/implication verdicts.
	// Passing the cache the full compiler used lets neighbourhood
	// re-validation after an SMO reuse verdicts from the original compile;
	// when nil a private cache is created, still deduplicating within the
	// incremental compilation itself.
	SatCache *cond.SatCache
	// Budget bounds the validation work of one Apply. When a limit is
	// reached, Apply returns a *fault.BudgetExceededError (wrapped with
	// the SMO's description), distinguishable from a validation failure.
	Budget fault.Budget
	// SkipValidation applies the SMO's schema, fragment and view changes
	// without the neighbourhood containment checks. Used by the fallback
	// path of the pipeline package, which re-validates the evolved mapping
	// with a full compilation; not meant for direct use.
	SkipValidation bool
	// Tracer, when non-nil, records each Apply as a hierarchical span tree
	// (Apply → adapt-fragments / adapt-views / incremental-validate →
	// containment-check). When nil the process-wide tracer installed with
	// obsv.SetDefault is used; with no tracer installed anywhere no spans
	// are created.
	Tracer *obsv.Tracer
}

// Stats reports the work one or more Apply calls performed.
type Stats struct {
	Containments int64
	Implications int64
	AdaptedViews int64
	BuiltViews   int64
	// CacheHits and CacheMisses count incremental validation's decisions
	// served from the satisfiability cache and solved; type-only decisions
	// are neither (cond.SatCacheStats.TypeOnly).
	CacheHits   int64
	CacheMisses int64
	// Cancelled counts Apply calls stopped by context cancellation or
	// deadline expiry.
	Cancelled int64
}

// Incremental is the incremental mapping compiler.
type Incremental struct {
	Opts  Options
	Stats Stats

	cache *cond.SatCache

	// ctx and start hold the cancellation and budget anchors of the
	// in-flight ApplyCtx; appliers reach them through the checker and the
	// decision procedures. An Incremental must not be shared by
	// concurrent Apply calls (each call mutates these and Stats).
	ctx   context.Context
	start time.Time

	// tr is the resolved tracer (nil when tracing is off), root the
	// in-flight Apply's span, and valSpan the lazily opened
	// "incremental-validate" child grouping the neighbourhood containment
	// checks; valMade latches its creation so a traced Apply opens it at
	// most once.
	tr      *obsv.Tracer
	root    *obsv.Span
	valSpan *obsv.Span
	valMade bool

	// touchedQuery/touchedUpdate track the views an SMO created or
	// restructured, so only the neighbourhood of the change is
	// re-simplified.
	touchedQuery  map[string]bool
	touchedUpdate map[string]bool
}

func (ic *Incremental) markQuery(ty string)     { ic.touchedQuery[ty] = true }
func (ic *Incremental) markUpdate(table string) { ic.touchedUpdate[table] = true }

// NewIncremental returns an incremental compiler with default options.
func NewIncremental() *Incremental { return &Incremental{} }

// SMO is a schema modification operation: a small change to the client
// schema plus a directive on how the change maps to tables. The concrete
// SMOs of this package implement it directly; external packages (such as
// the MoDEF-style planner) provide Planner implementations that are
// resolved against the evolved mapping at application time.
type SMO interface {
	// Describe names the operation for logs and errors.
	Describe() string
}

// applier is the internal face of an executable SMO.
type applier interface {
	SMO
	// apply mutates the (cloned) mapping and views; an error aborts the
	// compilation and the caller's originals stay untouched.
	apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error
}

// Planner is an SMO that is synthesised lazily against the current mapping
// (e.g. by mapping-style inference), possibly extending the store schema
// as its table directive.
type Planner interface {
	SMO
	// Plan resolves the operation against the mapping it will be applied
	// to. It may mutate the mapping's store schema (adding tables or
	// columns) but not the client schema or fragments.
	Plan(m *frag.Mapping) (SMO, error)
}

// Apply incrementally compiles one SMO: it adapts the mapping and views and
// validates the neighbourhood of the change. On success the evolved mapping
// and views are returned; on failure an error is returned and the inputs
// are left untouched, matching the paper's abort semantics.
//
// The evolved generation is a copy-on-write snapshot of the inputs:
// untouched fragments, schema entries and view trees are shared with the
// originals, and appliers copy exactly the objects they change (through
// MutableFrag, MutableQuery/MutableUpdate and the schema mutators). Apply
// therefore does O(change) copying work per SMO, not O(model).
func (ic *Incremental) Apply(m *frag.Mapping, v *frag.Views, op SMO) (*frag.Mapping, *frag.Views, error) {
	return ic.ApplyCtx(context.Background(), m, v, op)
}

// ApplyCtx is Apply with cooperative cancellation and budget enforcement.
// Cancellation is observed before the SMO is applied and inside every
// neighbourhood containment check, so a cancelled compilation aborts with
// ctx.Err() (wrapped with the SMO's description) and the inputs stay
// untouched — the same abort semantics as a validation failure. When
// Options.Budget is limited, exhausting it aborts with a
// *fault.BudgetExceededError instead.
func (ic *Incremental) ApplyCtx(ctx context.Context, m *frag.Mapping, v *frag.Views, op SMO) (rm *frag.Mapping, rv *frag.Views, err error) {
	ic.ctx = ctx
	ic.start = time.Now()
	ic.tr = obsv.Resolve(ic.Opts.Tracer)
	ic.root = ic.tr.SpanCtx(ctx, "Apply", obsv.String("smo", op.Describe()))
	mApplies.Add(1)
	st0 := ic.Stats
	defer func() {
		ic.valSpan.End(fault.Outcome(err))
		ic.root.End(fault.Outcome(err))
		ic.ctx, ic.root, ic.valSpan, ic.valMade = nil, nil, nil, false
		mApplyContainments.Add(ic.Stats.Containments - st0.Containments)
		mApplyAdaptedViews.Add(ic.Stats.AdaptedViews - st0.AdaptedViews)
		mApplyBuiltViews.Add(ic.Stats.BuiltViews - st0.BuiltViews)
		mApplyCacheHits.Add(ic.Stats.CacheHits - st0.CacheHits)
		mApplyCacheMisses.Add(ic.Stats.CacheMisses - st0.CacheMisses)
		mApplyCancelled.Add(ic.Stats.Cancelled - st0.Cancelled)
	}()
	if err := ctx.Err(); err != nil {
		ic.Stats.Cancelled++
		return nil, nil, fmt.Errorf("%s: %w", op.Describe(), err)
	}
	nm := m.Clone()
	nv := v.Clone()
	ic.touchedQuery = map[string]bool{}
	ic.touchedUpdate = map[string]bool{}
	resolved := op
	for i := 0; i < 4; i++ {
		p, ok := resolved.(Planner)
		if !ok {
			break
		}
		next, err := p.Plan(nm)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", op.Describe(), err)
		}
		resolved = next
	}
	a, ok := resolved.(applier)
	if !ok {
		return nil, nil, fmt.Errorf("%s: %w", op.Describe(), ErrUnsupportedSMO)
	}
	if err := a.apply(ic, nm, nv); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ic.Stats.Cancelled++
		}
		return nil, nil, fmt.Errorf("%s: %w", op.Describe(), err)
	}
	// Re-observe the context after the applier: a cancellation that landed
	// where no containment check was running must still abort the op — a
	// cancelled compile never commits, deterministically. This is what
	// keeps ApplyAll's abort semantics intact under cancellation: without
	// it, a step whose validation happened to finish first would return
	// success and leak a generation the caller asked to abandon.
	if err := ctx.Err(); err != nil {
		ic.Stats.Cancelled++
		return nil, nil, fmt.Errorf("%s: %w", op.Describe(), err)
	}
	if !ic.Opts.NoSimplify {
		ic.simplifyViews(nm, nv)
	}
	return nm, nv, nil
}

// ApplyAll compiles a sequence of SMOs, aborting at the first failure.
// Each step derives a copy-on-write generation from the previous one, so
// state is shared across the whole sequence and the total copying work is
// O(total change) — one cheap generation per op — rather than one full
// clone per op.
func (ic *Incremental) ApplyAll(m *frag.Mapping, v *frag.Views, ops ...SMO) (*frag.Mapping, *frag.Views, error) {
	return ic.ApplyAllCtx(context.Background(), m, v, ops...)
}

// ApplyAllCtx is ApplyAll with cooperative cancellation: the context is
// re-checked between steps and inside each step's validation, and the
// whole sequence aborts on the first failure — including a cancellation —
// with the callers' input generation untouched. The intermediate
// generations built before the abort are discarded, never returned, so a
// cancelled sequence cannot leak a half-evolved mapping.
func (ic *Incremental) ApplyAllCtx(ctx context.Context, m *frag.Mapping, v *frag.Views, ops ...SMO) (*frag.Mapping, *frag.Views, error) {
	for _, op := range ops {
		var err error
		m, v, err = ic.ApplyCtx(ctx, m, v, op)
		if err != nil {
			return nil, nil, err
		}
	}
	return m, v, nil
}

func (ic *Incremental) simplifyViews(m *frag.Mapping, v *frag.Views) {
	cat := m.Catalog()
	for ty := range ic.touchedQuery {
		if view := v.MutableQuery(ty); view != nil {
			view.Q = cqt.Simplify(cat, view.Q)
		}
	}
	for table := range ic.touchedUpdate {
		if view := v.MutableUpdate(table); view != nil {
			view.Q = cqt.Simplify(cat, view.Q)
		}
	}
}

// satCache resolves the decision cache: the shared one from Options, or a
// lazily created private one.
func (ic *Incremental) satCache() *cond.SatCache {
	if ic.cache == nil {
		if ic.Opts.SatCache != nil {
			ic.cache = ic.Opts.SatCache
		} else {
			ic.cache = cond.NewSatCache()
		}
	}
	return ic.cache
}

func (ic *Incremental) countCache(d cond.Decision) {
	switch d {
	case cond.Cached:
		ic.Stats.CacheHits++
	case cond.Solved:
		ic.Stats.CacheMisses++
	}
}

// satisfiable, implies, disjoint and tautology are the incremental
// compiler's cache-backed decision procedures, used by the SMO
// neighbourhood checks.
func (ic *Incremental) satisfiable(t cond.Theory, x cond.Expr) bool {
	v, d := ic.satCache().SatisfiableHit(t, x)
	ic.countCache(d)
	return v
}

func (ic *Incremental) implies(t cond.Theory, a, b cond.Expr) bool {
	v, d := ic.satCache().ImpliesHit(t, a, b)
	ic.countCache(d)
	return v
}

func (ic *Incremental) disjoint(t cond.Theory, a, b cond.Expr) bool {
	v, d := ic.satCache().DisjointHit(t, a, b)
	ic.countCache(d)
	return v
}

func (ic *Incremental) tautology(t cond.Theory, x cond.Expr) bool {
	return !ic.satisfiable(t, cond.NewNot(x))
}

func (ic *Incremental) checker(m *frag.Mapping) *containment.Checker {
	ch := containment.NewChecker(m.Catalog())
	ch.Simplify = !ic.Opts.NoSimplify
	ch.Cache = ic.satCache()
	ch.Budget = ic.Opts.Budget
	ch.Start = ic.start
	ch.Op = "incremental compile"
	return ch
}

// applyCtx is the context of the in-flight ApplyCtx (Background for plain
// Apply calls and for hand-constructed Incrementals driving the helpers
// directly in tests).
func (ic *Incremental) applyCtx() context.Context {
	if ic.ctx == nil {
		return context.Background()
	}
	return ic.ctx
}

// valCtx is applyCtx carrying the Apply's "incremental-validate" span,
// opened lazily on the first neighbourhood check so SMOs that validate
// nothing record no validation span. Containment checks issued with this
// context parent their spans under it.
func (ic *Incremental) valCtx() context.Context {
	if !ic.valMade {
		ic.valMade = true
		ic.valSpan = ic.root.Child("incremental-validate")
	}
	return obsv.ContextWithSpan(ic.applyCtx(), ic.valSpan)
}

func (ic *Incremental) absorb(ch *containment.Checker) {
	ic.Stats.Containments += ch.Stats.Containments
	ic.Stats.Implications += ch.Stats.Implications
	ic.Stats.CacheHits += ch.Stats.CacheHits
	ic.Stats.CacheMisses += ch.Stats.CacheMisses
}

// adaptClientCond implements the condition adaptation shared by fragment
// adaptation (§3.1.3) and update-view adaptation (Algorithm 2): after
// adding entity type E with ancestor reference P,
//
//   - IS OF (ONLY P) becomes IS OF (ONLY P) ∨ IS OF E (line 7), and
//   - IS OF F, for F a proper ancestor of E and proper descendant of P,
//     becomes the disjunction of line 14 that rules out E.
//
// pset is that set of in-between types.
func adaptClientCond(m *frag.Mapping, x cond.Expr, newType, p string, pset []string) cond.Expr {
	inP := map[string]bool{}
	for _, f := range pset {
		inP[f] = true
	}
	return cond.MapAtoms(x, func(e cond.Expr) cond.Expr {
		t, ok := e.(cond.TypeIs)
		if !ok {
			return e
		}
		if t.Only && p != "" && t.Type == p {
			return cond.NewOr(t, cond.TypeIs{Var: t.Var, Type: newType})
		}
		if !t.Only && inP[t.Type] {
			var parts []cond.Expr
			for _, fp := range pset {
				if !m.Client.IsSubtype(fp, t.Type) {
					continue
				}
				parts = append(parts, cond.TypeIs{Var: t.Var, Type: fp, Only: true})
				for _, ch := range m.Client.Children(fp) {
					if ch == newType || inP[ch] {
						continue
					}
					parts = append(parts, cond.TypeIs{Var: t.Var, Type: ch})
				}
			}
			return cond.NewOr(parts...)
		}
		return e
	})
}

// adaptFragments rewrites the client conditions of the fragments over one
// entity set (§3.1.3). Fragments whose condition is unaffected stay shared
// with the previous generation; only genuinely rewritten ones are copied
// (the rewrite rebuilds through the hash-consing constructors, so == tells
// the two cases apart).
func (ic *Incremental) adaptFragments(m *frag.Mapping, setName, newType, p string, pset []string) {
	sp := ic.root.Child("adapt-fragments", obsv.String("set", setName))
	rewritten := 0
	for _, f := range m.Frags {
		if f.Set != setName {
			continue
		}
		nc := adaptClientCond(m, f.ClientCond, newType, p, pset)
		if nc == f.ClientCond {
			continue
		}
		m.MutableFrag(f).ClientCond = nc
		rewritten++
	}
	sp.End(obsv.OutcomeOK, obsv.String("rewritten", strconv.Itoa(rewritten)))
}

// adaptUpdateViews rewrites the conditions of every update view except the
// new table's (Algorithm 2, lines 4-17). Views whose conditions mention
// neither IS OF (ONLY P) nor any type of pset are untouched, which keeps
// the adaptation proportional to the neighbourhood rather than the model.
func (ic *Incremental) adaptUpdateViews(m *frag.Mapping, v *frag.Views, skipTable, newType, p string, pset []string) {
	sp := ic.root.Child("adapt-views")
	adapted0 := ic.Stats.AdaptedViews
	defer func() {
		sp.End(obsv.OutcomeOK, obsv.String("adapted", strconv.FormatInt(ic.Stats.AdaptedViews-adapted0, 10)))
	}()
	inP := map[string]bool{}
	for _, f := range pset {
		inP[f] = true
	}
	affected := func(c cond.Expr) bool {
		for _, a := range cond.Atoms(c) {
			if a.Kind != cond.AtomType {
				continue
			}
			if a.Only && p != "" && a.Type == p {
				return true
			}
			if !a.Only && inP[a.Type] {
				return true
			}
		}
		return false
	}
	for table, view := range v.Update {
		if table == skipTable {
			continue
		}
		if !cqt.AnyCond(view.Q, affected) {
			continue
		}
		nview := v.MutableUpdate(table)
		nview.Q = cqt.MapConds(nview.Q, func(c cond.Expr) cond.Expr {
			return adaptClientCond(m, c, newType, p, pset)
		})
		ic.Stats.AdaptedViews++
	}
}

// betweenTypes computes p: the proper ancestors of E that are proper
// descendants of P ("" meaning NIL, of which every type is a descendant).
func betweenTypes(m *frag.Mapping, e, p string) []string {
	var out []string
	for _, a := range m.Client.Ancestors(e) {
		if p != "" && (a == p || !m.Client.IsSubtype(a, p)) {
			continue
		}
		if a == p {
			continue
		}
		out = append(out, a)
	}
	return out
}

// ancestorsOfP computes anc for Algorithm 1: P and its proper ancestors
// (empty when P is NIL).
func ancestorsOfP(m *frag.Mapping, p string) []string {
	if p == "" {
		return nil
	}
	return append([]string{p}, m.Client.Ancestors(p)...)
}

// checkContainment runs one localized containment check and wraps a failed
// result in the paper's abort semantics. Under Options.SkipValidation (the
// pipeline fallback path, which re-validates by full compilation) it is a
// no-op.
func (ic *Incremental) checkContainment(ch *containment.Checker, a, b cqt.Expr, what string) error {
	if ic.Opts.SkipValidation {
		return nil
	}
	ok, err := ch.ContainsCtx(ic.valCtx(), a, b)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("validation failed: %s", what)
	}
	return nil
}

// fkCheck validates one foreign key of table tab against the current update
// views: π_{β AS γ}(σ_{β NOT NULL}(Q_tab)) ⊆ π_γ(Q_ref). pres, when
// non-nil, shares prenormalized right sides between checks that reference
// the same table through the same columns (see wideFKRecheck); one-off
// checks pass nil.
func (ic *Incremental) fkCheck(ch *containment.Checker, m *frag.Mapping, v *frag.Views, tab string, fk rel.ForeignKey, pres map[string]*containment.Prenorm) error {
	if ic.Opts.SkipValidation {
		return nil
	}
	refView, ok := v.Update[fk.RefTable]
	if !ok {
		return fmt.Errorf("validation failed: foreign key %s of %s references unmapped table %s", fk.Name, tab, fk.RefTable)
	}
	tabView, ok := v.Update[tab]
	if !ok {
		return fmt.Errorf("internal: no update view for %s", tab)
	}
	var notNull []cond.Expr
	cols := make([]cqt.ProjCol, 0, len(fk.Cols))
	for i, c := range fk.Cols {
		notNull = append(notNull, cond.NotNull(c))
		cols = append(cols, cqt.ColAs(c, fk.RefCols[i]))
	}
	lhs := cqt.Project{In: cqt.Select{In: tabView.Q, Cond: cond.NewAnd(notNull...)}, Cols: cols}
	rcols := make([]cqt.ProjCol, 0, len(fk.RefCols))
	for _, c := range fk.RefCols {
		rcols = append(rcols, cqt.Col(c))
	}
	rhs := cqt.Project{In: refView.Q, Cols: rcols}
	what := fmt.Sprintf("update views violate foreign key %s → %s", fk.Name, fk.RefTable)

	if pres == nil {
		return ic.checkContainment(ch, lhs, rhs, what)
	}
	key := fk.RefTable + "\x00" + strings.Join(fk.RefCols, "\x00")
	pre, ok := pres[key]
	if !ok {
		var err error
		pre, err = ch.PrenormalizeRight(rhs)
		if err != nil {
			return err
		}
		pres[key] = pre
	}
	cok, err := ch.ContainsPreCtx(ic.valCtx(), lhs, pre)
	if err != nil {
		return err
	}
	if !cok {
		return fmt.Errorf("validation failed: %s", what)
	}
	return nil
}

// wideFKRecheck re-validates every foreign key of every mapped table (the
// neighbourhood ablation). The referenced-view side of each containment is
// prenormalized once per (table, columns) pair and shared across the sweep.
func (ic *Incremental) wideFKRecheck(ch *containment.Checker, m *frag.Mapping, v *frag.Views) error {
	pres := map[string]*containment.Prenorm{}
	for _, tn := range m.MappedTables() {
		tab := m.Store.Table(tn)
		for _, fk := range tab.FKs {
			written := false
			for _, f := range m.FragsOnTable(tn) {
				for _, c := range fk.Cols {
					if f.MapsCol(c) {
						written = true
					}
				}
			}
			if !written {
				continue
			}
			if err := ic.fkCheck(ch, m, v, tn, fk, pres); err != nil {
				return err
			}
		}
	}
	return nil
}

// unionAlign pads two queries to a common column set (NULLs for missing
// columns) so they can be unioned. Column kinds are resolved from the
// client schema where possible.
func unionAlign(m *frag.Mapping, setName string, a, b cqt.Expr) (cqt.Expr, cqt.Expr, error) {
	cat := m.Catalog()
	ac, err := cat.Cols(a)
	if err != nil {
		return nil, nil, err
	}
	bc, err := cat.Cols(b)
	if err != nil {
		return nil, nil, err
	}
	have := func(cols []string, c string) bool {
		for _, x := range cols {
			if x == c {
				return true
			}
		}
		return false
	}
	union := append([]string(nil), ac...)
	for _, c := range bc {
		if !have(ac, c) {
			union = append(union, c)
		}
	}
	pad := func(e cqt.Expr, cols []string) cqt.Expr {
		out := make([]cqt.ProjCol, 0, len(union))
		for _, c := range union {
			if have(cols, c) {
				out = append(out, cqt.Col(c))
			} else {
				out = append(out, cqt.LitAs(cqt.NullOf(colKind(m, setName, c)), c))
			}
		}
		return cqt.Project{In: e, Cols: out}
	}
	return pad(a, ac), pad(b, bc), nil
}

// colKind guesses the kind of a view output column: a client attribute of
// the set's hierarchy, a boolean provenance flag, or the string type tag.
func colKind(m *frag.Mapping, setName, col string) cond.Kind {
	set := m.Client.Set(setName)
	if set != nil {
		for _, ty := range append([]string{set.Type}, m.Client.Descendants(set.Type)...) {
			if a, ok := m.Client.Attr(ty, col); ok {
				return a.Type
			}
		}
	}
	if col == "__type" {
		return cond.KindString
	}
	return cond.KindBool
}

// typeFlagCol names the provenance flag introduced for a newly added type
// (the paper's t_E attribute).
func typeFlagCol(ty string) string { return "__t_" + ty }
