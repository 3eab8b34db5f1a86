package compiler

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/containment"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/rel"
)

// ValidationError describes why a mapping does not roundtrip.
type ValidationError struct {
	Where  string
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("mapping validation failed at %s: %s", e.Where, e.Reason)
}

// validate implements the five-step validation of Algorithm 1 in Melnik et
// al. as summarized in §1.2 of the paper: (1) left sides one-to-one and
// client coverage, via exhaustive cell analysis of each entity set; (2)-(4)
// integrity-constraint preservation, via store-side cell analysis and
// query-containment checks over the update views; (5) roundtrip of the
// view composition, which the cell analysis establishes for this fragment
// language.
//
// The work is expressed as an ordered list of independent tasks — one per
// unmapped-set check, per (concrete type, cell span), per (table, cell
// span), and per foreign key — executed on a pool of Options.Parallelism
// workers. Task order mirrors the sequential algorithm exactly, and the
// error of the lowest-ordered failing task is returned, so any worker
// count yields the same first error (byte for byte) as a sequential run.
func (c *Compiler) validate(ctx context.Context, m *frag.Mapping, views *frag.Views) error {
	workers := c.workers()
	var tasks []vtask

	for _, set := range m.Client.Sets() {
		if len(m.FragsOnSet(set.Name)) == 0 {
			set := set
			tasks = append(tasks, vtask{
				label: "unmapped-set check of " + set.Name,
				run: func(context.Context, *vcontrol, int64) error {
					return c.checkSetUnmapped(m, set)
				},
			})
			continue
		}
		tasks = append(tasks, c.setCellTasks(m, set, workers)...)
	}
	for _, tn := range m.MappedTables() {
		tasks = append(tasks, c.tableCellTasks(m, tn, workers)...)
	}

	ch := containment.NewChecker(m.Catalog())
	ch.Simplify = !c.Opts.NoSimplify
	ch.Cache = c.satCache()
	ch.Budget = c.Opts.Budget
	ch.Start = c.start
	ch.Op = "full compile"
	tasks = append(tasks, c.foreignKeyTasks(m, views, ch)...)

	var budgetDeadline time.Time
	if c.Opts.Budget.MaxWallTime > 0 {
		budgetDeadline = c.start.Add(c.Opts.Budget.MaxWallTime)
	}
	vs := c.root.Child("Validate",
		obsv.String("tasks", strconv.Itoa(len(tasks))),
		obsv.String("workers", strconv.Itoa(workers)))
	err := c.runTasks(ctx, tasks, workers, budgetDeadline, vs)

	atomic.AddInt64(&c.Stats.Containments, atomic.LoadInt64(&ch.Stats.Containments))
	atomic.AddInt64(&c.Stats.Implications, atomic.LoadInt64(&ch.Stats.Implications))
	atomic.AddInt64(&c.Stats.CacheHits, atomic.LoadInt64(&ch.Stats.CacheHits))
	atomic.AddInt64(&c.Stats.CacheMisses, atomic.LoadInt64(&ch.Stats.CacheMisses))
	mContainments.Add(atomic.LoadInt64(&ch.Stats.Containments))
	mCacheHits.Add(atomic.LoadInt64(&ch.Stats.CacheHits))
	mCacheMisses.Add(atomic.LoadInt64(&ch.Stats.CacheMisses))
	vs.End(outcome(err))
	return err
}

// checkSetUnmapped verifies that a set without fragments has no mapped
// associations referencing it (data about its entities would be lost).
func (c *Compiler) checkSetUnmapped(m *frag.Mapping, set *edm.EntitySet) error {
	for _, a := range m.Client.Associations() {
		if m.FragForAssoc(a.Name) == nil {
			continue
		}
		if m.Client.IsSubtype(a.End1.Type, set.Type) || m.Client.IsSubtype(a.End2.Type, set.Type) {
			return &ValidationError{
				Where:  "entity set " + set.Name,
				Reason: fmt.Sprintf("association %s is mapped but its endpoint set is not", a.Name),
			}
		}
	}
	return nil
}

// exactTheory restricts a set theory to entities of exactly one concrete
// type, so cell enumeration branches only over attribute atoms.
type exactTheory struct {
	base cond.Theory
	ty   string
}

func (t exactTheory) ConcreteTypes(subject string) []string {
	if subject != "" {
		return nil
	}
	return []string{t.ty}
}
func (t exactTheory) IsSubtype(sub, typ string) bool      { return t.base.IsSubtype(sub, typ) }
func (t exactTheory) Domain(a string) (cond.Domain, bool) { return t.base.Domain(a) }
func (t exactTheory) Nullable(a string) bool              { return t.base.Nullable(a) }
func (t exactTheory) HasAttr(ct, a string) bool           { return t.base.HasAttr(ct, a) }

// cellSpan is one contiguous slice of a cell space: the sub-space of full
// assignments extending prefix (the dense truth slice of the first start
// atoms). A zero span denotes the whole space.
type cellSpan struct {
	prefix []int8
	start  int
}

// splitSpans partitions the DFS enumeration order of the atoms' cell space
// into spans by enumerating the theory-consistent assignments of a short
// leading prefix. The spans, in order, visit exactly the cells of a single
// enumeration in the same order, so per-span first errors combine under
// task ordering into the sequential first error.
func (c *Compiler) splitSpans(th cond.Theory, atoms []cond.Atom, workers int) []cellSpan {
	// Splitting below ~2^16 cells costs more in task bookkeeping than it
	// buys; the naive ablation enumerates inconsistent cells too and is
	// kept sequential per space for simplicity.
	const minSplitAtoms = 16
	if workers <= 1 || c.Opts.NaiveCells || len(atoms) < minSplitAtoms {
		return []cellSpan{{}}
	}
	d := 0
	for (1<<d) < 4*workers && d < len(atoms)-8 && d < 12 {
		d++
	}
	if d == 0 {
		return []cellSpan{{}}
	}
	var spans []cellSpan
	cond.EnumerateCells(th, atoms[:d], nil, 0, func(vals []int8) bool {
		p := make([]int8, d)
		copy(p, vals)
		spans = append(spans, cellSpan{prefix: p, start: d})
		return true
	})
	return spans // empty when the whole space is inconsistent: zero cells
}

// enumerateSpan drives the per-cell visitor over one span, honouring the
// naive-cells ablation and cancellation, and accounting visited cells. The
// visitor returns the validation error that stops the span, if any.
func (c *Compiler) enumerateSpan(th cond.Theory, atoms []cond.Atom, sp cellSpan, ctl *vcontrol, ord int64, check func([]int8) error) error {
	var cells int64
	defer func() {
		atomic.AddInt64(&c.Stats.CellsVisited, cells)
		mCells.Add(cells)
	}()
	var verr error
	visit := func(vals []int8) bool {
		if ctl.cancelled(ord) {
			return false
		}
		cells++
		if verr = check(vals); verr != nil {
			return false
		}
		return true
	}
	if c.Opts.NaiveCells {
		cond.EnumerateAllAssignmentsIndexed(atoms, func(asg cond.Assignment, vals []int8) bool {
			if ctl.cancelled(ord) {
				return false
			}
			if !cond.ConsistentAssignment(th, asg) {
				cells++
				return true
			}
			return visit(vals)
		})
	} else {
		cond.EnumerateCells(th, atoms, sp.prefix, sp.start, visit)
	}
	return verr
}

// condAtoms collects the distinct atoms of the given conditions in
// canonical order, plus the index of each atom in that order.
func condAtoms(conds []cond.Expr) ([]cond.Atom, map[cond.Atom]int) {
	atomSet := map[cond.Atom]bool{}
	for _, x := range conds {
		for _, a := range cond.Atoms(x) {
			atomSet[a] = true
		}
	}
	atoms := make([]cond.Atom, 0, len(atomSet))
	for a := range atomSet {
		atoms = append(atoms, a)
	}
	cond.SortAtoms(atoms)
	idx := make(map[cond.Atom]int, len(atoms))
	for i, a := range atoms {
		idx[a] = i
	}
	return atoms, idx
}

// clientChecker holds the per-set state of client-side cell checking,
// precomputed once and shared read-only by every task of the set: compiled
// fragment conditions, the attributes each fragment covers or fixes, and
// the IS NULL atoms of each attribute. It replaces the per-cell condition
// evaluation, equality collection and map allocation of the sequential
// implementation.
type clientChecker struct {
	set   *edm.EntitySet
	atoms []cond.Atom
	frags []clientFrag
	// nullIdx maps an attribute to the indices of its IS NULL atoms; a cell
	// forces the attribute NULL when any of them is assigned true.
	nullIdx map[string][]int
}

type clientFrag struct {
	f    *frag.Fragment
	eval func([]int8) bool
	// covers lists the attributes the fragment stores plus the attributes
	// its client condition fixes by equality (precomputed: both depend only
	// on the fragment, not on the cell).
	covers []string
}

func newClientChecker(set *edm.EntitySet, frags []*frag.Fragment, atoms []cond.Atom, idx map[cond.Atom]int) *clientChecker {
	ck := &clientChecker{set: set, atoms: atoms, nullIdx: map[string][]int{}}
	for i, a := range atoms {
		if a.Kind == cond.AtomNull {
			ck.nullIdx[a.Attr] = append(ck.nullIdx[a.Attr], i)
		}
	}
	for _, f := range frags {
		cf := clientFrag{f: f, eval: cond.CompileEval(f.ClientCond, idx)}
		seen := map[string]bool{}
		for _, a := range f.Attrs {
			if !seen[a] {
				seen[a] = true
				cf.covers = append(cf.covers, a)
			}
		}
		eqs := map[string]cond.Value{}
		collectEqualities(f.ClientCond, eqs)
		for a := range eqs {
			if !seen[a] {
				seen[a] = true
				cf.covers = append(cf.covers, a)
			}
		}
		ck.frags = append(ck.frags, cf)
	}
	return ck
}

// check validates one client cell for entities of the given concrete type,
// whose attribute list is attrs. covered is task-local scratch. The
// Assignment form of the cell is materialized only on the error paths.
func (ck *clientChecker) check(ty string, attrs []string, vals []int8, covered map[string]bool) error {
	for a := range covered {
		delete(covered, a)
	}
	anyActive := false
	for i := range ck.frags {
		cf := &ck.frags[i]
		if !cf.eval(vals) {
			continue
		}
		anyActive = true
		for _, a := range cf.covers {
			covered[a] = true
		}
	}
	if !anyActive {
		return &ValidationError{
			Where:  "entity set " + ck.set.Name,
			Reason: fmt.Sprintf("entities of type %s in cell %s are not mapped by any fragment", ty, cellDescVals(ck.atoms, vals)),
		}
	}
	for _, a := range attrs {
		if covered[a] {
			continue
		}
		forcedNull := false
		for _, ni := range ck.nullIdx[a] {
			if vals[ni] == 1 {
				forcedNull = true
				break
			}
		}
		if forcedNull {
			continue
		}
		return &ValidationError{
			Where:  "entity set " + ck.set.Name,
			Reason: fmt.Sprintf("attribute %s of type %s is lost in cell %s", a, ty, cellDescVals(ck.atoms, vals)),
		}
	}
	return nil
}

// setCellTasks enumerates, for every concrete type of the set, the
// satisfiable cells of the fragment-condition space and checks that each
// cell's entities are fully covered: every attribute is stored by an
// active fragment, fixed by the cell's conditions, or necessarily NULL in
// the cell. This is the coverage reasoning of §3.3 generalized, and it is
// exponential in the number of condition atoms by nature; each concrete
// type's cell space is split into spans that run as independent tasks.
func (c *Compiler) setCellTasks(m *frag.Mapping, set *edm.EntitySet, workers int) []vtask {
	frags := m.FragsOnSet(set.Name)
	conds := make([]cond.Expr, 0, len(frags))
	for _, f := range frags {
		conds = append(conds, f.ClientCond)
	}
	atoms, idx := condAtoms(conds)
	ck := newClientChecker(set, frags, atoms, idx)

	baseTheory := m.Client.TheoryFor(set.Name)
	var tasks []vtask
	for _, ty := range m.Client.ConcreteIn(set.Type) {
		ty := ty
		th := exactTheory{base: baseTheory, ty: ty}
		attrs := m.Client.AttrNames(ty)
		for si, sp := range c.splitSpans(th, atoms, workers) {
			sp := sp
			tasks = append(tasks, vtask{
				label: fmt.Sprintf("client cell span %d of set %s, type %s", si, set.Name, ty),
				run: func(_ context.Context, ctl *vcontrol, ord int64) error {
					covered := map[string]bool{}
					return c.enumerateSpan(th, atoms, sp, ctl, ord, func(vals []int8) error {
						return ck.check(ty, attrs, vals, covered)
					})
				},
			})
		}
	}
	return tasks
}

// cellDescVals renders a dense cell for error messages (cold path).
func cellDescVals(atoms []cond.Atom, vals []int8) string {
	return cellDesc(cond.AssignmentFromVals(atoms, vals))
}

func cellDesc(asg cond.Assignment) string {
	atoms := make([]cond.Atom, 0, len(asg))
	for a := range asg {
		atoms = append(atoms, a)
	}
	cond.SortAtoms(atoms)
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		if asg[a] {
			b.WriteString(a.String())
		} else {
			b.WriteString("NOT(")
			b.WriteString(a.String())
			b.WriteByte(')')
		}
	}
	b.WriteByte('}')
	return b.String()
}

// storeChecker holds the per-table state of store-side cell checking,
// precomputed once and shared read-only by the table's span tasks. Only
// columns written by at least two fragments can produce a conflict, so the
// per-cell column loop runs over that subset; fixed-column sets (the TPH
// discriminator equalities of each fragment's store condition) are
// computed once per fragment instead of per column per fragment per cell.
type storeChecker struct {
	tab      *rel.Table
	atoms    []cond.Atom
	frags    []*frag.Fragment
	evals    []func([]int8) bool
	isEntity []bool // fragment has Set != ""
	shared   []sharedCol
	nonNull  []nonNullCol
}

// sharedCol is a column written by two or more fragments, with its writers
// in fragment order.
type sharedCol struct {
	name    string
	isKey   bool
	writers []colWriter
}

type colWriter struct {
	fi    int  // index into storeChecker.frags
	assoc bool // written by an association fragment
	set   string
	attr  string // source attribute (AttrFor)
	id    string
}

// nonNullCol is a non-nullable column with the fragments that write it:
// those mapping it plus those fixing it by a store-condition equality.
type nonNullCol struct {
	name     string
	coverers []int
}

func newStoreChecker(tab *rel.Table, frags []*frag.Fragment, atoms []cond.Atom, idx map[cond.Atom]int) *storeChecker {
	ck := &storeChecker{tab: tab, atoms: atoms, frags: frags}
	fixed := make([]map[string]cond.Value, len(frags))
	for i, f := range frags {
		ck.evals = append(ck.evals, cond.CompileEval(f.StoreCond, idx))
		ck.isEntity = append(ck.isEntity, f.Set != "")
		fixed[i] = map[string]cond.Value{}
		collectEqualities(f.StoreCond, fixed[i])
	}
	for _, tcol := range tab.Cols {
		col := tcol.Name
		var writers []colWriter
		for i, f := range frags {
			if !f.MapsCol(col) {
				continue
			}
			attr, _ := f.AttrFor(col)
			writers = append(writers, colWriter{fi: i, assoc: f.Assoc != "", set: f.Set, attr: attr, id: f.ID})
		}
		if len(writers) >= 2 {
			ck.shared = append(ck.shared, sharedCol{name: col, isKey: tab.IsKey(col), writers: writers})
		}
		if !tcol.Nullable {
			nn := nonNullCol{name: col}
			for i, f := range frags {
				_, fixes := fixed[i][col]
				if f.MapsCol(col) || fixes {
					nn.coverers = append(nn.coverers, i)
				}
			}
			ck.nonNull = append(ck.nonNull, nn)
		}
	}
	return ck
}

// storeScratch is the task-local mutable state of store-side cell checks.
type storeScratch struct {
	mask    []bool
	active  []int
	entityW []colWriter
	assocW  []colWriter
}

func (ck *storeChecker) newScratch() *storeScratch {
	return &storeScratch{mask: make([]bool, len(ck.frags))}
}

// check validates one store cell: active fragments must never conflict on
// a shared column, and if the cell holds entity rows every non-nullable
// column must be written. The Assignment form of the cell is materialized
// only on the error paths.
func (ck *storeChecker) check(vals []int8, sc *storeScratch) error {
	sc.active = sc.active[:0]
	for i := range ck.frags {
		on := ck.evals[i](vals)
		sc.mask[i] = on
		if on {
			sc.active = append(sc.active, i)
		}
	}
	if len(sc.active) == 0 {
		return nil // unreachable region of the table
	}
	// Shared-column agreement.
	for si := range ck.shared {
		col := &ck.shared[si]
		sc.entityW = sc.entityW[:0]
		sc.assocW = sc.assocW[:0]
		for _, w := range col.writers {
			if !sc.mask[w.fi] {
				continue
			}
			if w.assoc {
				sc.assocW = append(sc.assocW, w)
			} else {
				sc.entityW = append(sc.entityW, w)
			}
		}
		if len(sc.entityW) > 1 {
			w0 := sc.entityW[0]
			for _, w := range sc.entityW[1:] {
				if w0.set != w.set || w0.attr != w.attr {
					return &ValidationError{
						Where: "table " + ck.tab.Name,
						Reason: fmt.Sprintf("fragments %s and %s both write column %s from different sources in cell %s",
							w0.id, w.id, col.name, cellDescVals(ck.atoms, vals)),
					}
				}
			}
		}
		if len(sc.assocW) > 0 && len(sc.entityW) > 0 && !col.isKey {
			return &ValidationError{
				Where: "table " + ck.tab.Name,
				Reason: fmt.Sprintf("column %s is written by both an entity fragment and association fragment %s (check 1 of §3.2)",
					col.name, sc.assocW[0].id),
			}
		}
		if len(sc.assocW) > 1 && !col.isKey {
			return &ValidationError{
				Where:  "table " + ck.tab.Name,
				Reason: fmt.Sprintf("column %s is written by two association fragments in cell %s", col.name, cellDescVals(ck.atoms, vals)),
			}
		}
	}
	// Non-nullable coverage: if the cell holds entity rows, every
	// non-nullable column must be written by an active fragment.
	hasEntity := false
	for _, fi := range sc.active {
		if ck.isEntity[fi] {
			hasEntity = true
			break
		}
	}
	if hasEntity {
		for ni := range ck.nonNull {
			nn := &ck.nonNull[ni]
			written := false
			for _, fi := range nn.coverers {
				if sc.mask[fi] {
					written = true
					break
				}
			}
			if !written {
				return &ValidationError{
					Where:  "table " + ck.tab.Name,
					Reason: fmt.Sprintf("non-nullable column %s is not written in cell %s", nn.name, cellDescVals(ck.atoms, vals)),
				}
			}
		}
	}
	return nil
}

// tableCellTasks enumerates the satisfiable cells of a table's store-side
// condition space (fragment conditions plus the null-state of columns
// written by several fragments) and checks each cell with the precomputed
// storeChecker. For mappings that pack many types and foreign keys into
// one table (the hub-and-rim TPH model of Figure 3) the atom count grows
// with N + N·M and this check dominates compilation, reproducing Figure 4;
// splitting the single table's cell space into spans is what lets that
// worst case use every core.
func (c *Compiler) tableCellTasks(m *frag.Mapping, table string, workers int) []vtask {
	tab := m.Store.Table(table)
	frags := m.FragsOnTable(table)

	// The cell space is the atom space of the fragments' store conditions:
	// a cell determines exactly which fragments are active, which is all
	// the per-cell checks depend on. For a hub-and-rim TPH table this is
	// one discriminator equality per type plus one IS NOT NULL per
	// association column — 2^(N·M) satisfiable cells, the Figure 4
	// blow-up.
	conds := make([]cond.Expr, 0, len(frags))
	for _, f := range frags {
		conds = append(conds, f.StoreCond)
	}
	atoms, idx := condAtoms(conds)
	ck := newStoreChecker(tab, frags, atoms, idx)

	th := m.Store.TheoryFor(table)
	var tasks []vtask
	for si, sp := range c.splitSpans(th, atoms, workers) {
		sp := sp
		tasks = append(tasks, vtask{
			label: fmt.Sprintf("store cell span %d of table %s", si, table),
			run: func(_ context.Context, ctl *vcontrol, ord int64) error {
				sc := ck.newScratch()
				return c.enumerateSpan(th, atoms, sp, ctl, ord, func(vals []int8) error {
					return ck.check(vals, sc)
				})
			},
		})
	}
	return tasks
}

// foreignKeyTasks checks steps (2)-(4): every foreign key between mapped
// tables must be preserved by the update views, encoded as the query
// containment π_β(Q_T) ⊆ π_γ(Q_T'). Each foreign key is one task; the
// containment checker is shared (its statistics are atomic and its
// per-call state is local).
func (c *Compiler) foreignKeyTasks(m *frag.Mapping, views *frag.Views, ch *containment.Checker) []vtask {
	mapped := map[string]bool{}
	for _, t := range m.MappedTables() {
		mapped[t] = true
	}
	// The right side of an FK containment depends only on the referenced
	// table's view and the referenced columns, so checks sharing a
	// (RefTable, RefCols) pair — every rim table's FK into the hub, in the
	// Figure 3 model — share one prenormalized right side, built by the
	// first of them to run (a Prenorm is safe across parallel tasks).
	pres := map[string]*containment.Prenorm{}
	var tasks []vtask
	for _, tn := range m.MappedTables() {
		tn := tn
		tab := m.Store.Table(tn)
		for _, fk := range tab.FKs {
			fk := fk
			var pre *containment.Prenorm
			if mapped[fk.RefTable] {
				key := fk.RefTable + "\x00" + strings.Join(fk.RefCols, "\x00")
				if pres[key] == nil {
					pres[key] = ch.PrenormalizeRight(fkRefQuery(views, fk))
				}
				pre = pres[key]
			}
			tasks = append(tasks, vtask{
				label: fmt.Sprintf("foreign-key check %s of table %s", fk.Name, tn),
				run: func(ctx context.Context, _ *vcontrol, _ int64) error {
					written := false
					for _, f := range m.FragsOnTable(tn) {
						for _, colName := range fk.Cols {
							if f.MapsCol(colName) {
								written = true
							}
						}
					}
					if !written {
						return nil // FK columns never populated; vacuously preserved
					}
					if !mapped[fk.RefTable] {
						return &ValidationError{
							Where:  "table " + tn,
							Reason: fmt.Sprintf("foreign key %s references unmapped table %s", fk.Name, fk.RefTable),
						}
					}
					ok, err := ch.ContainsPreCtx(ctx, fkLeftQuery(views, fk, tn), pre)
					if err != nil {
						return err
					}
					if !ok {
						return &ValidationError{
							Where:  "table " + tn,
							Reason: fmt.Sprintf("update views violate foreign key %s → %s", fk.Name, fk.RefTable),
						}
					}
					return nil
				},
			})
		}
	}
	return tasks
}

// fkLeftQuery and fkRefQuery build the two sides of foreign key fk of
// table: π_{β AS γ}(σ_{β NOT NULL}(Q_T)) ⊆ π_γ(Q_T').
func fkLeftQuery(views *frag.Views, fk rel.ForeignKey, table string) cqt.Expr {
	var notNull []cond.Expr
	cols := make([]cqt.ProjCol, 0, len(fk.Cols))
	for i, c := range fk.Cols {
		notNull = append(notNull, cond.NotNull(c))
		cols = append(cols, cqt.ColAs(c, fk.RefCols[i]))
	}
	return cqt.Project{In: cqt.Select{In: views.Update[table].Q, Cond: cond.NewAnd(notNull...)}, Cols: cols}
}

func fkRefQuery(views *frag.Views, fk rel.ForeignKey) cqt.Expr {
	rcols := make([]cqt.ProjCol, 0, len(fk.RefCols))
	for _, c := range fk.RefCols {
		rcols = append(rcols, cqt.Col(c))
	}
	return cqt.Project{In: views.Update[fk.RefTable].Q, Cols: rcols}
}
