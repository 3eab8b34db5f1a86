package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/xver"
)

// The versioned rollout engine. A rollout advances one tenant from its
// serving generation (version k) to a proposed one (version k+1) through a
// guarded state machine:
//
//	proposed → canary → backfill → cutover → verify → done
//	     └────────┴────────┴─────────┴─────────┴→ rolledback
//
// Every arrow into "rolledback" is automatic: a health gate — divergence
// between the versions' views, the tenant's evolve error rate, a stale
// serving state, or an injected gate fault — fails, and the engine
// restores the prior generation. Before cutover that is a discard (the
// serving generation and data were never touched); after cutover it is a
// pipeline rollback that reinstates the version-k mapping, views and row
// store verbatim.
//
// The backfill is checkpointed: the frozen source store, every migrated
// batch and a progress record are persisted as checksummed store
// manifests, so a daemon killed mid-backfill resumes from the last intact
// checkpoint on restart — committed batches are reused, a torn batch
// record is detected by its checksum and re-run.

// Rollout phases.
const (
	phaseProposed   = "proposed"
	phaseCanary     = "canary"
	phaseBackfill   = "backfill"
	phaseCutover    = "cutover"
	phaseVerify     = "verify"
	phaseDone       = "done"
	phaseRolledback = "rolledback"
	phaseFailed     = "failed"
	phaseSuspended  = "suspended" // daemon drained mid-backfill; resumes on restart
)

// Rollout counters, resolved once.
var (
	mRolloutStarted      = obsv.Metrics().Counter(obsv.MRolloutStarted)
	mRolloutCutovers     = obsv.Metrics().Counter(obsv.MRolloutCutovers)
	mRolloutRollbacks    = obsv.Metrics().Counter(obsv.MRolloutRollbacks)
	mRolloutGateFailures = obsv.Metrics().Counter(obsv.MRolloutGateFailures)
	mRolloutDivergences  = obsv.Metrics().Counter(obsv.MRolloutDivergences)
	mBackfillBatches     = obsv.Metrics().Counter(obsv.MBackfillBatches)
	mBackfillRetries     = obsv.Metrics().Counter(obsv.MBackfillRetries)
	mBackfillResumed     = obsv.Metrics().Counter(obsv.MBackfillResumed)
)

// Checkpoint manifest names.
func rolloutManifestName(tenant string) string { return "rollout-" + manifestKey(tenant) }
func rolloutSrcName(tenant string) string      { return rolloutManifestName(tenant) + "-src" }
func rolloutBatchName(tenant string, i int) string {
	return fmt.Sprintf("%s-b%d", rolloutManifestName(tenant), i)
}

// wireStrategies is the wire form of the pluggable update-view strategy
// dispatch: a default plus per-hierarchy (keyed by root entity type) and
// per-association overrides, by name ("null", "default", "reject").
type wireStrategies struct {
	Default     string            `json:"default,omitempty"`
	ByHierarchy map[string]string `json:"byHierarchy,omitempty"`
	ByAssoc     map[string]string `json:"byAssoc,omitempty"`
}

func (w wireStrategies) toStrategies() (xver.Strategies, error) {
	out := xver.Strategies{}
	var err error
	if out.Default, err = xver.StrategyByName(w.Default); err != nil {
		return out, err
	}
	if len(w.ByHierarchy) > 0 {
		out.ByHierarchy = map[string]xver.Strategy{}
		for root, name := range w.ByHierarchy {
			if out.ByHierarchy[root], err = xver.StrategyByName(name); err != nil {
				return out, err
			}
		}
	}
	if len(w.ByAssoc) > 0 {
		out.ByAssoc = map[string]xver.Strategy{}
		for assoc, name := range w.ByAssoc {
			if out.ByAssoc[assoc], err = xver.StrategyByName(name); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// rolloutRequest is the POST /v1/tenants/{name}/rollout body.
type rolloutRequest struct {
	// SMOs are the schema modification operations the new generation
	// applies, in order.
	SMOs []WireSMO `json:"smos"`
	// Strategies select the update-view generation policy for gap columns.
	Strategies wireStrategies `json:"strategies,omitempty"`
	// Per-rollout overrides of the hot config (0 keeps the config value).
	CanarySamples   int  `json:"canarySamples,omitempty"`
	BatchRows       int  `json:"batchRows,omitempty"`
	MaxDivergence   *int `json:"maxDivergence,omitempty"`
	MaxErrorRatePct int  `json:"maxErrorRatePct,omitempty"`
	// BatchDelayMs slows each backfill batch (soak drivers use it to make
	// mid-backfill kills land deterministically).
	BatchDelayMs int64 `json:"batchDelayMs,omitempty"`
	// Seed drives the canary's synthetic states.
	Seed uint32 `json:"seed,omitempty"`
}

// RolloutStatus is the wire status of a rollout.
type RolloutStatus struct {
	ID           int64    `json:"id"`
	Tenant       string   `json:"tenant"`
	Phase        string   `json:"phase"`
	FromFP       string   `json:"fromFingerprint,omitempty"`
	ToFP         string   `json:"toFingerprint,omitempty"`
	BatchesDone  int      `json:"batchesDone"`
	TotalBatches int      `json:"totalBatches"`
	Divergences  int64    `json:"divergences"`
	GateFailures int64    `json:"gateFailures"`
	Resumed      bool     `json:"resumed,omitempty"`
	ReusedBatch  int      `json:"reusedBatches,omitempty"`
	Notes        []string `json:"notes,omitempty"`
	Error        string   `json:"error,omitempty"`
}

// batchSpec is one deterministic backfill unit: a half-open row range of
// one source table. The enumeration (tables sorted, rows in stored order)
// is a pure function of the frozen source and the batch size, so a resumed
// daemon recomputes the identical schedule.
type batchSpec struct {
	Table string `json:"table"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

func planBatches(src *state.StoreState, batchRows int) []batchSpec {
	var out []batchSpec
	if src == nil {
		return out
	}
	tables := make([]string, 0, len(src.Tables))
	for t := range src.Tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		n := len(src.Tables[t])
		for start := 0; start < n; start += batchRows {
			end := start + batchRows
			if end > n {
				end = n
			}
			out = append(out, batchSpec{Table: t, Start: start, End: end})
		}
	}
	return out
}

// rolloutCheckpoint is the persisted progress record (the "rollout-<t>"
// manifest). Together with the source snapshot, the staged generation
// (content-addressed by ToFP) and the per-batch records it is everything a
// restarted daemon needs to resume.
type rolloutCheckpoint struct {
	ID         int64          `json:"id"`
	Phase      string         `json:"phase"`
	ToFP       string         `json:"toFingerprint"`
	BatchRows  int            `json:"batchRows"`
	Strategies wireStrategies `json:"strategies"`
	Done       int            `json:"done"`
	Total      int            `json:"total"`
}

// rollout is one tenant's rollout in flight (or its terminal record).
type rollout struct {
	t   *tenant
	id  int64
	req rolloutRequest
	// evolves0 and errors0 are the tenant's evolve and error counts when
	// the rollout started: the health gate judges only the evolves since.
	evolves0, errors0 int64

	mu           sync.Mutex
	phase        string
	fromFP, toFP string
	batchesDone  int
	totalBatches int
	divergences  int64
	gateFailures int64
	resumed      bool
	reused       int
	notes        []string
	err          string

	// Populated as phases run; guarded by the phase discipline (only the
	// rollout goroutine writes them).
	from     xver.Gen
	pending  pipeline.Generation
	plan     *xver.Plan
	src      *state.StoreState
	migrated *state.StoreState
	batches  []batchSpec

	doneCh chan struct{}
}

// newRollout starts a rollout record for t in the given phase, snapshotting
// the tenant's evolve counters so that failures from before the rollout
// never count against its health gate.
func newRollout(t *tenant, id int64, req rolloutRequest, phase string) *rollout {
	return &rollout{
		t: t, id: id, req: req, phase: phase,
		evolves0: t.evolves.Load(), errors0: t.errors.Load(),
		doneCh: make(chan struct{}),
	}
}

// finished reports whether the rollout reached a terminal phase.
func (r *rollout) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.phase {
	case phaseDone, phaseRolledback, phaseFailed, phaseSuspended:
		return true
	}
	return false
}

func (r *rollout) snapshot() *RolloutStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	notes := make([]string, len(r.notes))
	copy(notes, r.notes)
	return &RolloutStatus{
		ID:           r.id,
		Tenant:       r.t.name,
		Phase:        r.phase,
		FromFP:       r.fromFP,
		ToFP:         r.toFP,
		BatchesDone:  r.batchesDone,
		TotalBatches: r.totalBatches,
		Divergences:  r.divergences,
		GateFailures: r.gateFailures,
		Resumed:      r.resumed,
		ReusedBatch:  r.reused,
		Notes:        notes,
		Error:        r.err,
	}
}

func (r *rollout) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

func (r *rollout) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *rollout) diverge(what, detail string) {
	r.mu.Lock()
	r.divergences++
	r.mu.Unlock()
	mRolloutDivergences.Add(1)
	if len(detail) > 200 {
		detail = detail[:200] + "…"
	}
	r.note("divergence (%s): %s", what, detail)
}

// effective merges the hot rollout config with this rollout's request
// overrides. Re-read at every gate, so a SIGHUP reload adjusts the
// thresholds of rollouts already in flight.
func (r *rollout) effective() RolloutConfig {
	c := r.t.srv.cfg().rollout
	if r.req.CanarySamples > 0 {
		c.CanarySamples = r.req.CanarySamples
	}
	if r.req.BatchRows > 0 {
		c.BatchRows = r.req.BatchRows
	}
	if r.req.MaxDivergence != nil {
		c.MaxDivergence = *r.req.MaxDivergence
	}
	if r.req.MaxErrorRatePct > 0 {
		c.MaxErrorRatePct = r.req.MaxErrorRatePct
	}
	return c
}

// gate evaluates the health gates at one stage. A false verdict means the
// caller must roll back; the reason is recorded.
func (r *rollout) gate(stage string) bool {
	fail := func(reason string) bool {
		r.mu.Lock()
		r.gateFailures++
		r.mu.Unlock()
		mRolloutGateFailures.Add(1)
		r.note("gate failed at %s: %s", stage, reason)
		return false
	}
	if err := faultinject.At(faultinject.SiteRolloutGate); err != nil {
		return fail(err.Error())
	}
	eff := r.effective()
	if st := r.t.status(); st.Stale {
		return fail(fmt.Sprintf("tenant serving state is stale: %s", st.StaleReason))
	}
	evolves, errs := r.t.evolves.Load()-r.evolves0, r.t.errors.Load()-r.errors0
	if evolves > 0 {
		if rate := errs * 100 / evolves; rate > int64(eff.MaxErrorRatePct) {
			return fail(fmt.Sprintf("evolve error rate %d%% exceeds %d%%", rate, eff.MaxErrorRatePct))
		}
	}
	if eff.MaxDivergence >= 0 {
		r.mu.Lock()
		div := r.divergences
		r.mu.Unlock()
		if div > int64(eff.MaxDivergence) {
			return fail(fmt.Sprintf("%d divergences exceed gate threshold %d", div, eff.MaxDivergence))
		}
	}
	return true
}

// run drives the state machine. Every exit path leaves the rollout in a
// terminal phase and the tenant in a coherent state; panics anywhere roll
// back like a gate failure.
func (r *rollout) run() {
	defer close(r.doneCh)
	defer func() {
		if rec := recover(); rec != nil {
			mHandlerPanics.Add(1)
			r.note("panic: %v", rec)
			debug.PrintStack()
			if r.pastCutover() {
				r.rollbackPost(fmt.Sprintf("panic during rollout: %v", rec))
			} else {
				r.rollbackPre(fmt.Sprintf("panic during rollout: %v", rec))
			}
		}
	}()
	if !r.resumed {
		if !r.propose() {
			return
		}
		if !r.canary() {
			return
		}
	}
	if !r.backfill() {
		return
	}
	if !r.cutover() {
		return
	}
	if !r.verify() {
		return
	}
	r.retire()
}

// pastCutover reports whether the serving generation has already switched.
func (r *rollout) pastCutover() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase == phaseVerify || r.phase == phaseDone
}

// propose compiles the new generation through the session's fallback
// ladder without committing it, under the global compile semaphore.
func (r *rollout) propose() bool {
	t := r.t
	smos, err := toSMOs(r.req.SMOs)
	if err != nil {
		r.fail(err.Error())
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.srv.cfg().evolveTimeout)
	defer cancel()
	select {
	case t.srv.sem <- struct{}{}:
	case <-ctx.Done():
		r.fail("timed out waiting for a compile slot")
		return false
	}
	head := t.session.Head()
	pg, perr := t.session.Propose(ctx, smos...)
	<-t.srv.sem
	if perr != nil {
		r.fail(fmt.Sprintf("propose: %v", perr))
		return false
	}
	strat, serr := r.req.Strategies.toStrategies()
	if serr != nil {
		_ = t.session.DiscardPending()
		r.fail(serr.Error())
		return false
	}
	plan, xerr := xver.Compile(xver.Gen{M: head.M, V: head.V}, xver.Gen{M: pg.M, V: pg.V}, strat)
	if xerr != nil {
		_ = t.session.DiscardPending()
		r.fail(fmt.Sprintf("cross-version compile: %v", xerr))
		return false
	}
	r.from = xver.Gen{M: head.M, V: head.V}
	r.pending = pg
	r.plan = plan
	r.mu.Lock()
	r.fromFP = head.FP
	r.toFP = pg.FP
	r.mu.Unlock()
	for _, n := range plan.Notes {
		r.note("plan: %s", n)
	}
	return true
}

// canary round-trips synthetic version-k states through the cross-version
// views and checks the tenant's live rows migrate losslessly, then
// evaluates the gate.
func (r *rollout) canary() bool {
	r.setPhase(phaseCanary)
	eff := r.effective()
	for i := 0; i < eff.CanarySamples; i++ {
		cs := orm.RandomState(r.from.M, r.req.Seed+uint32(i), 3)
		d, err := r.plan.CheckRoundtrip(cs)
		switch {
		case err != nil:
			r.diverge(fmt.Sprintf("canary %d", i), err.Error())
		case d != "":
			r.diverge(fmt.Sprintf("canary %d", i), d)
		}
	}
	if data, _, _, _ := r.t.dataSnapshot(); data != nil {
		d, err := r.plan.CheckMigration(data)
		switch {
		case err != nil:
			r.diverge("live migration", err.Error())
		case d != "":
			r.diverge("live migration", d)
		}
	}
	if !r.gate("canary") {
		r.rollbackPre("canary gate failed")
		return false
	}
	return true
}

// backfill freezes the tenant's rows and migrates them to the new layout
// in bounded, retried, checkpointed batches.
func (r *rollout) backfill() bool {
	t := r.t
	eff := r.effective()

	if !r.resumed {
		r.setPhase(phaseBackfill)
		t.dataMu.Lock()
		if t.data == nil {
			t.data = state.NewStoreState()
		}
		r.src = t.data
		t.frozen = true
		t.dataMu.Unlock()
		r.batches = planBatches(r.src, eff.BatchRows)
		r.migrated = state.NewStoreState()
		r.mu.Lock()
		r.totalBatches = len(r.batches)
		r.mu.Unlock()
		if !r.persistSrc(eff.BatchRows) {
			// Without a durable source snapshot, a crash mid-backfill
			// could not resume; proceed un-checkpointed only when no
			// store is configured at all.
			if t.srv.opts.Store != nil {
				r.rollbackPre("persisting backfill source snapshot failed")
				return false
			}
		}
	}

	for i := r.batchesDoneNow(); i < len(r.batches); i++ {
		if t.srv.draining.Load() {
			r.note("daemon draining: backfill suspended at batch %d/%d", i, len(r.batches))
			r.setPhase(phaseSuspended)
			return false
		}
		if r.req.BatchDelayMs > 0 {
			time.Sleep(time.Duration(r.req.BatchDelayMs) * time.Millisecond)
		}
		if !r.oneBatch(i, eff) {
			return false
		}
	}
	return true
}

func (r *rollout) batchesDoneNow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batchesDone
}

// oneBatch migrates one batch with retry/backoff, persisting the batch
// record and then the progress checkpoint (in that order, so a progress
// record never points past an unwritten batch).
func (r *rollout) oneBatch(i int, eff RolloutConfig) bool {
	b := r.batches[i]
	backoff := eff.BackfillBackoff
	for attempt := 0; ; attempt++ {
		err := r.tryBatch(i, b)
		if err == nil {
			break
		}
		if attempt >= eff.BackfillRetries {
			r.rollbackPre(fmt.Sprintf("batch %d (%s rows %d:%d) failed after %d retries: %v",
				i, b.Table, b.Start, b.End, attempt, err))
			return false
		}
		mBackfillRetries.Add(1)
		r.note("batch %d retry %d: %v", i, attempt+1, err)
		time.Sleep(backoff)
		backoff *= 2
	}
	mBackfillBatches.Add(1)
	r.mu.Lock()
	r.batchesDone = i + 1
	r.mu.Unlock()
	r.persistProgress(phaseBackfill, eff.BatchRows)
	return true
}

func (r *rollout) tryBatch(i int, b batchSpec) error {
	if err := faultinject.At(faultinject.SiteBackfillBatch); err != nil {
		return err
	}
	rows := r.src.Tables[b.Table][b.Start:b.End]
	out, _, err := r.plan.TransformTable(b.Table, rows)
	if err != nil {
		return err
	}
	if st := r.t.srv.opts.Store; st != nil {
		chunk := state.NewStoreState()
		chunk.Tables[b.Table] = out
		payload, perr := modelio.EncodeRows(chunk)
		if perr != nil {
			return perr
		}
		if serr := st.SaveManifest(rolloutBatchName(r.t.name, i), payload); serr != nil {
			return serr
		}
	}
	if len(out) > 0 {
		r.migrated.Tables[b.Table] = append(r.migrated.Tables[b.Table], out...)
	}
	return nil
}

// cutover promotes the staged generation and swaps the data plane, after a
// final gate over the fully migrated store.
func (r *rollout) cutover() bool {
	r.setPhase(phaseCutover)
	t := r.t

	// Final divergence check: the version-k client state reconstructed
	// from the migrated store must match the one the source store held.
	if d, err := r.plan.CheckMigration(r.src); err != nil {
		r.diverge("cutover migration", err.Error())
	} else if d != "" {
		r.diverge("cutover migration", d)
	}
	if !r.gate("cutover") {
		r.rollbackPre("cutover gate failed")
		return false
	}

	head, err := t.session.PromotePending()
	if err != nil {
		r.rollbackPre(fmt.Sprintf("promote: %v", err))
		return false
	}
	_ = t.srv.saveManifest()
	t.dataMu.Lock()
	t.prevData = r.src
	t.data = r.migrated
	t.xplan = r.plan
	t.frozen = false
	t.persistDataLocked()
	t.dataMu.Unlock()
	mRolloutCutovers.Add(1)
	r.note("cutover: serving generation %s", head.FP)
	r.setPhase(phaseVerify)
	r.persistProgress(phaseVerify, r.effective().BatchRows)
	return true
}

// verify is the post-cutover gate: version-k reads of the live store must
// still reconstruct the pre-cutover client state, and the health gates
// must hold. Failure rolls the generation and the rows back.
func (r *rollout) verify() bool {
	data, _, _, _ := r.t.dataSnapshot()
	old, err := orm.Load(r.from.M, r.from.V, r.src)
	if err != nil {
		r.diverge("verify", fmt.Sprintf("loading source state: %v", err))
	} else {
		cur, rerr := r.plan.ReadClient(context.TODO(), exec.NewMapStore(data), exec.Options{})
		switch {
		case rerr != nil:
			r.diverge("verify", rerr.Error())
		default:
			if d := state.Diff(old, cur); d != "" {
				r.diverge("verify", d)
			}
		}
	}
	if !r.gate("verify") {
		r.rollbackPost("post-cutover gate failed")
		return false
	}
	return true
}

// retire deletes the rollout's checkpoints and finishes.
func (r *rollout) retire() {
	r.deleteCheckpoints()
	r.setPhase(phaseDone)
	r.note("rollout complete")
}

// fail terminates without rollback side effects (nothing was staged).
func (r *rollout) fail(reason string) {
	r.mu.Lock()
	r.phase = phaseFailed
	r.err = reason
	r.mu.Unlock()
}

// rollbackPre aborts before cutover: the staged generation is discarded,
// the data plane was never touched (unfreeze it), checkpoints are
// retired. The serving generation and rows are bit-for-bit what they were.
func (r *rollout) rollbackPre(reason string) {
	t := r.t
	_ = t.session.DiscardPending()
	t.dataMu.Lock()
	t.frozen = false
	t.dataMu.Unlock()
	r.deleteCheckpoints()
	mRolloutRollbacks.Add(1)
	r.mu.Lock()
	r.phase = phaseRolledback
	r.err = reason
	r.mu.Unlock()
}

// rollbackPost undoes a cutover: the session re-commits the version-k
// generation verbatim (monotone generation counter, identical mapping and
// view pointers) and the data plane is restored to the frozen source.
func (r *rollout) rollbackPost(reason string) {
	t := r.t
	if _, err := t.session.Rollback(); err != nil {
		r.mu.Lock()
		r.phase = phaseFailed
		r.err = fmt.Sprintf("rollback after %q: %v", reason, err)
		r.mu.Unlock()
		return
	}
	_ = t.srv.saveManifest()
	t.dataMu.Lock()
	t.data = r.src
	t.prevData = nil
	t.xplan = nil
	t.frozen = false
	t.persistDataLocked()
	t.dataMu.Unlock()
	r.deleteCheckpoints()
	mRolloutRollbacks.Add(1)
	r.mu.Lock()
	r.phase = phaseRolledback
	r.err = reason
	r.mu.Unlock()
}

// --- checkpoint persistence ---------------------------------------------

func (r *rollout) persistSrc(batchRows int) bool {
	st := r.t.srv.opts.Store
	if st == nil {
		return false
	}
	payload, err := modelio.EncodeRows(r.src)
	if err != nil {
		return false
	}
	if st.SaveManifest(rolloutSrcName(r.t.name), payload) != nil {
		return false
	}
	return r.persistProgress(phaseBackfill, batchRows)
}

func (r *rollout) persistProgress(phase string, batchRows int) bool {
	st := r.t.srv.opts.Store
	if st == nil {
		return false
	}
	r.mu.Lock()
	cp := rolloutCheckpoint{
		ID:         r.id,
		Phase:      phase,
		ToFP:       r.toFP,
		BatchRows:  batchRows,
		Strategies: r.req.Strategies,
		Done:       r.batchesDone,
		Total:      r.totalBatches,
	}
	r.mu.Unlock()
	payload, err := json.Marshal(&cp)
	if err != nil {
		return false
	}
	// The checkpoint references the staged generation, so the store keeps
	// its record for the resume.
	var refs []string
	if cp.ToFP != "" {
		refs = append(refs, cp.ToFP)
	}
	return st.SaveManifest(rolloutManifestName(r.t.name), payload, refs...) == nil
}

func (r *rollout) deleteCheckpoints() {
	st := r.t.srv.opts.Store
	if st == nil {
		return
	}
	_ = st.DeleteManifest(rolloutManifestName(r.t.name))
	_ = st.DeleteManifest(rolloutSrcName(r.t.name))
	r.mu.Lock()
	total := r.totalBatches
	r.mu.Unlock()
	for i := 0; i < total; i++ {
		_ = st.DeleteManifest(rolloutBatchName(r.t.name, i))
	}
}

// --- crash resume --------------------------------------------------------

// resumeRollout restarts a backfill interrupted by a crash or drain. It
// reloads the staged generation by content address, restages it in the
// session, recompiles the cross-version plan, and counts the longest
// contiguous prefix of intact batch checkpoints — those batches are reused
// (never re-migrated); the first torn or missing record and everything
// after it re-run. Called during tenant restore, before the daemon serves.
func (s *Server) resumeRollout(t *tenant) {
	st := s.opts.Store
	payload, err := st.LoadManifest(rolloutManifestName(t.name))
	if err != nil {
		return // no rollout in flight
	}
	var cp rolloutCheckpoint
	if json.Unmarshal(payload, &cp) != nil {
		s.abandonRollout(t, 0)
		return
	}
	if cp.Phase != phaseBackfill {
		// Cutover already happened (or never started): the committed
		// generation in the manifest is authoritative; retire leftovers.
		s.abandonRollout(t, cp.Total)
		return
	}
	abandon := func() {
		_ = t.session.DiscardPending()
		s.abandonRollout(t, cp.Total)
	}
	m, v, gerr := st.LoadGeneration(cp.ToFP)
	if gerr != nil {
		abandon()
		return
	}
	pg, rerr := t.session.ResumePending(cp.ToFP, m, v)
	if rerr != nil {
		abandon()
		return
	}
	strat, serr := cp.Strategies.toStrategies()
	if serr != nil {
		abandon()
		return
	}
	head := t.session.Head()
	plan, xerr := xver.Compile(xver.Gen{M: head.M, V: head.V}, xver.Gen{M: pg.M, V: pg.V}, strat)
	if xerr != nil {
		abandon()
		return
	}
	srcPayload, perr := st.LoadManifest(rolloutSrcName(t.name))
	if perr != nil {
		abandon()
		return
	}
	src, derr := modelio.DecodeRows(srcPayload)
	if derr != nil {
		abandon()
		return
	}

	r := newRollout(t, s.rolloutSeq.Add(1),
		rolloutRequest{Strategies: cp.Strategies, BatchRows: cp.BatchRows}, phaseBackfill)
	r.fromFP = head.FP
	r.toFP = cp.ToFP
	r.resumed = true
	r.from = xver.Gen{M: head.M, V: head.V}
	r.pending = pg
	r.plan = plan
	r.src = src
	r.batches = planBatches(src, cp.BatchRows)
	r.totalBatches = len(r.batches)

	// Reuse the longest contiguous prefix of intact batch checkpoints, up
	// to the progress record's count. A batch whose record is torn (the
	// store's checksum rejects it) re-runs; committed ones never do.
	r.migrated = state.NewStoreState()
	valid := 0
	for i := 0; i < cp.Done && i < len(r.batches); i++ {
		bp, berr := st.LoadManifest(rolloutBatchName(t.name, i))
		if berr != nil {
			break
		}
		chunk, cerr := modelio.DecodeRows(bp)
		if cerr != nil {
			break
		}
		for table, rows := range chunk.Tables {
			if len(rows) > 0 {
				r.migrated.Tables[table] = append(r.migrated.Tables[table], rows...)
			}
		}
		valid++
	}
	r.batchesDone = valid
	r.reused = valid
	if valid > 0 {
		mBackfillResumed.Add(int64(valid))
	}
	r.note("resumed backfill at batch %d/%d (%d checkpointed batches reused)", valid, len(r.batches), valid)

	// The data plane must serve the frozen source until cutover.
	t.dataMu.Lock()
	t.data = src
	t.frozen = true
	t.dataMu.Unlock()

	t.roMu.Lock()
	t.ro = r
	t.roMu.Unlock()
	mRolloutStarted.Add(1)
	go r.run()
}

// abandonRollout clears checkpoint leftovers for a rollout that cannot
// resume (damaged records, missing generation). The tenant serves its
// committed generation; the operator re-issues the rollout.
func (s *Server) abandonRollout(t *tenant, total int) {
	st := s.opts.Store
	_ = st.DeleteManifest(rolloutManifestName(t.name))
	_ = st.DeleteManifest(rolloutSrcName(t.name))
	if total <= 0 {
		total = 1 << 12
	}
	for i := 0; i < total; i++ {
		_ = st.DeleteManifest(rolloutBatchName(t.name, i))
	}
}

// --- HTTP ----------------------------------------------------------------

func (s *Server) handleRolloutPost(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, errDraining)
		return
	}
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	var req rolloutRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.SMOs) == 0 {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: "rollout needs at least one SMO"})
		return
	}
	if _, err := toSMOs(req.SMOs); err != nil {
		writeError(w, err)
		return
	}
	if _, err := req.Strategies.toStrategies(); err != nil {
		writeError(w, &apiError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}

	t.roMu.Lock()
	if t.ro != nil && !t.ro.finished() {
		active := t.ro.snapshot()
		t.roMu.Unlock()
		writeError(w, &apiError{
			status: http.StatusConflict,
			msg:    fmt.Sprintf("rollout %d already active in phase %q", active.ID, active.Phase),
		})
		return
	}
	ro := newRollout(t, s.rolloutSeq.Add(1), req, phaseProposed)
	t.ro = ro
	t.roMu.Unlock()
	mRolloutStarted.Add(1)
	go ro.run()
	writeJSON(w, http.StatusAccepted, ro.snapshot())
}

func (s *Server) handleRolloutGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	ro := t.lastRollout()
	if ro == nil {
		writeError(w, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("tenant %q has no rollout", t.name)})
		return
	}
	writeJSON(w, http.StatusOK, ro.snapshot())
}

// toSMOs decodes a wire SMO list.
func toSMOs(ws []WireSMO) ([]core.SMO, *apiError) {
	out := make([]core.SMO, 0, len(ws))
	for i := range ws {
		op, err := ws[i].ToSMO()
		if err != nil {
			return nil, err
		}
		out = append(out, op)
	}
	return out, nil
}
