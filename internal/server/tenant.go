package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/xver"
)

// tenant is one registered model: a session, whose head is the serving
// generation, and a bounded evolve queue drained by a single worker
// goroutine. The single worker per tenant serializes that tenant's evolves
// (matching the session's own evolveMu) while tenants evolve concurrently
// with one another, throttled only by the server's global compile
// semaphore.
type tenant struct {
	name    string
	session *pipeline.Session
	budget  fault.Budget
	srv     *Server
	// genBase offsets the session's commit counter into the wire
	// generation (genBase + Head().Seq): 0 for a registered tenant, the
	// manifest's generation − 1 for a restored one, whose new session
	// starts again at Seq 1, so numbers continue across restarts.
	genBase int64

	// queue is the bounded admission queue. Admission never blocks: a
	// full queue sheds synchronously with 429.
	queue chan *evolveReq
	// drainCh closes when the server drains; done closes when the worker
	// has shed the queue remainder and exited.
	drainCh   chan struct{}
	drainOnce sync.Once
	done      chan struct{}

	// stale records the latest evolve that did not commit, against the
	// head it left serving; the next commit moves the head and so clears it.
	stale atomic.Pointer[staleMark]

	// evolveEWMA tracks the recent average evolve duration in
	// nanoseconds (atomic), seeding the deadline-aware admission
	// estimate. Zero until the first evolve completes.
	evolveEWMA atomic.Int64

	// Counters (atomic).
	evolves    atomic.Int64
	errors     atomic.Int64
	shed       atomic.Int64
	reads      atomic.Int64
	staleReads atomic.Int64

	// dataMu guards the tenant's row store and cross-version artifacts:
	// data is the serving store state, prevData the frozen pre-cutover
	// snapshot kept for post-cutover rollback and version-k clients, and
	// xplan the cross-version plan that lets those clients keep reading and
	// writing after cutover. frozen marks the backfill window, during which
	// writes are rejected with 409 (reads continue against data).
	dataMu   sync.RWMutex
	data     *state.StoreState
	prevData *state.StoreState
	xplan    *xver.Plan
	frozen   bool

	// roMu guards ro, the tenant's most recent rollout (at most one can be
	// active; a finished one stays for GET status until the next starts).
	roMu sync.Mutex
	ro   *rollout
}

// staleMark says the evolve requested while head seq served did not
// commit, and why.
type staleMark struct {
	seq    int64
	reason string
}

// at reports whether the mark applies to the head with the given Seq.
func (m *staleMark) at(seq int64) bool { return m != nil && m.seq == seq }

// evolveReq is one admitted evolve waiting for the tenant worker.
type evolveReq struct {
	ctx   context.Context
	op    core.SMO
	reply chan evolveResult
}

type evolveResult struct {
	status *TenantStatus
	err    *apiError
}

func (s *Server) newTenant(name string, sess *pipeline.Session, b fault.Budget, genBase int64) *tenant {
	t := &tenant{
		name:    name,
		session: sess,
		budget:  b,
		srv:     s,
		genBase: genBase,
		queue:   make(chan *evolveReq, s.opts.QueueDepth),
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go t.worker()
	return t
}

// generation is the wire number of a session generation.
func (t *tenant) generation(g pipeline.Generation) int64 { return t.genBase + g.Seq }

// status renders the tenant's wire status at the session's current head.
func (t *tenant) status() *TenantStatus {
	return t.statusAt(t.session.Head(), t.stale.Load())
}

// statusAt renders the wire status of one head snapshot and the staleness
// mark read with it.
func (t *tenant) statusAt(head pipeline.Generation, mark *staleMark) *TenantStatus {
	st := &TenantStatus{
		Name:        t.name,
		Generation:  t.generation(head),
		Fingerprint: head.FP,
		Evolves:     t.evolves.Load(),
		Errors:      t.errors.Load(),
		Shed:        t.shed.Load(),
		Reads:       t.reads.Load(),
		StaleReads:  t.staleReads.Load(),
		QueueDepth:  len(t.queue),
	}
	if mark.at(head.Seq) {
		st.Stale, st.StaleReason = true, mark.reason
	}
	return st
}

// read takes one snapshot of the session head for a read request, counts
// the read, and returns the head with its status. Reads never fail: the
// worst case is an explicitly flagged stale generation.
func (t *tenant) read() (pipeline.Generation, *TenantStatus) {
	head, mark := t.session.Head(), t.stale.Load()
	t.reads.Add(1)
	if mark.at(head.Seq) {
		t.staleReads.Add(1)
		mStaleServes.Add(1)
	}
	return head, t.statusAt(head, mark)
}

// beginDrain signals the worker to shed the queue remainder and exit
// after the in-flight evolve (if any) finishes.
func (t *tenant) beginDrain() {
	t.drainOnce.Do(func() { close(t.drainCh) })
}

// admit applies the load-shedding ladder and either enqueues the request
// or rejects it — always before any compilation work:
//
//  1. an injected admission fault sheds (the overload drill);
//  2. a draining server rejects with 503;
//  3. a full queue sheds with 429 and a Retry-After estimated from the
//     tenant's recent evolve duration;
//  4. a deadline the queue cannot meet — estimated wait exceeds the
//     request's remaining time — sheds with 429 rather than letting the
//     request time out inside the queue holding a slot.
func (t *tenant) admit(req *evolveReq) *apiError {
	if err := faultinject.At(faultinject.SiteServerAdmit); err != nil {
		t.shed.Add(1)
		mShed.Add(1)
		return &apiError{status: http.StatusTooManyRequests, msg: fmt.Sprintf("admission: %v", err), retryAfter: t.retryAfter(1)}
	}
	if t.srv.draining.Load() {
		return errDraining
	}
	if ro := t.activeRollout(); ro != nil {
		// A staged generation owns the tenant's evolution until it cuts
		// over or rolls back; a conflicting evolve is a 409, not overload.
		return &apiError{
			status: http.StatusConflict,
			msg:    fmt.Sprintf("rollout %d in phase %q owns tenant %q; evolve after cutover or rollback", ro.snapshot().ID, ro.snapshot().Phase, t.name),
		}
	}
	// The hot config may have tightened the admission bound below the
	// channel capacity; admission honors the tighter of the two.
	if depth := t.effectiveDepth(); len(t.queue) >= depth {
		t.shed.Add(1)
		mShed.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("tenant %q queue full (%d deep)", t.name, depth),
			retryAfter: t.retryAfter(depth),
		}
	}
	if wait, ok := t.estimatedWait(len(t.queue) + 1); ok {
		if dl, has := req.ctx.Deadline(); has && time.Until(dl) < wait {
			t.shed.Add(1)
			mShed.Add(1)
			return &apiError{
				status:     http.StatusTooManyRequests,
				msg:        fmt.Sprintf("estimated queue wait %s exceeds request deadline", wait.Round(time.Millisecond)),
				retryAfter: wait,
			}
		}
	}
	select {
	case t.queue <- req:
		return nil
	default:
		t.shed.Add(1)
		mShed.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("tenant %q queue full (%d deep)", t.name, cap(t.queue)),
			retryAfter: t.retryAfter(cap(t.queue)),
		}
	}
}

// effectiveDepth is the admission bound: the hot-config depth, clamped to
// the channel capacity fixed at registration.
func (t *tenant) effectiveDepth() int {
	depth := t.srv.cfg().queueDepth
	if depth <= 0 || depth > cap(t.queue) {
		depth = cap(t.queue)
	}
	return depth
}

// activeRollout returns the tenant's rollout if one is still running.
func (t *tenant) activeRollout() *rollout {
	t.roMu.Lock()
	defer t.roMu.Unlock()
	if t.ro != nil && !t.ro.finished() {
		return t.ro
	}
	return nil
}

// lastRollout returns the most recent rollout, finished or not.
func (t *tenant) lastRollout() *rollout {
	t.roMu.Lock()
	defer t.roMu.Unlock()
	return t.ro
}

// estimatedWait projects how long n queued evolves will take from the
// EWMA of recent evolve durations. Before the first completed evolve
// there is no estimate (ok=false): the queue bound alone sheds.
func (t *tenant) estimatedWait(n int) (time.Duration, bool) {
	ewma := t.evolveEWMA.Load()
	if ewma <= 0 {
		return 0, false
	}
	return time.Duration(ewma) * time.Duration(n), true
}

// retryAfter suggests when the caller should try again: the projected
// time to drain n queue slots, at least one second (the HTTP header has
// whole-second resolution).
func (t *tenant) retryAfter(n int) time.Duration {
	if wait, ok := t.estimatedWait(n); ok && wait > time.Second {
		return wait
	}
	return time.Second
}

// worker is the tenant's single evolve loop. It exists so that a panic, a
// budget exhaustion or an injected fault in one tenant's compile is
// contained to that tenant: the worker recovers, flags the serving state
// stale, answers the request, and keeps going.
func (t *tenant) worker() {
	defer close(t.done)
	for {
		// Priority check: once drain is signalled, no further queued
		// evolve starts (select alone would pick randomly between a
		// closed drainCh and a non-empty queue).
		select {
		case <-t.drainCh:
			t.shedQueue()
			return
		default:
		}
		select {
		case <-t.drainCh:
			t.shedQueue()
			return
		case req := <-t.queue:
			res := t.process(req)
			req.reply <- res
		}
	}
}

// shedQueue rejects everything still queued at drain time. In-flight work
// has already finished (the worker processes one request at a time).
func (t *tenant) shedQueue() {
	for {
		select {
		case req := <-t.queue:
			t.shed.Add(1)
			mShed.Add(1)
			req.reply <- evolveResult{err: errDraining}
		default:
			return
		}
	}
}

// process runs one admitted evolve under the global compile semaphore and
// the tenant's timeout, converting every failure mode — cancellation
// while queued, compile errors, panics — into a stale-but-serving state
// and a typed API error.
func (t *tenant) process(req *evolveReq) evolveResult {
	select {
	case t.srv.sem <- struct{}{}:
	case <-req.ctx.Done():
		t.errors.Add(1)
		mEvolveErrors.Add(1)
		t.markStale("timed out waiting for a compile slot")
		return evolveResult{err: &apiError{status: http.StatusGatewayTimeout, msg: "timed out waiting for a compile slot"}}
	}
	defer func() { <-t.srv.sem }()

	start := time.Now()
	err := t.evolveOne(req.ctx, req.op)
	t.observeDuration(time.Since(start))

	t.evolves.Add(1)
	if err != nil {
		if err.status == http.StatusConflict {
			// A rollout owns the session: the request lost a race, the
			// tenant's serving state is exactly as fresh as before.
			return evolveResult{status: t.status(), err: err}
		}
		t.errors.Add(1)
		mEvolveErrors.Add(1)
		t.markStale(err.Error())
		return evolveResult{status: t.status(), err: err}
	}
	return evolveResult{status: t.status(), err: nil}
}

// evolveOne applies one SMO through the session's fallback ladder,
// recovering panics from anywhere in the handler path (including the
// injected SiteServerHandler fault) so a poisonous SMO degrades the
// tenant instead of killing the daemon.
func (t *tenant) evolveOne(ctx context.Context, op core.SMO) (apiErr *apiError) {
	defer func() {
		if r := recover(); r != nil {
			mHandlerPanics.Add(1)
			apiErr = compileError("evolve", &fault.PanicError{Where: "evolve handler", Value: r, Stack: debug.Stack()})
		}
	}()
	if err := faultinject.At(faultinject.SiteServerHandler); err != nil {
		return compileError("evolve", err)
	}
	if _, _, err := t.session.Evolve(ctx, op); err != nil {
		if errors.Is(err, pipeline.ErrPendingGeneration) {
			// Raced a rollout past admission: a conflict, not a compile
			// failure — the tenant is not stale, the client must wait.
			return &apiError{status: http.StatusConflict, msg: fmt.Sprintf("evolve: %v", err)}
		}
		return compileError("evolve", err)
	}
	_ = t.srv.saveManifest()
	return nil
}

// markStale flags the serving head: the generation is unchanged (the
// session kept the pre-SMO generation) but the client's last requested
// evolution did not land.
func (t *tenant) markStale(reason string) {
	t.stale.Store(&staleMark{seq: t.session.Head().Seq, reason: reason})
}

// observeDuration folds one evolve duration into the EWMA (α = 1/4).
func (t *tenant) observeDuration(d time.Duration) {
	for {
		old := t.evolveEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if t.evolveEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// Evolve admits, queues and waits for one SMO against the tenant.
func (t *tenant) Evolve(ctx context.Context, op core.SMO) (*TenantStatus, *apiError) {
	req := &evolveReq{ctx: ctx, op: op, reply: make(chan evolveResult, 1)}
	if err := t.admit(req); err != nil {
		return nil, err
	}
	select {
	case res := <-req.reply:
		return res.status, res.err
	case <-ctx.Done():
		// The worker will still process the request (the queue slot is
		// taken); the buffered reply channel lets it complete without us.
		return nil, &apiError{status: http.StatusGatewayTimeout, msg: "evolve timed out in queue"}
	}
}
