// Package server implements mapserved, the multi-tenant mapping-compiler
// daemon: many named models (tenants), each backed by its own
// pipeline.Session, sharing one SatCache, one condition intern table and
// one persistent store across the process. The paper's incremental
// compiler pays off operationally when it runs as a long-lived service
// absorbing schema evolution from many applications at once — and a shared
// daemon turns every single-process robustness guarantee into a tenancy
// guarantee: one tenant's pathological model (the Figure 4 cliff) must not
// take down, starve, or corrupt anyone else.
//
// The robustness ladder, in the order a request meets it:
//
//   - Admission control: every evolve passes a bounded, deadline-aware
//     per-tenant queue. A full queue — or an estimated wait that exceeds
//     the request's deadline — rejects with 429 and a Retry-After hint
//     before any compilation work is enqueued, never after.
//   - Budgets: each tenant's compilations run under its own fault.Budget,
//     so an exponential-validation model exhausts its own allowance and
//     nobody else's workers.
//   - Graceful degradation: when an evolve fails — budget, validation,
//     injected fault, or a panic recovered by the worker — the tenant
//     keeps serving its last committed generation, with an explicit
//     staleness flag in every read until a later evolve commits. Reads
//     never 5xx.
//   - Lifecycle: Drain stops admission, sheds what is still queued,
//     finishes in-flight evolves, flushes write-behind snapshots and
//     persists the tenant manifest plus the SatCache, so a restarted
//     daemon warm-starts every tenant from the store without compiling.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/store"
)

// Process-wide daemon counters, resolved once.
var (
	mRequests      = obsv.Metrics().Counter(obsv.MServeRequests)
	mShed          = obsv.Metrics().Counter(obsv.MServeShed)
	mStaleServes   = obsv.Metrics().Counter(obsv.MServeStaleServes)
	mEvolveErrors  = obsv.Metrics().Counter(obsv.MServeEvolveErrors)
	mHandlerPanics = obsv.Metrics().Counter(obsv.MServeHandlerPanics)
)

// Options configures a daemon.
type Options struct {
	// QueueDepth bounds each tenant's evolve queue; an admission finding
	// the queue full sheds with 429. 0 means DefaultQueueDepth.
	QueueDepth int
	// MaxConcurrentCompiles bounds how many tenants may compile at once
	// (a global semaphore below the per-tenant queues, so a burst across
	// many tenants degrades to queueing, not to memory exhaustion).
	// 0 means half of GOMAXPROCS, at least 1.
	MaxConcurrentCompiles int
	// DefaultBudget applies to tenants registered without their own
	// budget. The zero budget is unlimited.
	DefaultBudget fault.Budget
	// EvolveTimeout caps one evolve's wall time, queue wait included.
	// Requests may ask for less via {"timeoutMs": n}; never for more.
	// 0 means DefaultEvolveTimeout.
	EvolveTimeout time.Duration
	// Store, when non-nil, is the shared persistent compile cache:
	// registrations warm-start from it, commits snapshot back to it, and
	// the tenant manifest written on every commit lets a restarted daemon
	// restore all tenants without compiling.
	Store *store.Store
	// WriteBehind persists snapshots off the evolve path; Drain flushes.
	WriteBehind bool
	// PersistRetries / PersistBackoff tune the snapshot retry ladder
	// (see pipeline.Options).
	PersistRetries int
	PersistBackoff time.Duration
	// Tracer, when non-nil, records every compilation span; when Sink is
	// also set, GET /debug/trace serves the accumulated Chrome trace.
	Tracer *obsv.Tracer
	// Sink is the recording sink behind Tracer, drained by /debug/trace.
	Sink *obsv.RecordingSink
	// Rollout tunes the versioned rollout engine (gates, backfill). These
	// seed the hot config; Reconfigure (or mapserved's SIGHUP reload)
	// adjusts them at runtime.
	Rollout RolloutConfig
	// Auth, when non-empty, enables per-tenant bearer-token authorization
	// on mutating endpoints: a request touching tenant T must carry
	// "Authorization: Bearer <Auth[T]>". Tenants absent from the map are
	// open. Read endpoints are never gated — reads must not fail.
	Auth map[string]string
}

// Defaults for the zero Options.
const (
	DefaultQueueDepth    = 16
	DefaultEvolveTimeout = 30 * time.Second
)

// tenantManifest is the store-persisted tenant table: enough to restore
// every tenant's serving state after a restart without compiling anything.
type tenantManifest struct {
	Tenants map[string]manifestEntry `json:"tenants"`
}

type manifestEntry struct {
	Fingerprint string `json:"fingerprint"`
	Generation  int64  `json:"generation"`
	// The budget rides along so a restored tenant keeps its admission
	// policy without re-registration.
	MaxContainments int64 `json:"maxContainments,omitempty"`
	MaxWallTimeMs   int64 `json:"maxWallTimeMs,omitempty"`
}

const manifestName = "tenants"

// Server is the daemon. Create with New, mount via Handler, stop with
// Drain.
type Server struct {
	opts Options
	sat  *cond.SatCache
	// sem is the global compile semaphore (MaxConcurrentCompiles slots).
	sem chan struct{}

	mu      sync.RWMutex
	tenants map[string]*tenant

	// manifestMu serializes read-modify-write cycles on the manifest
	// record so concurrent commits cannot interleave half-written tables.
	manifestMu sync.Mutex

	draining atomic.Bool
	mux      *http.ServeMux
	restored int64

	// config is the hot-reloadable configuration snapshot (see config.go);
	// reloads counts successful Reconfigure calls.
	config  atomic.Pointer[runtimeConfig]
	reloads atomic.Int64

	// rolloutSeq numbers rollouts daemon-wide for status correlation.
	rolloutSeq atomic.Int64
}

// New builds a daemon and, when a store is configured, restores every
// tenant recorded in the manifest: mapping, views and SatCache come
// straight off disk (a warm start), so a restarted daemon serves all
// committed generations before the first request arrives. A tenant whose
// generation record is damaged or pruned is skipped — it re-registers and
// compiles cold — never served partially.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxConcurrentCompiles <= 0 {
		opts.MaxConcurrentCompiles = runtime.GOMAXPROCS(0) / 2
		if opts.MaxConcurrentCompiles < 1 {
			opts.MaxConcurrentCompiles = 1
		}
	}
	if opts.EvolveTimeout <= 0 {
		opts.EvolveTimeout = DefaultEvolveTimeout
	}
	s := &Server{
		opts:    opts,
		sat:     cond.NewSatCache(),
		sem:     make(chan struct{}, opts.MaxConcurrentCompiles),
		tenants: map[string]*tenant{},
	}
	s.config.Store(&runtimeConfig{
		queueDepth:    opts.QueueDepth,
		evolveTimeout: opts.EvolveTimeout,
		defaultBudget: opts.DefaultBudget,
		rollout:       opts.Rollout.withDefaults(),
	})
	if opts.Store != nil {
		_ = opts.Store.LoadSatCache(s.sat)
		s.restoreTenants()
	}
	s.mux = s.buildMux()
	return s
}

// sessionOptions assembles the pipeline options one tenant's session runs
// under: both rungs share the daemon-wide SatCache and the tenant budget.
func (s *Server) sessionOptions(b fault.Budget) pipeline.Options {
	po := pipeline.Options{
		Store:          s.opts.Store,
		WriteBehind:    s.opts.WriteBehind,
		PersistRetries: s.opts.PersistRetries,
		PersistBackoff: s.opts.PersistBackoff,
	}
	po.Incremental.SatCache = s.sat
	po.Incremental.Budget = b
	po.Incremental.Tracer = s.opts.Tracer
	po.Compiler.SatCache = s.sat
	po.Compiler.Budget = b
	po.Compiler.Tracer = s.opts.Tracer
	return po
}

// restoreTenants rebuilds the tenant table from the persisted manifest.
// Called from New before the daemon serves, so no locking subtleties.
func (s *Server) restoreTenants() {
	payload, err := s.opts.Store.LoadManifest(manifestName)
	if err != nil {
		return // no (or damaged) manifest: fresh daemon
	}
	var man tenantManifest
	if json.Unmarshal(payload, &man) != nil {
		return
	}
	for name, ent := range man.Tenants {
		if !validTenantName(name) {
			continue
		}
		b := fault.Budget{
			MaxContainments: ent.MaxContainments,
			MaxWallTime:     time.Duration(ent.MaxWallTimeMs) * time.Millisecond,
		}
		// The manifest names the generation's address, so the session
		// opens at it without fingerprinting the loaded mapping again.
		sess, err := pipeline.OpenSession(ent.Fingerprint, s.sessionOptions(b))
		if err != nil {
			continue // damaged or pruned: tenant re-registers cold
		}
		t := s.newTenant(name, sess, b, ent.Generation-1)
		t.restoreData()
		s.tenants[name] = t
		s.restored++
		// A rollout checkpoint means the previous process died (or was
		// drained) mid-backfill: restage the proposed generation and
		// continue from the last intact batch.
		s.resumeRollout(t)
	}
}

// saveManifest persists the current tenant table, referencing each
// tenant's head so the store keeps its record. Failures leave the
// previous manifest in place; the next commit retries, and Drain surfaces
// the error.
func (s *Server) saveManifest() error {
	if s.opts.Store == nil {
		return nil
	}
	man := tenantManifest{Tenants: map[string]manifestEntry{}}
	var heads []string
	s.mu.RLock()
	for name, t := range s.tenants {
		if t == nil {
			continue // registration in flight
		}
		head := t.session.Head()
		if head.FP != "" {
			heads = append(heads, head.FP)
		}
		man.Tenants[name] = manifestEntry{
			Fingerprint:     head.FP,
			Generation:      t.generation(head),
			MaxContainments: t.budget.MaxContainments,
			MaxWallTimeMs:   t.budget.MaxWallTime.Milliseconds(),
		}
	}
	s.mu.RUnlock()
	payload, err := json.Marshal(&man)
	if err != nil {
		return err
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	return s.opts.Store.SaveManifest(manifestName, payload, heads...)
}

// Restored reports how many tenants the daemon recovered from the
// manifest at startup.
func (s *Server) Restored() int { return int(s.restored) }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) lookup(name string) (*tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok && t != nil
}

// QueueDepth reports the total number of queued evolves across tenants
// (exported as the server.queue_depth gauge by cmd/mapserved).
func (s *Server) QueueDepth() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tenants {
		if t != nil {
			n += int64(len(t.queue))
		}
	}
	return n
}

// Register creates a tenant over an already decoded mapping: warm-start
// from the store when the fingerprint matches, full compile otherwise.
// The compile runs under the tenant's budget and the global compile
// semaphore; ctx bounds the wait for both.
func (s *Server) Register(ctx context.Context, name string, m *frag.Mapping, b fault.Budget) (*TenantStatus, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if !validTenantName(name) {
		return nil, &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf("invalid tenant name %q", name)}
	}
	if b == (fault.Budget{}) {
		b = s.cfg().defaultBudget
	}
	s.mu.Lock()
	if _, dup := s.tenants[name]; dup {
		s.mu.Unlock()
		return nil, &apiError{status: http.StatusConflict, msg: fmt.Sprintf("tenant %q already registered", name)}
	}
	// Reserve the name while compiling so two racing registrations cannot
	// both compile; the nil placeholder is replaced or removed below.
	s.tenants[name] = nil
	s.mu.Unlock()

	release := func() {
		s.mu.Lock()
		if s.tenants[name] == nil {
			delete(s.tenants, name)
		}
		s.mu.Unlock()
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		release()
		mShed.Add(1)
		return nil, &apiError{status: http.StatusTooManyRequests, msg: "compile slots busy", retryAfter: time.Second}
	}
	sess, err := pipeline.NewSessionCompile(ctx, m, s.sessionOptions(b))
	<-s.sem
	if err != nil {
		release()
		return nil, compileError("register", err)
	}

	t := s.newTenant(name, sess, b, 0)
	s.mu.Lock()
	s.tenants[name] = t
	s.mu.Unlock()
	_ = s.saveManifest()
	st := t.status()
	st.WarmStart = sess.Stats().WarmStarts > 0
	return st, nil
}

// Drain gracefully stops the daemon: admission closes (readyz flips to
// 503), queued-but-unstarted evolves are shed, in-flight evolves finish,
// write-behind snapshots flush, and the manifest plus SatCache snapshot
// are persisted. The returned error is the first flush or persistence
// failure; ctx bounds the wait for in-flight work.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t != nil {
			tenants = append(tenants, t)
		}
	}
	s.mu.RUnlock()

	for _, t := range tenants {
		t.beginDrain()
	}
	var firstErr error
	for _, t := range tenants {
		select {
		case <-t.done:
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("drain: %w", ctx.Err())
			}
		}
	}
	// Rollouts notice draining at their next batch boundary and suspend
	// (their checkpoints make the restart resume); wait for the goroutines
	// so no checkpoint write races the final manifest save below.
	for _, t := range tenants {
		if ro := t.lastRollout(); ro != nil {
			select {
			case <-ro.doneCh:
			case <-ctx.Done():
				if firstErr == nil {
					firstErr = fmt.Errorf("drain: %w", ctx.Err())
				}
			}
		}
	}
	for _, t := range tenants {
		if err := t.session.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.opts.Store != nil {
		for _, t := range tenants {
			if err := s.scrubGeneration(t); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := s.saveManifest(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.opts.Store.SaveSatCache(s.sat); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// scrubGeneration verifies the store still holds a loadable record of the
// tenant's committed generation and rewrites it if not. Write-behind
// snapshots can be lost to faults the session already surfaced (and
// counted), and a torn write passes SaveGeneration but fails its
// checksummed load — the drain is the last chance to guarantee the
// acceptance property that a restart warm-starts every committed
// generation.
func (s *Server) scrubGeneration(t *tenant) error {
	head := t.session.Head()
	if head.FP == "" {
		return nil
	}
	if _, _, err := s.opts.Store.LoadGeneration(head.FP); err == nil {
		return nil
	}
	return s.opts.Store.SaveGeneration(head.FP, head.M, head.V)
}

// validTenantName bounds tenant names to a URL- and manifest-safe
// alphabet.
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// errDraining is the admission verdict while the daemon drains.
var errDraining = &apiError{status: http.StatusServiceUnavailable, msg: "draining", retryAfter: 5 * time.Second}

// apiError carries an HTTP status through the server's internals.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// compileError classifies a registration/evolve compile failure into an
// HTTP-facing error: budget exhaustion and recovered panics are resource
// verdicts (the daemon is fine; the model is expensive or poisonous),
// timeouts are 504, and validation failures mean the client's mapping is
// wrong.
func compileError(op string, err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch fault.Outcome(err) {
	case "budget":
		return &apiError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf("%s: %v", op, err), retryAfter: time.Second}
	case "panic":
		return &apiError{status: http.StatusInternalServerError, msg: fmt.Sprintf("%s: %v", op, err)}
	case "cancelled":
		return &apiError{status: http.StatusGatewayTimeout, msg: fmt.Sprintf("%s: %v", op, err)}
	default:
		return &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("%s: %v", op, err)}
	}
}

// TenantStatus is the wire form of one tenant's serving state.
type TenantStatus struct {
	Name        string `json:"name"`
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	// Stale is set while the tenant serves a generation older than the
	// last attempted evolution (that evolve failed); StaleReason says why.
	Stale       bool   `json:"stale"`
	StaleReason string `json:"staleReason,omitempty"`
	WarmStart   bool   `json:"warmStart,omitempty"`
	Evolves     int64  `json:"evolves"`
	Errors      int64  `json:"evolveErrors"`
	Shed        int64  `json:"shed"`
	Reads       int64  `json:"reads"`
	StaleReads  int64  `json:"staleReads"`
	QueueDepth  int    `json:"queueDepth"`
}
