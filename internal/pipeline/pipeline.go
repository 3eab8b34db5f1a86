// Package pipeline implements the paper's fallback ladder (§1.2): try to
// compile a schema modification incrementally and, when the incremental
// compiler cannot handle it — the SMO is not incrementally compilable, the
// validation budget ran out, or a worker panicked — fall back to a full
// compilation of the evolved mapping. A Session owns the current mapping
// generation and applies SMOs transactionally: the pre-SMO generation is
// returned intact on any failure, and readers always observe a fully
// validated generation.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/store"
)

// Process-wide metric counters for the fallback ladder, resolved once.
var (
	mEvolves           = obsv.Metrics().Counter(obsv.MEvolves)
	mEvolveIncremental = obsv.Metrics().Counter(obsv.MEvolveIncremental)
	mEvolveFallback    = obsv.Metrics().Counter(obsv.MEvolveFallback)
	mEvolveCancelled   = obsv.Metrics().Counter(obsv.MEvolveCancelled)
	mEvolvePanics      = obsv.Metrics().Counter(obsv.MEvolvePanics)
	mPersistErrors     = obsv.Metrics().Counter(obsv.MStorePersistErrors)
	mPersistRetries    = obsv.Metrics().Counter(obsv.MStorePersistRetries)
)

// FullEvolver is an SMO that the incremental compiler does not support but
// that can still transform the mapping (schemas and fragments) directly.
// The fallback path uses it to evolve the mapping structurally and then
// regenerates and re-validates every view with a full compilation — the
// paper's answer for schema changes outside the executable SMO set.
type FullEvolver interface {
	core.SMO
	// EvolveMapping mutates the (cloned) mapping in place. Views need not
	// be touched; the full compiler rebuilds them all.
	EvolveMapping(m *frag.Mapping) error
}

// Options configures both rungs of the ladder.
type Options struct {
	// Incremental tunes the incremental compiler (first rung).
	Incremental core.Options
	// Compiler tunes the full compiler used by the fallback (second rung)
	// and by NewSessionCompile.
	Compiler compiler.Options
	// Store, when non-nil, is the persistent compile cache.
	// NewSessionCompile restores a matching compiled generation from it
	// instead of compiling (a warm start), and every committed generation —
	// including the opening compile — is snapshotted back, together with
	// the session's SatCache (verdicts and learned solver lemmas). Store
	// failures never fail the session: a broken or stale store degrades to
	// a cold compile.
	Store *store.Store
	// WriteBehind persists snapshots on a background goroutine instead of
	// on the Evolve path. Use Flush to wait for pending snapshots (e.g.
	// before process exit) and surface the first persistence error since
	// the previous Flush.
	WriteBehind bool
	// PersistRetries is the number of additional attempts a failed
	// snapshot persist makes before the error is surfaced through Stats
	// and Flush. Retries back off exponentially from PersistBackoff
	// (default 10ms) with ±50% jitter, capped at 1s per sleep. 0 disables
	// retrying; long-running daemons absorbing transient store I/O
	// failures (a full disk being rotated, an NFS blip) want 3–5.
	PersistRetries int
	// PersistBackoff is the base delay of the persist retry ladder.
	PersistBackoff time.Duration
	// KeepGenerations bounds the session's version chain: the last K
	// committed generations stay live (readable through Generations /
	// GenerationAt, and rollback targets). 0 means DefaultKeepGenerations;
	// 1 disables rollback. Copy-on-write makes a deep chain cheap — the
	// generations share every untouched fragment and view.
	KeepGenerations int
}

// DefaultKeepGenerations is the version-chain depth when Options does not
// set one: the serving generation plus two rollback targets.
const DefaultKeepGenerations = 3

// sharedSatCache resolves the one decision cache both rungs share,
// creating and wiring it if the caller supplied none. Sessions backed by a
// persistent store need this: the snapshot written on commit must contain
// the verdicts the compiles actually produced.
func (o *Options) sharedSatCache() *cond.SatCache {
	switch {
	case o.Incremental.SatCache == nil && o.Compiler.SatCache == nil:
		c := cond.NewSatCache()
		o.Incremental.SatCache = c
		o.Compiler.SatCache = c
	case o.Incremental.SatCache == nil:
		o.Incremental.SatCache = o.Compiler.SatCache
	case o.Compiler.SatCache == nil:
		o.Compiler.SatCache = o.Incremental.SatCache
	}
	return o.Incremental.SatCache
}

// fingerprintExtras captures the compiler options that change what a
// compilation produces; generations compiled under different options must
// not be served to one another. Default options contribute no extras, so
// default-session snapshots share the plain store.Fingerprint(m) address
// used by the standalone Save/Load helpers and the incmapc CLI.
func (o *Options) fingerprintExtras() []string {
	if !o.Compiler.NoSimplify {
		return nil
	}
	return []string{"nosimplify=true"}
}

// fingerprint is the one place a session derives a generation's content
// address: the store fingerprint of its mapping under the options that
// compiled it. Sessions without a store carry no address (hashing the whole
// mapping is a cost pure in-memory sessions never pay).
func (o *Options) fingerprint(m *frag.Mapping) (string, error) {
	if o.Store == nil {
		return "", nil
	}
	return store.Fingerprint(m, o.fingerprintExtras()...)
}

// generation freezes a compiled mapping and its views, which become a
// session generation, and addresses them. Fingerprinting a frozen mapping
// builds its entry records (internal/modelio), which the save and every
// generation cloned from this one reuse. A fingerprint that cannot be
// computed leaves FP empty, which fails the generation's persist.
func (o *Options) generation(m *frag.Mapping, v *frag.Views) Generation {
	g := Generation{M: m, V: v}
	g.freeze()
	g.FP, _ = o.fingerprint(m)
	return g
}

// errNoFingerprint fails the persist of a generation whose fingerprint
// could not be computed: nothing is ever saved under an empty address.
var errNoFingerprint = errors.New("pipeline: generation has no fingerprint (its mapping cannot be encoded)")

// Stats counts how each Evolve call was resolved. Counters are updated
// atomically; read a consistent snapshot with Session.Stats.
type Stats struct {
	// Evolves counts Evolve calls; Incremental and Fallbacks count the
	// calls won by each rung of the ladder (failed calls count in neither).
	Evolves     int64
	Incremental int64
	Fallbacks   int64
	// Cancelled counts Evolve calls that ended with context cancellation
	// or deadline expiry. PanicsRecovered counts panics recovered into
	// typed errors anywhere in the ladder, including compiler workers.
	Cancelled       int64
	PanicsRecovered int64
	// WarmStarts counts sessions opened from a persisted generation instead
	// of a compile; Snapshots counts generations persisted to the store.
	WarmStarts int64
	Snapshots  int64
	// PersistErrors counts snapshot persists that failed after all
	// retries (the store stayed behind the committed generation);
	// PersistRetries counts the individual retry attempts. Both paths —
	// inline and write-behind — are covered; Flush returns the first
	// error since the last Flush.
	PersistErrors  int64
	PersistRetries int64
	// Proposals counts generations staged through Propose/ResumePending;
	// Rollbacks counts Rollback commits (each also counts as a commit in
	// the chain but not as an Evolve).
	Proposals int64
	Rollbacks int64
}

// Generation is the one record of a compiled generation: an entry of a
// session's version chain, or the staged proposal. Seq is the
// session-monotone commit counter: it grows on every commit, including a
// rollback — rolling back re-commits the previous generation's mapping and
// views verbatim under a fresh Seq, so observers can always order events;
// a proposal's Seq is 0 until promotion. FP is the store content address,
// computed once when the session creates the generation and carried
// unchanged through promotion and rollback; it is empty for sessions
// without a persistent store.
type Generation struct {
	Seq int64
	M   *frag.Mapping
	V   *frag.Views
	FP  string
}

// freeze makes the generation immutable (frag.Mapping.Freeze,
// frag.Views.Freeze) as it becomes a session generation: from then on
// readers share it, and evolving it clones it.
func (g Generation) freeze() {
	g.M.Freeze()
	g.V.Freeze()
}

// Session owns a mapping generation and evolves it one SMO at a time.
// Generation and Stats may be called concurrently with Evolve; Evolve
// calls are serialized.
type Session struct {
	opts  Options
	stats Stats

	// satCache is the decision cache shared by both rungs when the session
	// is store-backed; nil otherwise (each compile resolves its own).
	satCache *cond.SatCache
	// flushWG tracks in-flight write-behind snapshots; persistMu guards
	// persistErr, the first persist error since the last Flush.
	flushWG    sync.WaitGroup
	persistMu  sync.Mutex
	persistErr error

	// base is the full generation record of the session's lineage last
	// known to be on disk, which persists write deltas against
	// (store.SaveCommit). baseMu guards it, as write-behind persists set it
	// from their own goroutines.
	baseMu sync.Mutex
	base   *store.Base

	// evolveMu serializes Evolve/Propose/Rollback calls; mu guards only
	// the chain and the proposal so readers never block behind a long
	// compilation. The chain is never empty: its last entry is the head.
	evolveMu sync.Mutex
	mu       sync.Mutex
	chain    []Generation
	pending  *Generation
}

// NewSession starts a session at an already compiled generation (a mapping
// and the views the full or incremental compiler produced for it). When
// Options.Store wrote or loaded the generation's full record, that record
// is the session's base: its commits persist as deltas against it.
func NewSession(m *frag.Mapping, v *frag.Views, opts Options) *Session {
	return newSession(opts.generation(m, v), opts)
}

// newSession starts a session whose head is g, already addressed.
func newSession(g Generation, opts Options) *Session {
	g.freeze()
	s := &Session{opts: opts}
	if opts.Store != nil {
		s.satCache = s.opts.sharedSatCache()
		s.base = opts.Store.BaseFor(g.FP, g.M, g.V)
	}
	g.Seq = 1
	s.chain = []Generation{g}
	return s
}

// OpenSession starts a session at the generation Options.Store holds under
// fp, a warm start. The generation keeps fp as its address: the stored
// mapping is not fingerprinted again. The store's SatCache snapshot is
// left to the caller, which may share one cache across sessions.
func OpenSession(fp string, opts Options) (*Session, error) {
	if opts.Store == nil {
		return nil, errors.New("pipeline: OpenSession needs a store")
	}
	m, v, err := opts.Store.LoadGeneration(fp)
	if err != nil {
		return nil, err
	}
	s := newSession(Generation{M: m, V: v, FP: fp}, opts)
	atomic.AddInt64(&s.stats.WarmStarts, 1)
	return s, nil
}

// NewSessionCompile starts a session at a compiled generation for the
// mapping: restored from the persistent store when Options.Store holds a
// generation with a matching fingerprint (a warm start — no solver work at
// all), full-compiled otherwise. A cold compile's result is snapshotted
// back to the store so the next process starts warm.
func NewSessionCompile(ctx context.Context, m *frag.Mapping, opts Options) (*Session, error) {
	// The lookup fingerprint is the opened generation's address on both
	// the warm and the cold path. On the cold path m itself becomes the
	// session generation, so it freezes first: its entry records, built
	// by the fingerprint, serve the save too, and a later open of the same
	// model hashes them instead of encoding it again.
	m.Freeze()
	fp, fpErr := opts.fingerprint(m)
	if opts.Store != nil {
		cache := opts.sharedSatCache()
		if fpErr == nil {
			if s, err := OpenSession(fp, opts); err == nil {
				// Warm the solver too: persisted verdicts and lemmas apply to
				// any later Evolve over unchanged schema facts.
				_ = opts.Store.LoadSatCache(cache)
				return s, nil
			}
			// Generation miss: persisted verdicts may still cover much of the
			// compile about to run (same schema facts ⇒ same keys).
			_ = opts.Store.LoadSatCache(cache)
		}
	}
	c := &compiler.Compiler{Opts: opts.Compiler}
	v, err := c.CompileCtx(ctx, m)
	if err != nil {
		return nil, err
	}
	s := newSession(Generation{M: m, V: v, FP: fp}, opts)
	s.snapshot(s.Head())
	return s, nil
}

// Generation returns the head's mapping and views (see Head). The returned
// objects are the live generation: treat them as immutable, as every other
// reader shares them (evolve through Evolve, which derives copy-on-write
// generations).
func (s *Session) Generation() (*frag.Mapping, *frag.Views) {
	g := s.Head()
	return g.M, g.V
}

// commit appends g to the chain as the new head under the next Seq and
// snapshots it. g arrives addressed; commit never fingerprints.
func (s *Session) commit(g Generation) Generation {
	s.mu.Lock()
	g.Seq = s.chain[len(s.chain)-1].Seq + 1
	s.chain = append(s.chain, g)
	if k := s.keepGenerations(); len(s.chain) > k {
		s.chain = append([]Generation(nil), s.chain[len(s.chain)-k:]...)
	}
	s.mu.Unlock()
	s.snapshot(g)
	return g
}

func (s *Session) keepGenerations() int {
	k := s.opts.KeepGenerations
	if k <= 0 {
		k = DefaultKeepGenerations
	}
	return k
}

// Head returns the currently served generation (the newest chain entry).
func (s *Session) Head() Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain[len(s.chain)-1]
}

// Generations returns the live version chain, oldest first. Entries share
// copy-on-write structure; treat their mappings and views as immutable.
func (s *Session) Generations() []Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Generation(nil), s.chain...)
}

// GenerationAt returns the chain entry with the given Seq, if it is still
// live.
func (s *Session) GenerationAt(seq int64) (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.chain {
		if g.Seq == seq {
			return g, true
		}
	}
	return Generation{}, false
}

// Pending returns the proposed-but-uncommitted generation, if any. Its Seq
// is 0 until promotion assigns one.
func (s *Session) Pending() (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return Generation{}, false
	}
	return *s.pending, true
}

// snapshot persists the committed generation and the session's SatCache,
// inline or write-behind per Options. Persistence failures never fail the
// commit — the store is an accelerator, never a correctness dependency —
// but they are no longer silent: each exhausted persist counts in
// Stats.PersistErrors and the store.persist_errors metric, and Flush
// returns the first error since the previous Flush.
func (s *Session) snapshot(g Generation) {
	if s.opts.Store == nil {
		return
	}
	if s.opts.WriteBehind {
		s.flushWG.Add(1)
		go func() {
			defer s.flushWG.Done()
			s.persist(g)
		}()
		return
	}
	s.persist(g)
}

// persist runs the retry ladder around persistOnce and records the final
// verdict. Transient store failures (a disk filling, an injected fault)
// are retried with capped exponential backoff plus jitter so a burst of
// write-behind snapshots does not hammer a struggling disk in lockstep.
func (s *Session) persist(g Generation) {
	backoff := s.opts.PersistBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	const backoffCap = time.Second
	var first error
	for attempt := 0; ; attempt++ {
		err := s.persistOnce(g)
		if err == nil {
			return
		}
		if first == nil {
			first = err
		}
		if attempt >= s.opts.PersistRetries {
			break
		}
		atomic.AddInt64(&s.stats.PersistRetries, 1)
		mPersistRetries.Add(1)
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		if sleep > backoffCap {
			sleep = backoffCap
		}
		time.Sleep(sleep)
		if backoff < backoffCap {
			backoff *= 2
		}
	}
	atomic.AddInt64(&s.stats.PersistErrors, 1)
	mPersistErrors.Add(1)
	s.persistMu.Lock()
	if s.persistErr == nil {
		s.persistErr = first
	}
	s.persistMu.Unlock()
}

// persistOnce is one snapshot attempt: the generation record under g.FP,
// a delta against the session's base or a full record that becomes the
// base (store.SaveCommit), then the SatCache snapshot. The first failure
// aborts the attempt.
func (s *Session) persistOnce(g Generation) error {
	if err := faultinject.At(faultinject.SiteSessionPersist); err != nil {
		return err
	}
	if g.FP == "" {
		return errNoFingerprint
	}
	s.baseMu.Lock()
	base := s.base
	s.baseMu.Unlock()
	// A full record written is the new base once its write has returned,
	// so no delta can reach the disk before the record it names.
	nb, err := s.opts.Store.SaveCommit(g.FP, g.M, g.V, base)
	if nb != base {
		s.baseMu.Lock()
		s.base = nb
		s.baseMu.Unlock()
	}
	if err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.Snapshots, 1)
	if s.satCache != nil {
		if err := s.opts.Store.SaveSatCache(s.satCache); err != nil {
			return err
		}
	}
	return nil
}

// Flush waits for pending write-behind snapshots and returns the first
// persistence error since the last Flush (nil when every snapshot landed).
// A successful Flush therefore certifies that the store holds the latest
// committed generation. Synchronous sessions only report.
func (s *Session) Flush() error {
	s.flushWG.Wait()
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	err := s.persistErr
	s.persistErr = nil
	return err
}

// SatCache returns the decision cache shared across the session's
// compiles, or nil when the session is not store-backed and no cache was
// injected through Options.
func (s *Session) SatCache() *cond.SatCache { return s.satCache }

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() Stats {
	return Stats{
		Evolves:         atomic.LoadInt64(&s.stats.Evolves),
		Incremental:     atomic.LoadInt64(&s.stats.Incremental),
		Fallbacks:       atomic.LoadInt64(&s.stats.Fallbacks),
		Cancelled:       atomic.LoadInt64(&s.stats.Cancelled),
		PanicsRecovered: atomic.LoadInt64(&s.stats.PanicsRecovered),
		WarmStarts:      atomic.LoadInt64(&s.stats.WarmStarts),
		Snapshots:       atomic.LoadInt64(&s.stats.Snapshots),
		PersistErrors:   atomic.LoadInt64(&s.stats.PersistErrors),
		PersistRetries:  atomic.LoadInt64(&s.stats.PersistRetries),
		Proposals:       atomic.LoadInt64(&s.stats.Proposals),
		Rollbacks:       atomic.LoadInt64(&s.stats.Rollbacks),
	}
}

// Evolve applies one SMO to the current generation via the fallback
// ladder. On success the new generation is committed and returned. On
// failure the session keeps — and Evolve returns — the pre-SMO generation,
// along with a typed error:
//
//   - ctx.Err() (wrapped) when the compile was cancelled or timed out; no
//     fallback is attempted, since it would be cancelled too;
//   - the incremental validation error when the evolved mapping is
//     genuinely invalid (no fallback: full compilation would reject it
//     with more work);
//   - a combined error when the fallback rung was tried and also failed.
//
// The fallback is attempted when the incremental error is
// core.ErrUnsupportedSMO, a *fault.BudgetExceededError, or a
// *fault.PanicError (including panics recovered from compiler workers and
// from the incremental appliers themselves).
func (s *Session) Evolve(ctx context.Context, op core.SMO) (*frag.Mapping, *frag.Views, error) {
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	m, v := s.Generation()
	if s.pending != nil {
		return m, v, ErrPendingGeneration
	}
	atomic.AddInt64(&s.stats.Evolves, 1)
	mEvolves.Add(1)

	nm, nv, err := s.ladder(ctx, m, v, op, true)
	if err != nil {
		return m, v, err
	}
	return nm, nv, nil
}

// ErrPendingGeneration rejects Evolve while a proposed generation awaits
// promotion or discard: interleaving direct commits with a staged rollout
// would make the rollout's "previous generation" ambiguous.
var ErrPendingGeneration = errors.New("pipeline: a proposed generation is pending; promote or discard it before evolving")

// ErrNoPendingGeneration reports a promote/discard with nothing staged.
var ErrNoPendingGeneration = errors.New("pipeline: no pending generation")

// ErrNoPreviousGeneration reports a rollback on a chain of depth one.
var ErrNoPreviousGeneration = errors.New("pipeline: no previous generation to roll back to")

// ladder runs the fallback ladder over one SMO and, when commit is true,
// commits the result. It owns tracing and the per-decision counters; the
// caller holds evolveMu.
func (s *Session) ladder(ctx context.Context, m *frag.Mapping, v *frag.Views, op core.SMO, commit bool) (*frag.Mapping, *frag.Views, error) {
	// The ladder is traced as one "Evolve" span whose children are the rung
	// spans (the inner Apply/Compile spans nest under those via the
	// context); the decision the ladder took is recorded as an attribute.
	tr := obsv.Resolve(s.tracer())
	root := tr.SpanCtx(ctx, "Evolve", obsv.String("smo", op.Describe()))

	rung := root.Child("rung-incremental")
	nm, nv, ierr := s.tryIncremental(obsv.ContextWithSpan(ctx, rung), m, v, op)
	rung.End(fault.Outcome(ierr))
	if ierr == nil {
		atomic.AddInt64(&s.stats.Incremental, 1)
		mEvolveIncremental.Add(1)
		if commit {
			s.commit(s.opts.generation(nm, nv))
		}
		root.End(obsv.OutcomeOK, obsv.String("decision", "incremental"))
		return nm, nv, nil
	}
	if isCancellation(ierr) {
		atomic.AddInt64(&s.stats.Cancelled, 1)
		mEvolveCancelled.Add(1)
		root.End(obsv.OutcomeCancelled, obsv.String("decision", "abort"))
		return nil, nil, ierr
	}
	if !fallbackWorthy(ierr) {
		root.End(fault.Outcome(ierr), obsv.String("decision", "reject"))
		return nil, nil, ierr
	}

	root.Annotate(obsv.String("fallback_cause", fault.Outcome(ierr)))
	rung = root.Child("rung-fallback")
	fm, fv, ferr := s.fullCompile(obsv.ContextWithSpan(ctx, rung), m, v, op)
	rung.End(fault.Outcome(ferr))
	if ferr != nil {
		if isCancellation(ferr) {
			atomic.AddInt64(&s.stats.Cancelled, 1)
			mEvolveCancelled.Add(1)
			root.End(obsv.OutcomeCancelled, obsv.String("decision", "abort"))
			return nil, nil, ferr
		}
		root.End(fault.Outcome(ferr), obsv.String("decision", "reject"))
		return nil, nil, fmt.Errorf("%s: incremental compilation failed (%v); full-compile fallback failed: %w",
			op.Describe(), ierr, ferr)
	}
	atomic.AddInt64(&s.stats.Fallbacks, 1)
	mEvolveFallback.Add(1)
	if commit {
		s.commit(s.opts.generation(fm, fv))
	}
	root.End(obsv.OutcomeOK, obsv.String("decision", "fallback"))
	return fm, fv, nil
}

// Propose compiles the SMO sequence into a staged generation without
// committing it: the session keeps serving the current head while the
// rollout engine canaries and backfills against the proposal. The staged
// generation is persisted to the store (when one is configured) so a
// crashed rollout can resume without recompiling. While a proposal is
// pending, Evolve and further Propose calls fail with
// ErrPendingGeneration.
func (s *Session) Propose(ctx context.Context, ops ...core.SMO) (Generation, error) {
	if len(ops) == 0 {
		return Generation{}, fmt.Errorf("pipeline: Propose needs at least one SMO")
	}
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	if s.pending != nil {
		return Generation{}, ErrPendingGeneration
	}
	m, v := s.Generation()
	for _, op := range ops {
		atomic.AddInt64(&s.stats.Evolves, 1)
		mEvolves.Add(1)
		nm, nv, err := s.ladder(ctx, m, v, op, false)
		if err != nil {
			return Generation{}, err
		}
		m, v = nm, nv
	}
	return s.stagePending(s.opts.generation(m, v)), nil
}

// ResumePending re-stages an already compiled generation, typically one
// reloaded from the persistent store after a crash mid-rollout. fp is the
// fingerprint the caller loaded the record under; it becomes the staged
// generation's FP without being recomputed.
func (s *Session) ResumePending(fp string, m *frag.Mapping, v *frag.Views) (Generation, error) {
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	if s.pending != nil {
		return Generation{}, ErrPendingGeneration
	}
	return s.stagePending(Generation{M: m, V: v, FP: fp}), nil
}

// stagePending records the proposal and persists it for crash resume. The
// caller holds evolveMu.
func (s *Session) stagePending(g Generation) Generation {
	g.freeze()
	atomic.AddInt64(&s.stats.Proposals, 1)
	s.mu.Lock()
	s.pending = &g
	s.mu.Unlock()
	if s.opts.Store != nil {
		s.persist(g)
	}
	return g
}

// PromotePending commits the staged generation, fingerprint included, as
// the new head (the rollout's cutover step).
func (s *Session) PromotePending() (Generation, error) {
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	s.mu.Lock()
	p := s.pending
	s.pending = nil
	s.mu.Unlock()
	if p == nil {
		return Generation{}, ErrNoPendingGeneration
	}
	return s.commit(*p), nil
}

// DiscardPending drops the staged generation (rollout abort or rollback).
// The session's served head was never touched; the persisted proposal
// record is content-addressed and harmless to leave behind.
func (s *Session) DiscardPending() error {
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	s.mu.Lock()
	p := s.pending
	s.pending = nil
	s.mu.Unlock()
	if p == nil {
		return ErrNoPendingGeneration
	}
	return nil
}

// Rollback re-commits the previous chain entry's mapping, views and
// fingerprint verbatim under a fresh Seq — the serving pointers move back, the commit
// counter moves forward, so generation numbers stay monotone through a
// rollback (observers can order a rollback after the commit it undoes).
func (s *Session) Rollback() (Generation, error) {
	s.evolveMu.Lock()
	defer s.evolveMu.Unlock()
	s.mu.Lock()
	if len(s.chain) < 2 {
		s.mu.Unlock()
		return Generation{}, ErrNoPreviousGeneration
	}
	prev := s.chain[len(s.chain)-2]
	s.mu.Unlock()
	atomic.AddInt64(&s.stats.Rollbacks, 1)
	return s.commit(prev), nil
}

// tracer resolves the session's explicit tracer: the incremental rung's,
// else the full compiler's (Resolve falls through to the process default).
func (s *Session) tracer() *obsv.Tracer {
	if s.opts.Incremental.Tracer != nil {
		return s.opts.Incremental.Tracer
	}
	return s.opts.Compiler.Tracer
}

// tryIncremental runs the first rung, recovering panics from the appliers
// and decision procedures into a typed *fault.PanicError so one poisonous
// SMO cannot crash the session.
func (s *Session) tryIncremental(ctx context.Context, m *frag.Mapping, v *frag.Views, op core.SMO) (nm *frag.Mapping, nv *frag.Views, err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&s.stats.PanicsRecovered, 1)
			mEvolvePanics.Add(1)
			nm, nv = nil, nil
			err = fmt.Errorf("%s: %w", op.Describe(),
				&fault.PanicError{Where: "incremental compilation", Value: r, Stack: debug.Stack()})
		}
	}()
	ic := core.NewIncremental()
	ic.Opts = s.opts.Incremental
	return ic.ApplyCtx(ctx, m, v, op)
}

// fullCompile runs the second rung: evolve the mapping structurally
// (without neighbourhood validation), then regenerate and validate every
// view with a full compilation. The full compile subsumes all the checks
// the structural apply skipped.
func (s *Session) fullCompile(ctx context.Context, m *frag.Mapping, v *frag.Views, op core.SMO) (nm *frag.Mapping, nv *frag.Views, err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&s.stats.PanicsRecovered, 1)
			mEvolvePanics.Add(1)
			nm, nv = nil, nil
			err = fmt.Errorf("%s: %w", op.Describe(),
				&fault.PanicError{Where: "full-compile fallback", Value: r, Stack: debug.Stack()})
		}
	}()

	em, serr := s.structuralApply(ctx, m, v, op)
	if serr != nil {
		return nil, nil, serr
	}

	c := &compiler.Compiler{Opts: s.opts.Compiler}
	views, cerr := c.CompileCtx(ctx, em)
	atomic.AddInt64(&s.stats.PanicsRecovered, atomic.LoadInt64(&c.Stats.PanicsRecovered))
	mEvolvePanics.Add(atomic.LoadInt64(&c.Stats.PanicsRecovered))
	if cerr != nil {
		return nil, nil, cerr
	}
	return em, views, nil
}

// structuralApply evolves the mapping without validation: through the
// SMO's own applier with SkipValidation when it is executable, or through
// its FullEvolver hook when it is not.
func (s *Session) structuralApply(ctx context.Context, m *frag.Mapping, v *frag.Views, op core.SMO) (*frag.Mapping, error) {
	sic := core.NewIncremental()
	sic.Opts = s.opts.Incremental
	sic.Opts.SkipValidation = true
	em, _, aerr := sic.ApplyCtx(ctx, m, v, op)
	if aerr == nil {
		return em, nil
	}
	if errors.Is(aerr, core.ErrUnsupportedSMO) {
		if fe, ok := op.(FullEvolver); ok {
			em = m.Clone()
			if eerr := fe.EvolveMapping(em); eerr != nil {
				return nil, fmt.Errorf("%s: evolving mapping for full compilation: %w", op.Describe(), eerr)
			}
			return em, nil
		}
	}
	return nil, aerr
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fallbackWorthy reports whether the incremental error is one full
// compilation can overcome. Genuine validation failures are not: the
// mapping is invalid, and the full compiler would only reject it again.
func fallbackWorthy(err error) bool {
	if errors.Is(err, core.ErrUnsupportedSMO) {
		return true
	}
	var be *fault.BudgetExceededError
	if errors.As(err, &be) {
		return true
	}
	var pe *fault.PanicError
	return errors.As(err, &pe)
}
