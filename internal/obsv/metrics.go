package obsv

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The metrics registry: process-wide, always-on, lock-free counters that
// replace grepping ad-hoc Stats structs when operating the system. The
// per-compilation Stats structs remain the API for one operation's work;
// the registry aggregates across every compilation in the process and is
// exported through expvar (and Snapshot) for scraping.

// counterStripes spreads one hot counter over several cache lines so
// concurrent validation workers do not serialize on a single atomic word.
// Must be a power of two.
const counterStripes = 8

// stripe is one cache-line-padded counter cell.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a lock-free, striped monotonic counter.
type Counter struct {
	s [counterStripes]stripe
}

// Add increments the counter. The stripe is picked from the address of a
// stack variable, which differs across goroutines (stacks are distinct
// allocations), so concurrent adders usually land on different cache
// lines; Load sums all stripes.
func (c *Counter) Add(d int64) {
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & (counterStripes - 1)
	c.s[i].v.Add(d)
}

// Load returns the counter's value.
func (c *Counter) Load() int64 {
	var n int64
	for i := range c.s {
		n += c.s[i].v.Load()
	}
	return n
}

// Registry is a named-counter registry with optional gauge callbacks
// (for values owned elsewhere, like the condition intern table's size).
type Registry struct {
	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Add increments the named counter.
func (r *Registry) Add(name string, d int64) { r.Counter(name).Add(d) }

// RegisterGauge registers a callback sampled at Snapshot time. Registering
// the same name again replaces the callback.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	r.gauges.Store(name, fn)
}

// Snapshot returns the current value of every counter and gauge.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Counter).Load()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		out[k.(string)] = v.(func() int64)()
		return true
	})
	return out
}

// Names returns the sorted metric names currently present.
func (r *Registry) Names() []string {
	var names []string
	r.counters.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	r.gauges.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	sort.Strings(names)
	return names
}

// defaultRegistry is the process-wide registry the compilation stack
// reports into.
var defaultRegistry = NewRegistry()

// Metrics returns the process-wide registry.
func Metrics() *Registry { return defaultRegistry }

// Add increments a counter of the process-wide registry.
func Add(name string, d int64) { defaultRegistry.Add(name, d) }

// RegisterGauge registers a gauge on the process-wide registry.
func RegisterGauge(name string, fn func() int64) { defaultRegistry.RegisterGauge(name, fn) }

// Snapshot snapshots the process-wide registry.
func Snapshot() map[string]int64 { return defaultRegistry.Snapshot() }

// Metric names reported by the compilation stack. Kept as constants so
// dashboards and tests reference one vocabulary.
const (
	// Full compiler.
	MCompiles            = "compile.full"
	MCompileCells        = "compile.cells_visited"
	MCompileTasks        = "compile.validation_tasks"
	MCompileContainments = "compile.containments"
	MCompileCacheHits    = "compile.satcache.hit"
	MCompileCacheMisses  = "compile.satcache.miss"
	MCompileCancelled    = "compile.cancelled"
	MCompileBudget       = "compile.budget_exceeded"
	MCompilePanics       = "compile.panics_recovered"
	// Containment checker (all clients: full, incremental, tooling).
	MContainments          = "containment.checks"
	MContainmentBlockPairs = "containment.block_pairs"
	// Incremental compiler.
	MApplies           = "incremental.applies"
	MApplyContainments = "incremental.containments"
	MApplyAdaptedViews = "incremental.adapted_views"
	MApplyBuiltViews   = "incremental.built_views"
	MApplyCacheHits    = "incremental.satcache.hit"
	MApplyCacheMisses  = "incremental.satcache.miss"
	MApplyCancelled    = "incremental.cancelled"
	// Session fallback ladder.
	MEvolves           = "session.evolves"
	MEvolveIncremental = "session.evolve.incremental"
	MEvolveFallback    = "session.evolve.fallback"
	MEvolveCancelled   = "session.evolve.cancelled"
	MEvolvePanics      = "session.evolve.panics_recovered"
	// Condition layer gauges (registered by the cond package's consumers).
	MInternSize      = "cond.intern.size"
	MInternEvictions = "cond.intern.evictions"
	// SatCache decisions made as sets of concrete types, with no key,
	// entry or solver run (every cache, counted in cond).
	MSatCacheTypeOnly = "cond.satcache.type_only"
	// CDCL prover gauges, fed by cond's process-lifetime solver counters:
	// one flush of a local stats struct per solve keeps the solver's hot
	// loop free of shared atomics.
	MSatPropagations = "cond.sat.propagations"
	MSatConflicts    = "cond.sat.conflicts"
	MSatLearned      = "cond.sat.learned"
	MSatBackjumps    = "cond.sat.backjumps"
	MSatLemmaHits    = "cond.sat.lemma_hits"
	MSatLemmasStored = "cond.sat.lemmas_stored"
	// Persistent compile store (internal/store): artifact-level traffic with
	// the on-disk cache. A hit is a record decoded and accepted (version,
	// fingerprint and checksum all matched); a miss is any load that fell
	// back to a cold start, whatever the reason.
	MStoreHits         = "store.hits"
	MStoreMisses       = "store.misses"
	MStoreEvictions    = "store.evictions"
	MStoreBytesRead    = "store.bytes_read"
	MStoreBytesWritten = "store.bytes_written"
	// Session snapshot persistence: errors surfaced by Session.Flush and
	// the write-behind retry loop that precedes them.
	MStorePersistErrors  = "store.persist_errors"
	MStorePersistRetries = "store.persist_retries"
	// Mapping-compiler daemon (internal/server). Requests counts every
	// HTTP request; Shed counts admissions rejected by the bounded queue
	// (429); StaleServes counts read responses flagged stale because the
	// tenant's last evolve failed; EvolveErrors counts evolve jobs that
	// ended in an error after admission; HandlerPanics counts panics
	// recovered inside the daemon's workers and handlers.
	MServeRequests      = "server.requests"
	MServeShed          = "server.shed"
	MServeStaleServes   = "server.stale_serves"
	MServeEvolveErrors  = "server.evolve_errors"
	MServeHandlerPanics = "server.handler_panics"
	// server.queue_depth is registered as a gauge by the daemon.
	MServeQueueDepth = "server.queue_depth"
	// Per-tenant authorization on mutating endpoints: 401 is a missing or
	// malformed credential, 403 a well-formed credential for the wrong
	// tenant — kept distinct from each other and from 429 so an auth
	// misconfiguration never masquerades as overload.
	MServeAuth401 = "server.auth_401"
	MServeAuth403 = "server.auth_403"
	// Intern-table aging: entries reclaimed by the periodic cross-tenant
	// sweep (as opposed to capacity-pressure clock evictions).
	MInternAged = "cond.intern.aged"
	// Versioned rollout engine (internal/server): state-machine outcomes
	// and backfill progress. RolloutGateFailures counts health-gate
	// verdicts that triggered an automatic rollback.
	MRolloutStarted      = "rollout.started"
	MRolloutCutovers     = "rollout.cutovers"
	MRolloutRollbacks    = "rollout.rollbacks"
	MRolloutGateFailures = "rollout.gate_failures"
	MRolloutDivergences  = "rollout.divergences"
	MBackfillBatches     = "rollout.backfill.batches"
	MBackfillRetries     = "rollout.backfill.retries"
	MBackfillResumed     = "rollout.backfill.resumed"
	// Streaming view executor (internal/exec): per-operator traffic. Each
	// operator accumulates locally and flushes once at iterator Close, so
	// the per-batch hot loop touches no shared atomics. Rows/Batches count
	// tuples and batches emitted by every operator; ScanRows only those
	// read from a table store; JoinBuildRows the tuples a hash join held
	// as its build side; Spills the blocking operators whose held state
	// exceeded exec.DefaultSpillThreshold (a memory-pressure signal —
	// rows stay in memory); ScanFaults the injected or store-level scan
	// errors surfaced as typed executor errors.
	MExecOpens         = "exec.opens"
	MExecRows          = "exec.rows"
	MExecBatches       = "exec.batches"
	MExecScanRows      = "exec.scan.rows"
	MExecJoinBuildRows = "exec.join.build_rows"
	MExecSpills        = "exec.spills"
	MExecConstructed   = "exec.constructed"
	MExecScanFaults    = "exec.scan.faults"
)

// expvarOnce guards the process-global expvar name, which panics on
// re-publication.
var expvarOnce sync.Once

// PublishExpvar exposes the process-wide registry under the expvar name
// "incmap" (served on /debug/vars wherever the application installs the
// expvar handler). Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("incmap", expvar.Func(func() any { return Snapshot() }))
	})
}
