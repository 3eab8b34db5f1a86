// Package incmap is an object-to-relational mapping system with an
// incremental mapping compiler, reproducing Bernstein, Jacob, Pérez, Rull
// and Terwilliger, "Incremental Mapping Compilation in an
// Object-to-Relational Mapping System", SIGMOD 2013.
//
// A mapping consists of three developer-provided definitions: a client
// schema (entity types with inheritance, entity sets, associations), a
// relational store schema, and a set of declarative mapping fragments
// π_α(σ_ψ(E)) = π_β(σ_χ(R)). Compiling a mapping validates that it
// roundtrips (updates saved to the database read back unchanged) and
// produces query views and update views used by the runtime.
//
// Full compilation (Compile) is expensive: validation is NP-hard and its
// exhaustive analysis is exponential in the complexity of the mapping.
// The incremental compiler (NewIncremental, Apply) instead evolves an
// already-compiled mapping under schema modification operations — AddEntity
// in the TPT/TPC/TPH styles, AddEntityPart, AddAssociationFK/JT,
// AddProperty, DropEntity, DropAssociation — validating only the
// neighbourhood of the change, typically orders of magnitude faster.
//
// A minimal session:
//
//	m := ...                                   // build or load a *incmap.Mapping
//	views, err := incmap.Compile(m)            // full compile once
//	db := incmap.Open(m, views)                // in-memory ORM runtime
//	op := incmap.AddEntityTPT("Employee", "Person", attrs, "Emp", cols)
//	m, views, err = incmap.NewIncremental().Apply(m, views, op)
package incmap

import (
	"context"
	"io"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/containment"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/esql"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/server"
	"github.com/ormkit/incmap/internal/sqlgen"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/store"
)

// Schema building blocks.
type (
	// ClientSchema is the object-oriented schema (an EDM subset).
	ClientSchema = edm.Schema
	// EntityType is a node of an inheritance hierarchy.
	EntityType = edm.EntityType
	// Attribute is a typed attribute of an entity type.
	Attribute = edm.Attribute
	// EntitySet is a persistent collection of a root type's instances.
	EntitySet = edm.EntitySet
	// Association relates two entity types.
	Association = edm.Association
	// End is one association endpoint.
	End = edm.End
	// Mult is an association-end multiplicity.
	Mult = edm.Mult

	// StoreSchema is the relational schema.
	StoreSchema = rel.Schema
	// Table is a relational table definition.
	Table = rel.Table
	// Column is a table column.
	Column = rel.Column
	// ForeignKey maps table columns to another table's key.
	ForeignKey = rel.ForeignKey

	// Mapping bundles client schema, store schema and fragments.
	Mapping = frag.Mapping
	// Fragment is one mapping equation π_α(σ_ψ(E)) = π_β(σ_χ(R)).
	Fragment = frag.Fragment
	// Views is a compiled mapping: query and update views.
	Views = frag.Views

	// Cond is a boolean condition over entities or rows.
	Cond = cond.Expr
	// Value is a typed constant.
	Value = cond.Value
	// Kind enumerates value kinds.
	Kind = cond.Kind

	// ClientState is an instance of a client schema.
	ClientState = state.ClientState
	// StoreState is an instance of a store schema.
	StoreState = state.StoreState
	// Entity is an instance of an entity type.
	Entity = state.Entity
	// AssocPair is one association instance.
	AssocPair = state.AssocPair
	// Row is a table row.
	Row = state.Row
)

// Value kinds.
const (
	KindString = cond.KindString
	KindInt    = cond.KindInt
	KindFloat  = cond.KindFloat
	KindBool   = cond.KindBool
)

// Association-end multiplicities.
const (
	One     = edm.One
	ZeroOne = edm.ZeroOne
	Many    = edm.Many
)

// NewClientSchema returns an empty client schema.
func NewClientSchema() *ClientSchema { return edm.NewSchema() }

// NewStoreSchema returns an empty store schema.
func NewStoreSchema() *StoreSchema { return rel.NewSchema() }

// Condition constructors re-exported from the condition language.
var (
	// True is the always-true condition.
	True = cond.Expr(cond.True{})
)

// IsOf builds the condition IS OF type.
func IsOf(typeName string) Cond { return cond.TypeIs{Type: typeName} }

// IsOfOnly builds the condition IS OF (ONLY type).
func IsOfOnly(typeName string) Cond { return cond.TypeIs{Type: typeName, Only: true} }

// NotNull builds attr IS NOT NULL.
func NotNull(attr string) Cond { return cond.NotNull(attr) }

// IsNull builds attr IS NULL.
func IsNull(attr string) Cond { return cond.Null{Attr: attr} }

// And conjoins conditions.
func And(xs ...Cond) Cond { return cond.NewAnd(xs...) }

// Or disjoins conditions.
func Or(xs ...Cond) Cond { return cond.NewOr(xs...) }

// ParseCond parses the Entity-SQL-like condition syntax (see package
// documentation of internal/esql).
func ParseCond(in string) (Cond, error) { return esql.ParseCond(in) }

// MustParseCond is ParseCond panicking on error.
func MustParseCond(in string) Cond { return esql.MustParseCond(in) }

// Full compilation -----------------------------------------------------------

// CompilerOptions tunes the full compiler. Parallelism sets the validation
// worker count (0 = runtime.GOMAXPROCS(0), 1 = sequential; any value
// produces identical views and errors) and SatCache attaches a shared
// decision cache.
type CompilerOptions = compiler.Options

// CompileStats reports full-compilation work, including decision-cache
// hit/miss counts and the worker count used.
type CompileStats = compiler.Stats

// SatCache memoizes satisfiability/implication/disjointness verdicts keyed
// by a canonical structural encoding of the query and the relevant schema
// facts. One cache may be shared across compilations — and between the
// full and the incremental compiler — and is safe for concurrent use.
type SatCache = cond.SatCache

// SatCacheStats is a snapshot of a cache's hit/miss/entry counters.
type SatCacheStats = cond.SatCacheStats

// NewSatCache returns an empty decision cache to share across compilations
// via CompilerOptions.SatCache and IncrementalOptions.SatCache.
func NewSatCache() *SatCache { return cond.NewSatCache() }

// Compile fully compiles and validates a mapping, generating its query and
// update views. This is the expensive baseline the incremental compiler is
// measured against.
func Compile(m *Mapping) (*Views, error) { return compiler.New().Compile(m) }

// CompileWith compiles with explicit options and reports statistics.
func CompileWith(m *Mapping, opts CompilerOptions) (*Views, CompileStats, error) {
	c := &compiler.Compiler{Opts: opts}
	v, err := c.Compile(m)
	return v, c.Stats, err
}

// CompileCtx is Compile under a context: cancellation or deadline expiry
// stops validation within one cell-span and returns an error satisfying
// errors.Is(err, ctx.Err()). The input mapping is never mutated.
func CompileCtx(ctx context.Context, m *Mapping) (*Views, error) {
	return compiler.New().CompileCtx(ctx, m)
}

// CompileWithCtx is CompileWith under a context.
func CompileWithCtx(ctx context.Context, m *Mapping, opts CompilerOptions) (*Views, CompileStats, error) {
	c := &compiler.Compiler{Opts: opts}
	v, err := c.CompileCtx(ctx, m)
	return v, c.Stats, err
}

// Fault tolerance ------------------------------------------------------------

// Budget bounds validation work. A zero Budget is unlimited. When a limit
// is hit, compilation stops with a *BudgetExceededError.
type Budget = fault.Budget

// BudgetExceededError reports which validation budget was exhausted,
// carrying the partial work statistics accumulated up to that point.
type BudgetExceededError = fault.BudgetExceededError

// PanicError wraps a panic recovered inside the compilation pipeline,
// preserving the panic value and its stack trace.
type PanicError = fault.PanicError

// ErrUnsupportedSMO is returned (wrapped) by the incremental compiler for
// operations it cannot evolve incrementally; Session.Evolve falls back to
// full compilation on it.
var ErrUnsupportedSMO = core.ErrUnsupportedSMO

// Session serializes schema evolution over one mapping generation and
// implements the fallback ladder of §1.2: incremental compilation first,
// full recompilation when the incremental path is unsupported, over budget,
// or panics. A failed Evolve leaves the previous generation installed.
type Session = pipeline.Session

// SessionOptions configures a Session's incremental and full compilers.
type SessionOptions = pipeline.Options

// SessionStats counts a Session's evolutions by outcome: incremental
// successes, full-compile fallbacks, cancellations and recovered panics.
type SessionStats = pipeline.Stats

// FullEvolver is an optional SMO capability: operations that can transform
// a mapping structurally even when the incremental compiler does not
// support them, enabling the full-compile fallback to proceed.
type FullEvolver = pipeline.FullEvolver

// NewSession wraps an already-compiled generation in a Session.
func NewSession(m *Mapping, v *Views, opts SessionOptions) *Session {
	return pipeline.NewSession(m, v, opts)
}

// NewSessionCompile full-compiles m and wraps the result in a Session.
func NewSessionCompile(ctx context.Context, m *Mapping, opts SessionOptions) (*Session, error) {
	return pipeline.NewSessionCompile(ctx, m, opts)
}

// Incremental compilation ----------------------------------------------------

// Incremental is the incremental mapping compiler (the paper's
// contribution).
type Incremental = core.Incremental

// IncrementalOptions tunes the incremental compiler.
type IncrementalOptions = core.Options

// SMO is a schema modification operation.
type SMO = core.SMO

// The concrete SMOs of §3 of the paper.
type (
	// AddEntity adds a leaf entity type (general α/P/T/f form).
	AddEntity = core.AddEntity
	// AddEntityPart adds a horizontally partitioned entity type (§3.3).
	AddEntityPart = core.AddEntityPart
	// Part is one (αi, ψi, Ti, fi) element of AddEntityPart.
	Part = core.Part
	// AddAssociationFK adds an association mapped to key/foreign-key
	// columns (§3.2).
	AddAssociationFK = core.AddAssociationFK
	// AddAssociationJT adds an association mapped to a join table.
	AddAssociationJT = core.AddAssociationJT
	// AddProperty adds an attribute to an existing type.
	AddProperty = core.AddProperty
	// DropEntity removes a leaf entity type.
	DropEntity = core.DropEntity
	// DropAssociation removes an association.
	DropAssociation = core.DropAssociation
	// RefactorAssocToInheritance turns a 1 — 0..1 association into an
	// inheritance relationship (§3.4).
	RefactorAssocToInheritance = core.RefactorAssocToInheritance
)

// NewIncremental returns an incremental compiler with default options.
func NewIncremental() *Incremental { return core.NewIncremental() }

// AddEntityTPT builds the Table-per-Type AddEntity.
func AddEntityTPT(name, parent string, attrs []Attribute, table string, colOf map[string]string) *AddEntity {
	return core.AddEntityTPT(name, parent, attrs, table, colOf)
}

// AddEntityTPC builds the Table-per-Concrete-type AddEntity.
func AddEntityTPC(name, parent string, attrs []Attribute, table string, colOf map[string]string) *AddEntity {
	return core.AddEntityTPC(name, parent, attrs, table, colOf)
}

// AddEntityTPH builds the Table-per-Hierarchy AddEntity.
func AddEntityTPH(name, parent string, attrs []Attribute, table, discCol string, discVal Value, colOf map[string]string) *AddEntity {
	return core.AddEntityTPH(name, parent, attrs, table, discCol, discVal, colOf)
}

// Style inference (MoDEF) ----------------------------------------------------

// MappingStyle identifies TPT/TPC/TPH.
type MappingStyle = modef.Style

// Mapping styles.
const (
	TPT = modef.TPT
	TPC = modef.TPC
	TPH = modef.TPH
)

// InferStyle reports the mapping style of an entity type.
func InferStyle(m *Mapping, typeName string) MappingStyle { return modef.InferStyle(m, typeName) }

// PlanAddEntity synthesises an AddEntity SMO in the style of the new
// type's neighbourhood, extending the store schema as needed.
func PlanAddEntity(m *Mapping, name, parent string, attrs []Attribute) (SMO, error) {
	return modef.PlanAddEntity(m, name, parent, attrs)
}

// PlanAddAssociation synthesises an association SMO (FK or join-table
// style depending on multiplicities).
func PlanAddAssociation(m *Mapping, name, e1, e2 string, m1, m2 Mult) (SMO, error) {
	return modef.PlanAddAssociation(m, name, e1, e2, m1, m2)
}

// DiffSchemas converts a target client schema into an SMO sequence (drops
// first, then adds).
func DiffSchemas(m *Mapping, target *ClientSchema) ([]SMO, error) { return modef.Diff(m, target) }

// Runtime ---------------------------------------------------------------------

// DB is the in-memory ORM runtime over a compiled mapping.
type DB = orm.DB

// Open creates an empty database over a compiled mapping.
func Open(m *Mapping, views *Views) *DB { return orm.Open(m, views) }

// Roundtrip verifies V ∘ Q = identity on one client state.
func Roundtrip(m *Mapping, views *Views, cs *ClientState) error {
	return orm.Roundtrip(m, views, cs)
}

// NewClientState returns an empty client state.
func NewClientState() *ClientState { return state.NewClientState() }

// Streaming executor -----------------------------------------------------------

// TableStore is the batched-scan interface the streaming executor pulls
// rows from: a segmented in-memory ring, the map-store adapter over a
// materialized StoreState, or any external source.
type (
	TableStore = exec.TableStore
	// RowIter is one open batched scan of a table.
	RowIter = exec.RowIter
	// RingStore is a segmented append-only row store; open scans see a
	// consistent prefix while appends proceed concurrently.
	RingStore = exec.RingStore
	// MapStore adapts a materialized StoreState behind TableStore.
	MapStore = exec.MapStore
	// ExecOptions tunes the executor (batch size, tracer).
	ExecOptions = exec.Options
	// EntityIter streams constructed entities out of a compiled query view.
	EntityIter = exec.EntityIter
	// ExecError is the typed per-operator error the executor surfaces
	// (operator name, target, wrapped cause).
	ExecError = exec.OpError
)

// NewRingStore returns an empty segmented ring store.
func NewRingStore(segCap int) *RingStore { return exec.NewRingStore(segCap) }

// RingFromState copies a materialized store into a ring store.
func RingFromState(ss *StoreState, segCap int) *RingStore { return exec.RingFromState(ss, segCap) }

// NewMapStore adapts a materialized store behind the TableStore interface.
func NewMapStore(ss *StoreState) MapStore { return exec.NewMapStore(ss) }

// QueryTypeStream opens a streaming read of one entity type's compiled
// query view; the caller pulls batches of constructed entities.
func QueryTypeStream(ctx context.Context, m *Mapping, views *Views, ts TableStore, entityType string, opts ExecOptions) (*EntityIter, error) {
	return orm.QueryTypeStream(ctx, m, views, ts, entityType, opts)
}

// LoadStream is Load over the streaming executor: it decodes a whole
// client state from a TableStore without materializing the store as maps.
func LoadStream(ctx context.Context, m *Mapping, views *Views, ts TableStore, opts ExecOptions) (*ClientState, error) {
	return orm.LoadStream(ctx, m, views, ts, opts)
}

// MaterializeInto streams a client state through the compiled update
// views into a fresh ring store.
func MaterializeInto(ctx context.Context, m *Mapping, views *Views, cs *ClientState, opts ExecOptions) (*RingStore, error) {
	return orm.MaterializeInto(ctx, m, views, cs, opts)
}

// Observability ---------------------------------------------------------------

// Tracer records hierarchical spans of compilation work (Compile → Validate
// → span-worker → containment-check; Apply → adapt-views → ...). A nil
// *Tracer is the null tracer: every entry point is a no-op, and the
// compilers pay a single atomic load per compilation when tracing is off.
// Install one per compilation via CompilerOptions.Tracer /
// IncrementalOptions.Tracer, or process-wide with SetDefaultTracer.
type Tracer = obsv.Tracer

// TraceSink consumes finished spans; Record must be safe for concurrent
// use.
type TraceSink = obsv.Sink

// SpanData is one finished span as delivered to a TraceSink.
type SpanData = obsv.SpanData

// RecordingSink is an in-memory TraceSink for tests and tooling.
type RecordingSink = obsv.RecordingSink

// PhaseSummary aggregates a trace's spans by name (count, total duration).
type PhaseSummary = obsv.PhaseSummary

// NewTracer returns a tracer delivering finished spans to sink.
func NewTracer(sink TraceSink) *Tracer { return obsv.New(sink) }

// NewRecordingSink returns an empty in-memory sink.
func NewRecordingSink() *RecordingSink { return obsv.NewRecordingSink() }

// SetDefaultTracer installs (or, with nil, removes) the process-wide tracer
// used by compilations not handed an explicit one.
func SetDefaultTracer(t *Tracer) { obsv.SetDefault(t) }

// WriteChromeTrace renders recorded spans as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto).
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	return obsv.WriteChromeTrace(w, spans)
}

// SummarizePhases aggregates spans by name, longest total first.
func SummarizePhases(spans []SpanData) []PhaseSummary { return obsv.SummarizePhases(spans) }

// MetricsSnapshot returns the process-wide compilation metrics (counter
// name → value): compilations, validation tasks, containment checks, cache
// hits/misses. The same registry is exported through expvar under
// "incmap" once PublishMetrics has been called.
func MetricsSnapshot() map[string]int64 { return obsv.Snapshot() }

// PublishMetrics exposes the metrics registry through the expvar interface
// (idempotent).
func PublishMetrics() { obsv.PublishExpvar() }

// Containment -----------------------------------------------------------------

// ContainmentChecker decides query containment (exposed for tooling and
// experiments).
type ContainmentChecker = containment.Checker

// NewContainmentChecker builds a checker over a mapping's schemas.
func NewContainmentChecker(m *Mapping) *ContainmentChecker {
	return containment.NewChecker(m.Catalog())
}

// Views and formatting ----------------------------------------------------------

// FormatView renders a compiled (Q | τ) view as Entity-SQL-like text, in
// the shape of Figure 2 of the paper.
func FormatView(v *cqt.View) string { return cqt.FormatView(v) }

// SQL generation -------------------------------------------------------------------

// GenerateDDL renders CREATE TABLE statements for the mapping's store
// schema.
func GenerateDDL(m *Mapping) string { return sqlgen.DDL(m.Store) }

// GenerateSQL renders a compiled query view as an ANSI SQL SELECT (only
// query views have a SQL form; update views range over client data).
func GenerateSQL(m *Mapping, v *cqt.View) (string, error) {
	return sqlgen.Query(m.Catalog(), v.Q)
}

// Serialization ------------------------------------------------------------------

// EncodeMapping writes a mapping as JSON.
func EncodeMapping(w io.Writer, m *Mapping) error { return modelio.Encode(w, m) }

// DecodeMapping reads a mapping from JSON. It reads r to EOF: the reader
// must hold exactly one document, and anything but whitespace after it is
// an error.
func DecodeMapping(r io.Reader) (*Mapping, error) { return modelio.Decode(r) }

// EncodeViews writes compiled views as JSON. Conditions are encoded
// structurally, so DecodeViews re-interns them into the process-wide
// hash-consing table (decoded conditions are pointer-equal to live ones).
func EncodeViews(w io.Writer, v *Views) error { return modelio.EncodeViews(w, v) }

// DecodeViews reads compiled views from JSON. Like DecodeMapping, it reads
// r to EOF and rejects anything but whitespace after the document.
func DecodeViews(r io.Reader) (*Views, error) { return modelio.DecodeViews(r) }

// Persistence --------------------------------------------------------------------

// Store is a content-addressed on-disk cache of compilation artifacts:
// compiled generations keyed by a fingerprint of the mapping and compiler
// options, plus SatCache verdicts and learned lemmas. It is strictly an
// accelerator — any missing, stale or damaged record degrades to a cold
// compile, never to an error.
type Store = store.Store

// StoreStats is a snapshot of a store's hit/miss/eviction/byte counters.
type StoreStats = store.Stats

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Fingerprint computes the content address of a mapping (plus optional
// extra strings covering compiler options) used to key saved generations.
func Fingerprint(m *Mapping, extras ...string) (string, error) {
	return store.Fingerprint(m, extras...)
}

// Save persists a compiled generation into st under the mapping's
// fingerprint, so a later process can warm-start from it with Load.
func Save(st *Store, m *Mapping, v *Views) error {
	fp, err := store.Fingerprint(m)
	if err != nil {
		return err
	}
	return st.SaveGeneration(fp, m, v)
}

// Load restores the compiled generation saved for m, or an error if no
// intact record with a matching fingerprint exists (callers then compile
// cold).
func Load(st *Store, m *Mapping) (*Mapping, *Views, error) {
	fp, err := store.Fingerprint(m)
	if err != nil {
		return nil, nil, err
	}
	return st.LoadGeneration(fp)
}

// WithStore returns SessionOptions wired to persist and restore through
// st: NewSessionCompile warm-starts from a saved generation when the
// fingerprint matches, and every committed generation (plus the shared
// SatCache) is snapshotted back on commit.
func WithStore(st *Store) SessionOptions { return SessionOptions{Store: st} }

// Int returns an integer Value.
func Int(i int64) Value { return cond.Int(i) }

// Str returns a string Value.
func Str(s string) Value { return cond.String(s) }

// Float returns a float Value.
func Float(f float64) Value { return cond.Float(f) }

// Bool returns a boolean Value.
func Bool(b bool) Value { return cond.Bool(b) }

// Daemon is the multi-tenant mapping-compiler server: many named models,
// each behind its own Session, sharing one SatCache and one persistent
// Store, with bounded admission queues, graceful degradation (a failed
// evolve leaves the tenant serving its last committed generation, flagged
// stale) and a clean drain/warm-restart lifecycle. See cmd/mapserved for
// the runnable binary.
type Daemon = server.Server

// DaemonOptions configures a Daemon: queue depths, compile concurrency,
// evolve deadlines, budgets, and the backing Store.
type DaemonOptions = server.Options

// DaemonTenantStatus reports one tenant's serving state: generation,
// fingerprint, staleness, and request counters.
type DaemonTenantStatus = server.TenantStatus

// NewDaemon builds a Daemon, warm-starting every tenant recorded in the
// store's manifest. Serve its Handler() over HTTP and call Drain on
// shutdown.
func NewDaemon(opts DaemonOptions) *Daemon { return server.New(opts) }

// SessionGeneration identifies one committed (or staged) generation in a
// Session's version chain: sequence number, fingerprint, and the mapping
// plus views it serves. Session.Head/Generations/GenerationAt walk the
// chain; Propose/PromotePending/DiscardPending/Rollback manage staged
// cutovers.
type SessionGeneration = pipeline.Generation

// DaemonRolloutStatus reports one versioned rollout's progress through
// the propose → canary → backfill → cutover → verify state machine:
// phase, source/target fingerprints, backfill checkpoint counters, gate
// failures and whether the rollout resumed from a crash.
type DaemonRolloutStatus = server.RolloutStatus

// DaemonReconfig is the hot-reloadable knob set a running Daemon accepts
// through Reconfigure (and mapserved re-applies on SIGHUP): queue bounds,
// evolve timeout, validation budgets, and rollout gate thresholds. All
// fields are optional; nil leaves the current value untouched.
type DaemonReconfig = server.Reconfig

// DaemonConfigStatus snapshots the Daemon's effective hot configuration,
// including the reload generation counter.
type DaemonConfigStatus = server.ConfigStatus

// DaemonRolloutConfig holds the rollout defaults and health-gate
// thresholds: canary sample count, backfill batch rows and retry ladder,
// maximum divergent rows and error-rate percentage before automatic
// rollback.
type DaemonRolloutConfig = server.RolloutConfig
