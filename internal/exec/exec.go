package exec

import (
	"context"
	"fmt"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/state"
)

// DefaultBatchSize is the rows-per-batch default when Options leaves
// BatchSize unset.
const DefaultBatchSize = 1024

// DefaultSpillThreshold is the held-row count above which a blocking
// operator (a hash-join build side) reports memory pressure through the
// exec.spills counter. Rows stay in memory either way.
const DefaultSpillThreshold = 1 << 16

// Options tunes one executor run.
type Options struct {
	// BatchSize caps the rows per pulled batch (<=0: DefaultBatchSize).
	BatchSize int
	// Tracer overrides the process-wide tracer for executor spans; nil
	// resolves obsv's default (and tracing stays free when none is set).
	Tracer *obsv.Tracer
}

func (o Options) batch() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// Env supplies the data a streaming evaluation runs over: query views
// scan Store, update views scan Client. A nil Store or Client fails the
// corresponding scan at open time.
type Env struct {
	Catalog *cqt.Catalog
	Store   TableStore
	Client  *state.ClientState
}

// Tuple is one streamed row: column values plus the concrete entity
// types of the subjects that produced it (for IS OF conditions). Tuples
// implement cond.Instance so selections evaluate directly on them. Data
// maps are read-only once emitted.
type Tuple struct {
	Types map[string]string
	Data  state.Row
}

// InstanceType implements cond.Instance.
func (t Tuple) InstanceType(subject string) string { return t.Types[subject] }

// Lookup implements cond.Instance.
func (t Tuple) Lookup(attr string) (cond.Value, bool) {
	v, ok := t.Data[attr]
	return v, ok
}

// Iterator is a batched pull iterator over tuples: the executor's
// operator interface. The contract every operator honours (and the
// contract tests pin):
//
//   - Next returns (batch, true, nil) while tuples remain; the batch is
//     valid only until the next Next or Close call.
//   - Next returns (nil, false, nil) once exhausted, and keeps doing so.
//   - A non-nil error ends the stream; the error is sticky.
//   - Close is idempotent, releases the whole subtree, and may be called
//     at any point — before exhaustion, twice, or never having pulled.
//   - After Close, Next returns (nil, false, nil).
type Iterator interface {
	Next() ([]Tuple, bool, error)
	Close() error
	// Cols returns the stream's output column names.
	Cols() []string
}

// OpError is the typed error a streaming operator surfaces when its data
// source fails mid-stream (an injected scan fault, a cancelled context,
// a store error). It identifies the operator and scan target so callers
// can tell an executor fault from a view-compilation bug.
type OpError struct {
	Op     string // "scan", "join", ...
	Target string // table / set / association being read
	Err    error
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("exec: %s of %s: %v", e.Op, e.Target, e.Err)
}

// Unwrap implements errors.Unwrap.
func (e *OpError) Unwrap() error { return e.Err }

// Open compiles a cqt expression into a streaming iterator tree over the
// environment. Catalog validation (unknown scans, unequated shared join
// columns, ragged unions) happens here, before any row moves; the
// returned iterator is positioned before the first batch. The caller
// must Close it (Close is safe to call more than once).
func Open(ctx context.Context, env *Env, e cqt.Expr, opts Options) (Iterator, error) {
	if _, err := env.Catalog.Cols(e); err != nil {
		return nil, err
	}
	tr := opts.Tracer
	if tr == nil {
		tr = obsv.Default()
	}
	sp := tr.SpanCtx(ctx, "exec", obsv.String("root", opName(e)))
	obsv.Add(obsv.MExecOpens, 1)
	it, err := open(ctx, env, e, opts, sp)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	return &rootIter{child: it, sp: sp}, nil
}

func opName(e cqt.Expr) string {
	switch e.(type) {
	case cqt.ScanTable:
		return "scan-table"
	case cqt.ScanSet:
		return "scan-set"
	case cqt.ScanAssoc:
		return "scan-assoc"
	case cqt.Select:
		return "select"
	case cqt.Project:
		return "project"
	case cqt.Join:
		return "join"
	case cqt.UnionAll:
		return "union-all"
	}
	return fmt.Sprintf("%T", e)
}

// opBase carries the bookkeeping every operator shares: output columns,
// closed/error state, the operator span, and locally accumulated traffic
// counters flushed to the process registry once at Close.
type opBase struct {
	cols   []string
	closed bool
	err    error
	sp     *obsv.Span

	rows, batches int64
}

func (b *opBase) Cols() []string { return b.cols }

// emit records one outgoing batch.
func (b *opBase) emit(n int) {
	b.rows += int64(n)
	b.batches++
}

// finish ends the operator: flushes counters, ends the span. Idempotent
// via the closed flag its caller sets.
func (b *opBase) finish() {
	if b.rows > 0 || b.batches > 0 {
		obsv.Add(obsv.MExecRows, b.rows)
		obsv.Add(obsv.MExecBatches, b.batches)
	}
	if b.err != nil {
		b.sp.End(obsv.OutcomeError,
			obsv.String("error", b.err.Error()),
			obsv.String("rows", fmt.Sprint(b.rows)))
		return
	}
	b.sp.End(obsv.OutcomeOK,
		obsv.String("rows", fmt.Sprint(b.rows)),
		obsv.String("batches", fmt.Sprint(b.batches)))
}

// fail marks the stream failed and returns the sticky error.
func (b *opBase) fail(err error) ([]Tuple, bool, error) {
	if b.err == nil {
		b.err = err
	}
	return nil, false, b.err
}

// gate returns (handled) results for the common preamble: closed streams
// yield (nil,false,nil), failed streams re-yield their sticky error.
func (b *opBase) gate() ([]Tuple, bool, error, bool) {
	if b.closed {
		return nil, false, nil, true
	}
	if b.err != nil {
		return nil, false, b.err, true
	}
	return nil, false, nil, false
}

// open builds the iterator tree.
func open(ctx context.Context, env *Env, e cqt.Expr, opts Options, parent *obsv.Span) (Iterator, error) {
	cols, err := env.Catalog.Cols(e)
	if err != nil {
		return nil, err
	}
	switch v := e.(type) {
	case cqt.ScanTable:
		if env.Store == nil {
			return nil, fmt.Errorf("exec: table scan %q without a table store", v.Table)
		}
		src, err := env.Store.Scan(ctx, v.Table, opts.batch())
		if err != nil {
			return nil, &OpError{Op: "scan", Target: v.Table, Err: err}
		}
		return &scanIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.scan", obsv.String("table", v.Table))},
			ctx:    ctx, table: v.Table, src: src,
		}, nil

	case cqt.ScanSet:
		if env.Client == nil {
			return nil, fmt.Errorf("exec: entity-set scan %q without a client state", v.Set)
		}
		return &clientScanIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.scan-set", obsv.String("set", v.Set))},
			ctx:    ctx, target: v.Set, batch: opts.batch(),
			entities: env.Client.Entities[v.Set],
		}, nil

	case cqt.ScanAssoc:
		if env.Client == nil {
			return nil, fmt.Errorf("exec: association scan %q without a client state", v.Assoc)
		}
		return &clientScanIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.scan-assoc", obsv.String("assoc", v.Assoc))},
			ctx:    ctx, target: v.Assoc, batch: opts.batch(),
			pairs: env.Client.Assocs[v.Assoc],
		}, nil

	case cqt.Select:
		in, err := open(ctx, env, v.In, opts, parent)
		if err != nil {
			return nil, err
		}
		return &selectIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.select")},
			in:     in, cond: v.Cond, th: cqt.QueryTheory(env.Catalog),
		}, nil

	case cqt.Project:
		in, err := open(ctx, env, v.In, opts, parent)
		if err != nil {
			return nil, err
		}
		return &projectIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.project")},
			in:     in, pcols: v.Cols,
		}, nil

	case cqt.Join:
		return openJoin(ctx, env, v, cols, opts, parent)

	case cqt.UnionAll:
		if len(v.Inputs) == 0 {
			return nil, fmt.Errorf("exec: empty union")
		}
		cols0, err := env.Catalog.Cols(v.Inputs[0])
		if err != nil {
			return nil, err
		}
		u := &unionIter{opBase: opBase{cols: cols, sp: parent.Child("exec.union-all")}}
		for i, in := range v.Inputs {
			cs, err := env.Catalog.Cols(in)
			if err != nil {
				u.closeInputs()
				return nil, err
			}
			if i > 0 && !sameColSet(cols0, cs) {
				u.closeInputs()
				return nil, fmt.Errorf("exec: union inputs have different columns: %v vs %v", cols0, cs)
			}
			it, err := open(ctx, env, in, opts, parent)
			if err != nil {
				u.closeInputs()
				return nil, err
			}
			u.inputs = append(u.inputs, it)
		}
		return u, nil
	}
	return nil, fmt.Errorf("exec: unknown expression %T", e)
}

// rootIter wraps the tree so the run-level span closes exactly once,
// after every operator span.
type rootIter struct {
	child  Iterator
	sp     *obsv.Span
	closed bool
	err    error
}

func (r *rootIter) Cols() []string { return r.child.Cols() }

func (r *rootIter) Next() ([]Tuple, bool, error) {
	if r.closed {
		return nil, false, nil
	}
	batch, ok, err := r.child.Next()
	if err != nil {
		r.err = err
	}
	return batch, ok, err
}

func (r *rootIter) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.child.Close()
	if r.err != nil {
		r.sp.End(obsv.OutcomeError, obsv.String("error", r.err.Error()))
	} else {
		r.sp.End(obsv.OutcomeOK)
	}
	return err
}

// scanIter streams a table store scan, converting rows to tuples. It is
// the executor's fault-injection surface: faultinject.SiteExecScan fires
// once per batch before the store is read.
type scanIter struct {
	opBase
	ctx   context.Context
	table string
	src   RowIter
	buf   []Tuple
}

func (s *scanIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := s.gate(); handled {
		return t, ok, err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(&OpError{Op: "scan", Target: s.table, Err: err})
	}
	if err := faultinject.At(faultinject.SiteExecScan); err != nil {
		obsv.Add(obsv.MExecScanFaults, 1)
		return s.fail(&OpError{Op: "scan", Target: s.table, Err: err})
	}
	rows, ok, err := s.src.Next()
	if err != nil {
		obsv.Add(obsv.MExecScanFaults, 1)
		return s.fail(&OpError{Op: "scan", Target: s.table, Err: err})
	}
	if !ok {
		return nil, false, nil
	}
	if cap(s.buf) < len(rows) {
		s.buf = make([]Tuple, len(rows))
	}
	out := s.buf[:len(rows)]
	for i, r := range rows {
		out[i] = Tuple{Data: r}
	}
	s.emit(len(out))
	obsv.Add(obsv.MExecScanRows, int64(len(out)))
	return out, true, nil
}

func (s *scanIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.src.Close()
	s.finish()
	return err
}

// clientScanIter streams a client entity set or association set. Exactly
// one of entities/pairs is set.
type clientScanIter struct {
	opBase
	ctx      context.Context
	target   string
	batch    int
	entities []*state.Entity
	pairs    []state.AssocPair
	off      int
	buf      []Tuple
}

func (s *clientScanIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := s.gate(); handled {
		return t, ok, err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(&OpError{Op: "scan", Target: s.target, Err: err})
	}
	n := len(s.entities) + len(s.pairs)
	if s.off >= n {
		return nil, false, nil
	}
	end := s.off + s.batch
	if end > n {
		end = n
	}
	if cap(s.buf) < end-s.off {
		s.buf = make([]Tuple, end-s.off)
	}
	out := s.buf[:end-s.off]
	for i := range out {
		if s.entities != nil {
			e := s.entities[s.off+i]
			out[i] = Tuple{Types: map[string]string{"": e.Type}, Data: e.Attrs}
		} else {
			out[i] = Tuple{Data: s.pairs[s.off+i].Ends}
		}
	}
	s.off = end
	s.emit(len(out))
	obsv.Add(obsv.MExecScanRows, int64(len(out)))
	return out, true, nil
}

func (s *clientScanIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.entities, s.pairs = nil, nil
	s.finish()
	return nil
}

// selectIter filters batches in place (the input batch is owned by the
// consumer until the next pull, so compacting it is safe).
type selectIter struct {
	opBase
	in   Iterator
	cond cond.Expr
	th   cond.Theory
}

func (s *selectIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := s.gate(); handled {
		return t, ok, err
	}
	for {
		batch, ok, err := s.in.Next()
		if err != nil {
			return s.fail(err)
		}
		if !ok {
			return nil, false, nil
		}
		out := batch[:0]
		for _, t := range batch {
			if cond.EvalOn(s.th, s.cond, t) {
				out = append(out, t)
			}
		}
		if len(out) == 0 {
			continue // fully filtered batch; pull the next one
		}
		s.emit(len(out))
		return out, true, nil
	}
}

func (s *selectIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.in.Close()
	s.finish()
	return err
}

// projectIter renames, drops and computes columns into fresh rows.
type projectIter struct {
	opBase
	in    Iterator
	pcols []cqt.ProjCol
	buf   []Tuple
}

func (p *projectIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := p.gate(); handled {
		return t, ok, err
	}
	batch, ok, err := p.in.Next()
	if err != nil {
		return p.fail(err)
	}
	if !ok {
		return nil, false, nil
	}
	if cap(p.buf) < len(batch) {
		p.buf = make([]Tuple, len(batch))
	}
	out := p.buf[:len(batch)]
	for i, t := range batch {
		nr := make(state.Row, len(p.pcols))
		for _, pc := range p.pcols {
			if pc.Lit != nil {
				if val, ok := pc.Lit.Value(); ok {
					nr[pc.As] = val
				}
				continue
			}
			if val, ok := t.Data[pc.Src]; ok {
				nr[pc.As] = val
			}
		}
		out[i] = Tuple{Types: t.Types, Data: nr}
	}
	p.emit(len(out))
	return out, true, nil
}

func (p *projectIter) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.in.Close()
	p.finish()
	return err
}

// unionIter drains its inputs in order, passing their batches through.
type unionIter struct {
	opBase
	inputs []Iterator
	cur    int
}

func (u *unionIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := u.gate(); handled {
		return t, ok, err
	}
	for u.cur < len(u.inputs) {
		batch, ok, err := u.inputs[u.cur].Next()
		if err != nil {
			return u.fail(err)
		}
		if ok {
			u.emit(len(batch))
			return batch, true, nil
		}
		u.cur++
	}
	return nil, false, nil
}

func (u *unionIter) closeInputs() error {
	var first error
	for _, in := range u.inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (u *unionIter) Close() error {
	if u.closed {
		return nil
	}
	u.closed = true
	err := u.closeInputs()
	u.finish()
	return err
}

func sameColSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}
