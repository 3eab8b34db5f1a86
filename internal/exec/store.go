// Package exec is the view executor: every production evaluation of a
// compiled cqt query or update view runs here, as a tree of composable
// pull iterators over batched rows. Scans pull from a TableStore — an
// append/scan interface with an in-memory segmented ring implementation
// and an adapter over the map-backed state.StoreState — so the data a view
// runs over never has to be copied into an intermediate state. Selection,
// projection, hash joins (inner/left-outer/full-outer), union-all and
// constructor (CASE) application all stream batch-at-a-time; only a join's
// build side blocks, and it reports the rows it holds.
//
// The executor is held to an independent reference evaluator — the naive
// tree-walker in internal/difftest, which no production code calls — by
// differential tests (FuzzExecVsMaterialize), in the spirit of Incremental
// Relational Lenses: correctness of the streaming artifact is established
// against the naive recompute, not by inspection.
package exec

import (
	"context"
	"sort"
	"sync"

	"github.com/ormkit/incmap/internal/state"
)

// RowIter is a batched pull iterator over raw table rows. Next returns
// the next batch; ok=false means the scan is exhausted. Returned row
// slices and the rows they hold are read-only and remain valid only
// until the next Next or Close call.
type RowIter interface {
	Next() (rows []state.Row, ok bool, err error)
	Close() error
}

// TableStore is the executor's data source: something that can enumerate
// its tables and open batched scans over them. Scans observe a snapshot
// of the table taken at open time — rows appended afterwards are not
// seen, and appends never invalidate an open scan.
type TableStore interface {
	// Tables returns the sorted names of tables holding at least one row.
	Tables() []string
	// Len reports the number of rows currently in the table.
	Len(table string) int
	// Scan opens a batched iterator over the table's rows as of the call.
	// Unknown or empty tables yield an empty scan, not an error.
	Scan(ctx context.Context, table string, batch int) (RowIter, error)
}

// Appender is the write half a streaming materialization needs. Rows
// handed to Append are owned by the store afterwards.
type Appender interface {
	Append(table string, rows ...state.Row)
}

// sliceIter walks an immutable snapshot of row slices in batches.
type sliceIter struct {
	ctx    context.Context
	segs   [][]state.Row
	seg    int
	off    int
	batch  int
	closed bool
}

func (it *sliceIter) Next() ([]state.Row, bool, error) {
	if it.closed {
		return nil, false, nil
	}
	if err := it.ctx.Err(); err != nil {
		return nil, false, err
	}
	for it.seg < len(it.segs) {
		seg := it.segs[it.seg]
		if it.off >= len(seg) {
			it.seg++
			it.off = 0
			continue
		}
		end := it.off + it.batch
		if end > len(seg) {
			end = len(seg)
		}
		out := seg[it.off:end:end]
		it.off = end
		return out, true, nil
	}
	return nil, false, nil
}

func (it *sliceIter) Close() error {
	it.closed = true
	it.segs = nil
	return nil
}

// MapStore adapts a materialized state.StoreState to the TableStore
// interface. The adapted state must be treated as immutable while scans
// are open (the daemon's data plane already swaps whole states on write,
// so sharing is safe there); appends go straight into the state's maps
// and are only safe without concurrent scans.
type MapStore struct {
	S *state.StoreState
}

// NewMapStore wraps an existing store state.
func NewMapStore(s *state.StoreState) MapStore { return MapStore{S: s} }

// Tables implements TableStore.
func (m MapStore) Tables() []string {
	out := make([]string, 0, len(m.S.Tables))
	for t, rows := range m.S.Tables {
		if len(rows) > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Len implements TableStore.
func (m MapStore) Len(table string) int { return len(m.S.Tables[table]) }

// Scan implements TableStore.
func (m MapStore) Scan(ctx context.Context, table string, batch int) (RowIter, error) {
	rows := m.S.Tables[table]
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	return &sliceIter{ctx: ctx, segs: [][]state.Row{rows}, batch: batch}, nil
}

// Append implements Appender.
func (m MapStore) Append(table string, rows ...state.Row) {
	m.S.Tables[table] = append(m.S.Tables[table], rows...)
}

// RingStore is the executor's native store: a per-table, append-only
// segmented row log sized for real data volumes. Appends go to the tail
// segment under the table's lock; scans snapshot the segment list and
// per-segment lengths once at open and then iterate without locks, so a
// scan never copies rows, never blocks appenders, and concurrent appends
// are simply invisible to scans opened before them. Committed rows are
// never moved or rewritten (segments have fixed capacity, so growth
// never reallocates a segment another scan is reading).
type RingStore struct {
	mu     sync.RWMutex
	tables map[string]*ringTable
	segCap int
}

type ringTable struct {
	mu   sync.RWMutex
	segs [][]state.Row
	n    int
}

// DefaultSegmentCap is the rows-per-segment default for NewRingStore.
const DefaultSegmentCap = 4096

// NewRingStore returns an empty ring store with the given segment
// capacity (rows per segment; <=0 selects DefaultSegmentCap).
func NewRingStore(segCap int) *RingStore {
	if segCap <= 0 {
		segCap = DefaultSegmentCap
	}
	return &RingStore{tables: map[string]*ringTable{}, segCap: segCap}
}

// RingFromState seeds a ring store with every row of a materialized
// store state. Rows are shared, not copied: the source state must not be
// mutated afterwards.
func RingFromState(ss *state.StoreState, segCap int) *RingStore {
	r := NewRingStore(segCap)
	for t, rows := range ss.Tables {
		r.Append(t, rows...)
	}
	return r
}

func (r *RingStore) table(name string, create bool) *ringTable {
	r.mu.RLock()
	t := r.tables[name]
	r.mu.RUnlock()
	if t != nil || !create {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.tables[name]; t == nil {
		t = &ringTable{}
		r.tables[name] = t
	}
	return t
}

// Append adds rows to the table's tail segment, creating the table on
// first use. The store owns the rows afterwards.
func (r *RingStore) Append(table string, rows ...state.Row) {
	if len(rows) == 0 {
		return
	}
	t := r.table(table, true)
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(rows) > 0 {
		if len(t.segs) == 0 || len(t.segs[len(t.segs)-1]) == cap(t.segs[len(t.segs)-1]) {
			t.segs = append(t.segs, make([]state.Row, 0, r.segCap))
		}
		tail := t.segs[len(t.segs)-1]
		n := cap(tail) - len(tail)
		if n > len(rows) {
			n = len(rows)
		}
		t.segs[len(t.segs)-1] = append(tail, rows[:n]...)
		t.n += n
		rows = rows[n:]
	}
}

// Reset drops every row of the table. Scans opened before the reset keep
// reading their snapshot.
func (r *RingStore) Reset(table string) {
	t := r.table(table, false)
	if t == nil {
		return
	}
	t.mu.Lock()
	t.segs = nil
	t.n = 0
	t.mu.Unlock()
}

// Tables implements TableStore.
func (r *RingStore) Tables() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.tables))
	for name, t := range r.tables {
		t.mu.RLock()
		n := t.n
		t.mu.RUnlock()
		if n > 0 {
			out = append(out, name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len implements TableStore.
func (r *RingStore) Len(table string) int {
	t := r.table(table, false)
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// Scan implements TableStore: the returned iterator walks the snapshot
// of the table taken now, without copying rows or holding locks.
func (r *RingStore) Scan(ctx context.Context, table string, batch int) (RowIter, error) {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	t := r.table(table, false)
	if t == nil {
		return &sliceIter{ctx: ctx, batch: batch}, nil
	}
	t.mu.RLock()
	segs := make([][]state.Row, len(t.segs))
	for i, s := range t.segs {
		segs[i] = s[:len(s):len(s)]
	}
	t.mu.RUnlock()
	return &sliceIter{ctx: ctx, segs: segs, batch: batch}, nil
}

// Snapshot materializes the store's current contents as a state.StoreState
// (rows shared, not copied). Tests use it to check a store survived a
// faulted scan untouched; production reads should scan instead.
func (r *RingStore) Snapshot() (*state.StoreState, error) {
	ss := state.NewStoreState()
	for _, name := range r.Tables() {
		it, err := r.Scan(context.Background(), name, DefaultBatchSize)
		if err != nil {
			return nil, err
		}
		for {
			rows, ok, err := it.Next()
			if err != nil {
				_ = it.Close()
				return nil, err
			}
			if !ok {
				break
			}
			ss.Tables[name] = append(ss.Tables[name], rows...)
		}
		if err := it.Close(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// TotalRows sums Len over every table of a store.
func TotalRows(ts TableStore) int {
	n := 0
	for _, t := range ts.Tables() {
		n += ts.Len(t)
	}
	return n
}

var _ TableStore = MapStore{}
var _ Appender = MapStore{}
var _ TableStore = (*RingStore)(nil)
var _ Appender = (*RingStore)(nil)
