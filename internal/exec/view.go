package exec

import (
	"context"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/state"
)

// ViewMode selects how a streamed constructor treats rows matching no
// case.
type ViewMode int

const (
	// Strict errors on a row no constructor case matches — the contract
	// for same-version query views, where every emitted row must be
	// constructible.
	Strict ViewMode = iota
	// Visible skips unmatched rows — the contract for cross-version reads,
	// whose case lists were restricted to the types the reading version
	// knows.
	Visible
)

// EntityIter streams constructed entities from a compiled query view.
// The same batch-ownership contract as Iterator applies: an entity batch
// is valid until the next Next or Close.
type EntityIter struct {
	in     Iterator
	cases  []cqt.Case
	mode   ViewMode
	closed bool
	err    error
	buf    []*state.Entity
	made   int64
}

// OpenView opens a streaming evaluation of a query view and applies its
// constructor τ row-by-row. Views without cases (update views,
// association query views) cannot stream entities; use Open directly.
func OpenView(ctx context.Context, env *Env, v *cqt.View, mode ViewMode, opts Options) (*EntityIter, error) {
	in, err := Open(ctx, env, v.Q, opts)
	if err != nil {
		return nil, err
	}
	return &EntityIter{in: in, cases: v.Cases, mode: mode}, nil
}

// Next returns the next batch of constructed entities.
func (e *EntityIter) Next() ([]*state.Entity, bool, error) {
	if e.closed {
		return nil, false, nil
	}
	if e.err != nil {
		return nil, false, e.err
	}
	for {
		batch, ok, err := e.in.Next()
		if err != nil {
			e.err = err
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		e.buf = e.buf[:0]
		for _, t := range batch {
			if e.mode == Visible {
				if ent, vis := cqt.ConstructVisible(e.cases, t.Data); vis {
					e.buf = append(e.buf, ent)
				}
				continue
			}
			ent, err := cqt.ConstructEntity(e.cases, t.Data)
			if err != nil {
				e.err = err
				return nil, false, err
			}
			e.buf = append(e.buf, ent)
		}
		if len(e.buf) == 0 {
			continue
		}
		e.made += int64(len(e.buf))
		return e.buf, true, nil
	}
}

// Close releases the underlying iterator tree. Idempotent.
func (e *EntityIter) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.made > 0 {
		obsv.Add(obsv.MExecConstructed, e.made)
	}
	e.buf = nil
	return e.in.Close()
}

// Collect drains an iterator into a materialized result: the collect
// helper behind the orm and cross-version readers that return whole
// states. Readers that can consume batches as they stream should.
func Collect(it Iterator) (*cqt.Result, error) {
	defer it.Close()
	res := &cqt.Result{Cols: it.Cols()}
	for {
		batch, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		for _, t := range batch {
			res.Rows = append(res.Rows, t.Data)
		}
	}
}

// CollectEntities drains an entity iterator.
func CollectEntities(it *EntityIter) ([]*state.Entity, error) {
	defer it.Close()
	var out []*state.Entity
	for {
		batch, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, batch...)
	}
}
