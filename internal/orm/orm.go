// Package orm executes compiled mappings: it materializes client states
// into store states through update views, loads client states back through
// query views, and verifies the roundtripping property V ∘ Q = identity
// (§2.2 of the paper) on concrete data. It is the runtime layer an
// application uses once its mapping has been compiled.
//
// Each operation has one implementation, over the streaming executor
// (internal/exec): MaterializeInto and Materialize write through the same
// update-view streams, LoadStream and Load read through the same query-view
// streams, and QueryTypeStream is the per-type read. Materialize and Load
// are adapters for callers holding a map-backed state.StoreState.
package orm

import (
	"context"
	"fmt"
	"sort"

	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
)

// MaterializeInto pushes a client state through the update views (the
// paper's V : C → S) into a fresh RingStore, batch-at-a-time, without
// building a map-backed StoreState.
func MaterializeInto(ctx context.Context, m *frag.Mapping, views *frag.Views, cs *state.ClientState, opts exec.Options) (*exec.RingStore, error) {
	rs := exec.NewRingStore(0)
	if err := materialize(ctx, m, views, cs, rs, opts); err != nil {
		return nil, err
	}
	return rs, nil
}

// Materialize is MaterializeInto for callers that want a map-backed
// StoreState.
func Materialize(m *frag.Mapping, views *frag.Views, cs *state.ClientState) (*state.StoreState, error) {
	ss := state.NewStoreState()
	if err := materialize(context.TODO(), m, views, cs, exec.NewMapStore(ss), exec.Options{}); err != nil {
		return nil, err
	}
	return ss, nil
}

// materialize streams every update view into dst. Tables are evaluated in
// sorted name order so the produced state — including the relative order
// of rows within a table — is deterministic across runs (views.Update is a
// map, and Go randomizes map iteration).
func materialize(ctx context.Context, m *frag.Mapping, views *frag.Views, cs *state.ClientState, dst exec.Appender, opts exec.Options) error {
	env := &exec.Env{Catalog: m.Catalog(), Client: cs}
	tables := make([]string, 0, len(views.Update))
	for table := range views.Update {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		it, err := exec.Open(ctx, env, views.Update[table].Q, opts)
		if err != nil {
			return fmt.Errorf("orm: update view for %s: %w", table, err)
		}
		for {
			batch, ok, err := it.Next()
			if err != nil {
				_ = it.Close()
				return fmt.Errorf("orm: update view for %s: %w", table, err)
			}
			if !ok {
				break
			}
			rows := make([]state.Row, len(batch))
			for i, t := range batch {
				rows[i] = t.Data
			}
			dst.Append(table, rows...)
		}
		if err := it.Close(); err != nil {
			return fmt.Errorf("orm: update view for %s: %w", table, err)
		}
	}
	return nil
}

// LoadStream pulls a client state out of a table store through the query
// views (the paper's Q : S → C). Entity sets are loaded through their root
// type's view; associations through their association views.
func LoadStream(ctx context.Context, m *frag.Mapping, views *frag.Views, ts exec.TableStore, opts exec.Options) (*state.ClientState, error) {
	env := &exec.Env{Catalog: m.Catalog(), Store: ts}
	cs := state.NewClientState()
	for _, set := range m.Client.Sets() {
		if _, ok := views.Query[set.Type]; !ok {
			continue
		}
		it, err := QueryTypeStream(ctx, m, views, ts, set.Type, opts)
		if err != nil {
			return nil, fmt.Errorf("orm: query view for %s: %w", set.Type, err)
		}
		ents, err := exec.CollectEntities(it)
		if err != nil {
			return nil, fmt.Errorf("orm: query view for %s: %w", set.Type, err)
		}
		for _, e := range ents {
			cs.Insert(set.Name, e)
		}
	}
	for _, a := range m.Client.Associations() {
		v, ok := views.Assoc[a.Name]
		if !ok {
			continue
		}
		it, err := exec.Open(ctx, env, v.Q, opts)
		if err != nil {
			return nil, fmt.Errorf("orm: association view for %s: %w", a.Name, err)
		}
		res, err := exec.Collect(it)
		if err != nil {
			return nil, fmt.Errorf("orm: association view for %s: %w", a.Name, err)
		}
		for _, r := range res.Rows {
			cs.Relate(a.Name, state.AssocPair{Ends: r})
		}
	}
	return cs, nil
}

// Load is LoadStream over a map-backed StoreState.
func Load(m *frag.Mapping, views *frag.Views, ss *state.StoreState) (*state.ClientState, error) {
	return LoadStream(context.TODO(), m, views, exec.NewMapStore(ss), exec.Options{})
}

// QueryTypeStream opens a streaming read of one entity type's query view
// over a table store: the type's own entities plus those of derived types,
// the view unfolding a client query over that type would see. The caller
// owns the returned iterator and must Close it; entity batches are valid
// until the next pull.
func QueryTypeStream(ctx context.Context, m *frag.Mapping, views *frag.Views, ts exec.TableStore, entityType string, opts exec.Options) (*exec.EntityIter, error) {
	v, ok := views.Query[entityType]
	if !ok {
		return nil, fmt.Errorf("orm: no query view for type %s", entityType)
	}
	env := &exec.Env{Catalog: m.Catalog(), Store: ts}
	return exec.OpenView(ctx, env, v, exec.Strict, opts)
}

// Roundtrip verifies V ∘ Q = identity on one concrete client state: the
// state is materialized to the store and loaded back, and the result must
// equal the original. A non-nil error describes the first difference.
func Roundtrip(m *frag.Mapping, views *frag.Views, cs *state.ClientState) error {
	ss, err := Materialize(m, views, cs)
	if err != nil {
		return err
	}
	back, err := Load(m, views, ss)
	if err != nil {
		return err
	}
	if d := state.Diff(cs, back); d != "" {
		return fmt.Errorf("orm: state does not roundtrip:\n%s", d)
	}
	return nil
}
