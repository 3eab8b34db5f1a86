package xver

import (
	"context"
	"fmt"
	"sort"

	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/state"
)

// ReadClient reads the version-k projection of a new-layout store: every
// old entity set through its version-restricted constructor (rows
// constructing types the old version does not know are skipped
// mid-stream, never buffered), every old association through the new
// association view.
func (p *Plan) ReadClient(ctx context.Context, ts exec.TableStore, opts exec.Options) (*state.ClientState, error) {
	env := &exec.Env{Catalog: p.To.M.Catalog(), Store: ts}
	cs := state.NewClientState()
	sets := make([]string, 0, len(p.readViews))
	for s := range p.readViews {
		sets = append(sets, s)
	}
	sort.Strings(sets)
	for _, setName := range sets {
		it, err := exec.OpenView(ctx, env, p.readViews[setName], exec.Visible, opts)
		if err != nil {
			return nil, fmt.Errorf("xver: cross-read view for %s: %w", setName, err)
		}
		ents, err := exec.CollectEntities(it)
		if err != nil {
			return nil, fmt.Errorf("xver: cross-read view for %s: %w", setName, err)
		}
		for _, e := range ents {
			cs.Insert(setName, e)
		}
	}
	assocs := make([]string, 0, len(p.assocViews))
	for a := range p.assocViews {
		assocs = append(assocs, a)
	}
	sort.Strings(assocs)
	for _, a := range assocs {
		it, err := exec.Open(ctx, env, p.assocViews[a].Q, opts)
		if err != nil {
			return nil, fmt.Errorf("xver: cross-read association view for %s: %w", a, err)
		}
		res, err := exec.Collect(it)
		if err != nil {
			return nil, fmt.Errorf("xver: cross-read association view for %s: %w", a, err)
		}
		for _, row := range res.Rows {
			cs.Relate(a, state.AssocPair{Ends: row})
		}
	}
	return cs, nil
}

// CountEntitiesStream streams the version-k projection and returns only
// per-set entity counts — the daemon's version=prev read path, which
// never needs the entities themselves.
func (p *Plan) CountEntitiesStream(ctx context.Context, ts exec.TableStore, opts exec.Options) (map[string]int, error) {
	env := &exec.Env{Catalog: p.To.M.Catalog(), Store: ts}
	out := map[string]int{}
	for setName, v := range p.readViews {
		it, err := exec.OpenView(ctx, env, v, exec.Visible, opts)
		if err != nil {
			return nil, fmt.Errorf("xver: cross-read view for %s: %w", setName, err)
		}
		n := 0
		for {
			batch, ok, err := it.Next()
			if err != nil {
				_ = it.Close()
				return nil, fmt.Errorf("xver: cross-read view for %s: %w", setName, err)
			}
			if !ok {
				break
			}
			n += len(batch)
		}
		if err := it.Close(); err != nil {
			return nil, err
		}
		out[setName] = n
	}
	return out, nil
}
