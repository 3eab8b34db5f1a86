package xver_test

import (
	"context"
	"testing"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/xver"
)

// TestReadClientStreamEqualsReadClient holds the streaming cross-version
// read to the reference evaluator on every additive evolution shape: a
// version-k client reading the version-k+1 store sees the same entities
// and associations whether the plan's views are streamed or evaluated by
// difftest's tree-walker, including the skipping of new-only types.
func TestReadClientStreamEqualsReadClient(t *testing.T) {
	cases := []struct {
		name   string
		evolve func(t *testing.T, g xver.Gen) xver.Gen
	}{
		{"add-entity-tph", addEntity(modef.TPH)},
		{"add-entity-tpt", addEntity(modef.TPT)},
		{"add-assoc-fk", addAssoc(edm.Many, edm.ZeroOne)},
		{"add-assoc-jt", addAssoc(edm.Many, edm.Many)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, cur := chainGens(t, tc.evolve)
			plan, err := xver.Compile(old, cur, xver.Strategies{})
			if err != nil {
				t.Fatalf("compiling plan: %v", err)
			}
			for seed := uint32(1); seed <= 3; seed++ {
				// A new-version store holding a new-version state: the cross
				// reads must skip new-only rows identically on both paths.
				cs := orm.RandomState(cur.M, seed, 3)
				ss, err := difftest.Materialize(cur.M, cur.V, cs)
				if err != nil {
					t.Fatalf("seed %d: materializing new store: %v", seed, err)
				}
				want := referenceRead(t, plan, ss)
				for _, batch := range []int{1, 3, 0} {
					got, err := plan.ReadClient(ctx, exec.RingFromState(ss, 2), exec.Options{BatchSize: batch})
					if err != nil {
						t.Fatalf("seed %d batch %d: ReadClient: %v", seed, batch, err)
					}
					if d := state.Diff(want, got); d != "" {
						t.Fatalf("seed %d batch %d: streaming cross-read differs:\n%s", seed, batch, d)
					}
				}
				counts, err := plan.CountEntitiesStream(ctx, exec.NewMapStore(ss), exec.Options{})
				if err != nil {
					t.Fatalf("seed %d: CountEntitiesStream: %v", seed, err)
				}
				for set, ents := range want.Entities {
					if counts[set] != len(ents) {
						t.Fatalf("seed %d: set %s counted %d streaming, %d by the reference", seed, set, counts[set], len(ents))
					}
				}
			}
		})
	}
}

// referenceRead evaluates the plan's cross-read views over a store with
// the reference evaluator.
func referenceRead(t *testing.T, plan *xver.Plan, ss *state.StoreState) *state.ClientState {
	t.Helper()
	env := &difftest.Env{Catalog: plan.To.M.Catalog(), Store: ss}
	sets, assocs := plan.ReadViews()
	cs := state.NewClientState()
	for set, v := range sets {
		res, err := difftest.Eval(env, v.Q)
		if err != nil {
			t.Fatalf("reference cross-read of %s: %v", set, err)
		}
		for _, row := range res.Rows {
			if e, ok := cqt.ConstructVisible(v.Cases, row); ok {
				cs.Insert(set, e)
			}
		}
	}
	for a, v := range assocs {
		res, err := difftest.Eval(env, v.Q)
		if err != nil {
			t.Fatalf("reference cross-read of %s: %v", a, err)
		}
		for _, row := range res.Rows {
			cs.Relate(a, state.AssocPair{Ends: row})
		}
	}
	return cs
}
