package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/store"
	"github.com/ormkit/incmap/internal/workload"
)

func runEvolveChain(ctx context.Context, r *runner) error {
	m, err := workload.ChainE(r.sz.chain)
	if err != nil {
		return err
	}
	return runEvolve(ctx, r, chainLabel(r.sz.chain), m, func(rng *rand.Rand) experiments.SuiteTargets {
		return chainTargets(rng, r.sz.chain)
	})
}

func runEvolveCustomer(ctx context.Context, r *runner) error {
	m, err := workload.CustomerE(r.sz.customer)
	if err != nil {
		return err
	}
	return runEvolve(ctx, r, customerLabel(r.sz.customer), m, func(*rand.Rand) experiments.SuiteTargets {
		return customerTargets
	})
}

// runEvolve is the Figure 9/10 protocol through the production path. Each
// block runs the nine suite operations once, in a seeded order, each as
// one Session.Evolve on a session forked from the compiled base
// generation: the same store, inline persist (the library default) and a
// fresh SatCache, so no operation inherits another's verdicts. Blocks keep
// the operation mix fixed, whatever the run length.
func runEvolve(ctx context.Context, r *runner, label string, m *frag.Mapping, targets func(*rand.Rand) experiments.SuiteTargets) error {
	st, err := store.Open(filepath.Join(r.scratch, "store"))
	if err != nil {
		return err
	}
	base, err := pipeline.NewSessionCompile(ctx, m, pipeline.Options{Store: st})
	if err != nil {
		return fmt.Errorf("compiling %s: %w", label, err)
	}
	bm, bv := base.Generation()
	r.checkShape(label, bm, bv)

	rng := rand.New(rand.NewSource(r.seed))
	nops := len(experiments.Suite(experiments.SuiteTargets{}))
	evolved := map[string]pipeline.Generation{}
	for r.more() {
		for _, k := range rng.Perm(nops) {
			op := experiments.Suite(targets(rng))[k]
			s := pipeline.NewSession(bm, bv, pipeline.Options{Store: st})
			err := r.timed(op.Name, func(ctx context.Context) (float64, error) {
				_, _, err := s.Evolve(ctx, suitePlanner{op})
				return 1, err
			})
			if op.Name == rejectedOp {
				r.check(err != nil, "%s on %s was accepted", op.Name, label)
				continue
			}
			if !r.ok(err, op.Name+" on "+label) {
				continue
			}
			g := s.Head()
			r.timeStore(st, s.SatCache(), g.M, g.V)
			if _, ok := evolved[op.Name]; !ok {
				evolved[op.Name] = g
			}
		}
	}

	r.roundtrip(label, bm, bv, 2)
	names := make([]string, 0, len(evolved))
	for name := range evolved {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := evolved[name]
		r.roundtrip(label+" after "+name, g.M, g.V, 2)
	}
	return nil
}
