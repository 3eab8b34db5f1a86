package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/store"
	"github.com/ormkit/incmap/internal/workload"
)

// runCompile is the compile workload: rounds of one cold full compile of
// the Figure 4 hub-and-rim point, one of the Figure 9 chain (each with a
// fresh compiler and SatCache), and warm opens of the chain from its
// persisted generation (pipeline.NewSessionCompile over a freshly opened
// store).
func runCompile(ctx context.Context, r *runner) error {
	hub, err := workload.HubRimE(r.sz.hub)
	if err != nil {
		return err
	}
	chain, err := workload.ChainE(r.sz.chain)
	if err != nil {
		return err
	}

	// Set-up compiles each model once, untimed, so lazily built process
	// state (the condition intern table, the heap) is in place. The chain's
	// compile runs in a store-backed session, which persists the generation
	// the warm opens load.
	hv, err := coldCompile(ctx, hub)
	if err != nil {
		return fmt.Errorf("compiling %s: %w", hubLabel(r.sz.hub), err)
	}
	r.checkShape(hubLabel(r.sz.hub), hub, hv)
	dir := filepath.Join(r.scratch, "store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	s, err := pipeline.NewSessionCompile(ctx, chain, pipeline.Options{Store: st})
	if err != nil {
		return fmt.Errorf("compiling %s: %w", chainLabel(r.sz.chain), err)
	}
	cm, cv := s.Generation()
	r.checkShape(chainLabel(r.sz.chain), cm, cv)

	for r.more() {
		err := r.timed("compile_tph", func(ctx context.Context) (float64, error) {
			_, err := coldCompile(ctx, hub)
			return 1, err
		})
		r.ok(err, "cold compile of "+hubLabel(r.sz.hub))
		err = r.timed("compile_chain", func(ctx context.Context) (float64, error) {
			_, err := coldCompile(ctx, chain)
			return 1, err
		})
		r.ok(err, "cold compile of "+chainLabel(r.sz.chain))
		for i := 0; i < r.sz.warmOpens; i++ {
			var ws *pipeline.Session
			var wst *store.Store
			err := r.timed("warm_open", func(ctx context.Context) (float64, error) {
				var err error
				if wst, err = store.Open(dir); err != nil {
					return 1, err
				}
				ws, err = pipeline.NewSessionCompile(ctx, chain, pipeline.Options{Store: wst})
				return 1, err
			})
			if r.ok(err, "warm open") {
				r.check(ws.Stats().WarmStarts == 1, "warm open compiled instead of loading the persisted generation")
				m, v := ws.Generation()
				r.timeStore(wst, ws.SatCache(), m, v)
			}
		}
	}

	r.roundtrip(hubLabel(r.sz.hub), hub, hv, 3)
	r.roundtrip(chainLabel(r.sz.chain), cm, cv, 2)
	return nil
}

// coldCompile is one full compile with nothing cached.
func coldCompile(ctx context.Context, m *frag.Mapping) (*frag.Views, error) {
	c := &compiler.Compiler{Opts: compiler.Options{SatCache: cond.NewSatCache()}}
	return c.CompileCtx(ctx, m)
}

// timeStore times, in a traced run and outside any timed operation, the
// store calls that commit and reopen one generation: its fingerprint, the
// generation save, the SatCache save and the generation load.
func (r *runner) timeStore(st *store.Store, cache *cond.SatCache, m *frag.Mapping, v *frag.Views) {
	if !r.traced {
		return
	}
	t := time.Now()
	fp, err := store.Fingerprint(m)
	r.sample("store.fingerprint", time.Since(t).Seconds())
	if !r.ok(err, "store fingerprint") {
		return
	}
	t = time.Now()
	err = st.SaveGeneration(fp, m, v)
	r.sample("store.save_generation", time.Since(t).Seconds())
	r.ok(err, "store save generation")
	if cache != nil {
		t = time.Now()
		err = st.SaveSatCache(cache)
		r.sample("store.save_satcache", time.Since(t).Seconds())
		r.ok(err, "store save satcache")
	}
	t = time.Now()
	_, _, err = st.LoadGeneration(fp)
	r.sample("store.load_generation", time.Since(t).Seconds())
	r.ok(err, "store load generation")
}
