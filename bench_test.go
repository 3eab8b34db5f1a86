// Benchmarks for what no workload of the committed benchmark (bench/)
// measures: the validation worker pool, recompiles against a warm
// in-memory SatCache, and the copy-on-write A/B of one SMO. The paper's
// figure series are printed by cmd/mapbench and timed by bench/; see
// EXPERIMENTS.md.
package incmap_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/workload"
)

// BenchmarkParallelValidate measures the validation worker pool on the
// paper's worst published point, the N=3, M=5 TPH hub-and-rim (589,842
// cells in one table). Workers split the cell space of each table/set, so
// speedup tracks available cores; at one worker the pipeline is exactly
// the sequential algorithm.
func BenchmarkParallelValidate(b *testing.B) {
	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := workload.HubRim(workload.HubRimOptions{N: 3, M: 5, TPH: true})
				c := &compiler.Compiler{Opts: compiler.Options{Parallelism: w}}
				if _, err := c.Compile(m); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(c.Stats.CellsVisited), "cells/op")
			}
		})
	}
}

// BenchmarkSatCacheWarm measures recompilation against a pre-warmed shared
// decision cache — the steady state of an edit-compile loop where the
// schema facts relevant to most queries are unchanged. The hit rate is
// reported as a benchmark metric; on an identical recompile it is 1.0.
func BenchmarkSatCacheWarm(b *testing.B) {
	mk := func() *frag.Mapping {
		return workload.HubRim(workload.HubRimOptions{N: 2, M: 4, TPH: true})
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			cache := cond.NewSatCache()
			if warm {
				c := &compiler.Compiler{Opts: compiler.Options{SatCache: cache}}
				if _, err := c.Compile(mk()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var hits, misses int64
			for i := 0; i < b.N; i++ {
				opts := compiler.Options{SatCache: cache}
				if !warm {
					opts.SatCache = cond.NewSatCache()
				}
				c := &compiler.Compiler{Opts: opts}
				if _, err := c.Compile(mk()); err != nil {
					b.Fatal(err)
				}
				hits += c.Stats.CacheHits
				misses += c.Stats.CacheMisses
			}
			if hits+misses > 0 {
				b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
			}
		})
	}
}

// BenchmarkIncrementalSMO measures one SMO applied to the full chain-1002
// model of the paper, comparing the copy-on-write generation path ("cow",
// the production path: Apply's internal clones share untouched fragments,
// schema entries and view trees) against a deep-clone arm that reproduces
// the pre-CoW cost of copying the whole model per SMO. Run with -benchmem:
// the cow arm must be ≥5× faster and allocate ≥10× less than deepclone.
func BenchmarkIncrementalSMO(b *testing.B) {
	const n = 1002
	base := workload.Chain(n)
	views, err := compiler.New().Compile(base)
	if err != nil {
		b.Fatal(err)
	}
	mid := n / 2
	ty := func(i int) string { return fmt.Sprintf("Entity%d", i) }
	targets := experiments.SuiteTargets{
		TPTParent: ty(mid), TPCParent: ty(mid + 1), TPHParent: ty(mid + 2),
		FKEnd1: ty(n / 5), FKEnd2: ty(2 * n / 5),
		JTEnd1: ty(3 * n / 5), JTEnd2: ty(4 * n / 5),
		PropType: ty(mid),
	}
	var ops []experiments.NamedOp
	for _, op := range experiments.Suite(targets) {
		if op.Name == "AE-TPT" || op.Name == "AE-TPH" {
			ops = append(ops, op)
		}
	}
	for _, op := range ops {
		op := op
		for _, deep := range []bool{false, true} {
			deep := deep
			arm := "cow"
			if deep {
				arm = "deepclone"
			}
			b.Run(op.Name+"/"+arm, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ic := core.NewIncremental()
					m2 := base.Clone()
					if deep {
						// Pre-CoW, Apply deep-copied the model and all
						// views before touching anything; charge that
						// cost to this arm.
						m2 = base.DeepClone()
						views.DeepClone()
					}
					smo, err := op.Make(m2)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := ic.Apply(m2, views, smo); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
