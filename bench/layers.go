package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

// endToEndNames are the metrics every untraced run reports, for every
// workload (see README.md for what an operation is in each workload).
var endToEndNames = []string{"setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"}

// layerNames are the metrics every traced run reports, for every workload.
// A layer the workload does not exercise reads 0. Times and counts are per
// unit of work of the timed operations (per operation, or per thousand
// store rows in stream-rw); percentiles, ratios and sizes are as named.
var layerNames = []string{
	"compiler.compile.self_s", "compiler.validate.self_s", "compiler.span_worker.busy_s",
	"compiler.query_views.self_s", "compiler.update_views.self_s", "compiler.cells_visited",
	"cond.sat.propagations", "cond.sat.conflicts", "cond.sat.learned", "cond.satcache.hit_ratio", "cond.intern.size",
	"containment.check.self_s", "containment.checks", "containment.block_pairs",
	"core.apply.self_s", "core.incremental_validate.self_s", "core.adapt_views.self_s", "core.adapt_fragments.self_s", "core.containments",
	"pipeline.evolve.self_s", "pipeline.fallbacks",
	"store.fingerprint_ms", "store.save_generation_ms", "store.save_satcache_ms", "store.load_generation_ms",
	"store.bytes_written", "store.bytes_read",
	"orm.materialize_into_s",
	"exec.scan.self_s", "exec.select.self_s", "exec.project.self_s", "exec.join.self_s", "exec.union_all.self_s",
	"exec.rows", "exec.batches", "exec.join.build_rows", "exec.next_p50_us",
	"server.data_get_p50_ms", "server.data_get_p99_ms", "server.views_get_p50_ms", "server.evolve_post_p50_ms",
	"server.read_p99_ms", "server.shed", "server.stale_serves", "server.evolve_errors", "server.queue_depth_max",
	"go.gc_pause_total_ms", "go.alloc_mb",
	"bench.self_s", "bench.gen_lag_p99_ms", "obsv.trace_overhead_frac",
}

// spanLayer maps the program's span names to the layer metric their self
// time counts toward. Executor operator spans are absent on purpose: they
// are siblings that each cover the whole life of their iterator, so their
// self times overlap; stream-rw attributes executor time by subtraction
// instead (execSelf).
var spanLayer = map[string]string{
	"Compile":              "compiler.compile.self_s",
	"Validate":             "compiler.validate.self_s",
	"update-views":         "compiler.update_views.self_s",
	"query-views":          "compiler.query_views.self_s",
	"containment-check":    "containment.check.self_s",
	"Apply":                "core.apply.self_s",
	"incremental-validate": "core.incremental_validate.self_s",
	"adapt-views":          "core.adapt_views.self_s",
	"adapt-fragments":      "core.adapt_fragments.self_s",
	"Evolve":               "pipeline.evolve.self_s",
	"rung-incremental":     "pipeline.evolve.self_s",
	"rung-fallback":        "pipeline.evolve.self_s",
}

// counterLayer maps per-layer count metrics to the obsv counters whose
// deltas across the timed operations they report.
var counterLayer = map[string]string{
	"compiler.cells_visited":  obsv.MCompileCells,
	"cond.sat.propagations":   obsv.MSatPropagations,
	"cond.sat.conflicts":      obsv.MSatConflicts,
	"cond.sat.learned":        obsv.MSatLearned,
	"containment.checks":      obsv.MContainments,
	"containment.block_pairs": obsv.MContainmentBlockPairs,
	"core.containments":       obsv.MApplyContainments,
	"pipeline.fallbacks":      obsv.MEvolveFallback,
	"store.bytes_written":     obsv.MStoreBytesWritten,
	"store.bytes_read":        obsv.MStoreBytesRead,
	"exec.rows":               obsv.MExecRows,
	"exec.batches":            obsv.MExecBatches,
	"exec.join.build_rows":    obsv.MExecJoinBuildRows,
	"server.shed":             obsv.MServeShed,
	"server.stale_serves":     obsv.MServeStaleServes,
	"server.evolve_errors":    obsv.MServeEvolveErrors,
}

// sampleLayer maps per-layer metrics to the median of a named sample
// (recorded in seconds).
var sampleLayer = map[string]string{
	"store.fingerprint_ms":     "store.fingerprint",
	"store.save_generation_ms": "store.save_generation",
	"store.save_satcache_ms":   "store.save_satcache",
	"store.load_generation_ms": "store.load_generation",
	"exec.next_p50_us":         "exec.next",
}

// selfTimes returns each span's self time: its duration minus the union of
// the intervals its children on the same track cover. Children on other
// tracks (validation workers) ran concurrently and are reported as those
// tracks' busy time instead.
func selfTimes(spans []obsv.SpanData) map[uint64]time.Duration {
	kids := map[uint64][]int{}
	for i, sp := range spans {
		kids[sp.Parent] = append(kids[sp.Parent], i)
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, sp := range spans {
		var iv [][2]time.Duration
		for _, k := range kids[sp.ID] {
			c := spans[k]
			if c.TID != sp.TID {
				continue
			}
			lo, hi := max(c.Start, sp.Start), min(c.Start+c.Dur, sp.Start+sp.Dur)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[sp.ID] = sp.Dur - unionLen(iv)
	}
	return self
}

func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// foldSpans sums self time per layer metric, in seconds. Validation worker
// spans count as busy time, inclusive of the checks they run, and the
// stream write leg's bench span as the orm layer's inclusive time.
func foldSpans(spans []obsv.SpanData) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, sp := range spans {
		switch {
		case sp.Name == "span-worker":
			out["compiler.span_worker.busy_s"] += sp.Dur.Seconds()
		case strings.HasPrefix(sp.Name, "bench."):
			out["bench.self_s"] += self[sp.ID].Seconds()
			if sp.Name == "bench.write" {
				out["orm.materialize_into_s"] += sp.Dur.Seconds()
			}
		case spanLayer[sp.Name] != "":
			out[spanLayer[sp.Name]] += self[sp.ID].Seconds()
		}
	}
	return out
}

// finishLayers assembles every per-layer metric of a traced run. Metrics a
// workload measured directly (r.layers) are kept; the rest come from the
// spans, counters, runtime statistics and samples, normalized per unit of
// work.
func (r *runner) finishLayers() map[string]float64 {
	if r.sink != nil {
		r.spans = append(r.spans, r.sink.Drain()...)
	}
	out := map[string]float64{}
	for _, n := range layerNames {
		out[n] = 0
	}
	units := math.Max(r.units, 1)
	for name, secs := range foldSpans(r.spans) {
		out[name] = secs / units
	}
	for name, ctr := range counterLayer {
		out[name] = float64(r.counters[ctr]) / units
	}
	hits := r.counters[obsv.MCompileCacheHits] + r.counters[obsv.MApplyCacheHits]
	if all := hits + r.counters[obsv.MCompileCacheMisses] + r.counters[obsv.MApplyCacheMisses]; all > 0 {
		out["cond.satcache.hit_ratio"] = float64(hits) / float64(all)
	}
	out["cond.intern.size"] = float64(r.internSize)
	out["go.gc_pause_total_ms"] = float64(r.gcPauseNs) / 1e6 / units
	out["go.alloc_mb"] = float64(r.allocBytes) / 1e6 / units
	for name, sample := range sampleLayer {
		if xs := r.samples[sample]; len(xs) > 0 {
			out[name] = summarize(xs).Median * unitScale(name)
		}
	}
	for name, v := range r.layers {
		out[name] = v
	}
	return out
}

// unitScale converts seconds to the unit a metric's name ends in.
func unitScale(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return 1e3
	case strings.HasSuffix(name, "_us"):
		return 1e6
	}
	return 1
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(nearestRank(p, len(s)), 1)-1]
}
