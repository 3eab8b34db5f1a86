package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

// runner is the harness one workload runs under, inside its own child
// process. It times the workload's operations from outside the system and
// counts checks and failures. In a traced run it also installs the process
// tracer around each timed operation only (set-up and correctness checks
// stay untraced), wraps the operation in a bench span, and sums the
// program's counters and the Go runtime's statistics across the timed
// operations.
type runner struct {
	seed    int64
	seconds float64
	traced  bool
	// scratch holds the workload's stores; the caller removes it.
	scratch string
	sz      sizes
	// mapserved is the daemon binary serve-mixed runs; daemonRSSKiB its
	// peak RSS once drained.
	mapserved    string
	daemonRSSKiB int64

	// start is when the first timed operation began (zero before).
	start time.Time
	// ops holds the timed operations' latencies by kind, in seconds per
	// unit of work; units is the work of all of them (one per operation,
	// except in stream-rw where a round counts its thousands of store
	// rows). samples holds every other named measurement (leg rates,
	// store calls, HTTP calls).
	ops     map[string][]float64
	units   float64
	samples map[string][]float64

	attempted, failed int
	failures          []string

	// Traced runs only. spans are the recorded spans of the timed region;
	// counters the summed obsv counter deltas across timed operations;
	// internSize the intern table's size after the last one; gcPauseNs and
	// allocBytes the Go runtime's deltas across them; layers the per-layer
	// metrics, pre-set by workloads that measure some layer directly.
	sink       *obsv.RecordingSink
	tr         *obsv.Tracer
	spans      []obsv.SpanData
	counters   map[string]int64
	internSize int64
	gcPauseNs  uint64
	allocBytes uint64
	layers     map[string]float64
}

func newRunner(seed int64, seconds float64, traced bool, scratch string, sz sizes) *runner {
	r := &runner{
		seed: seed, seconds: seconds, traced: traced, scratch: scratch, sz: sz,
		ops: map[string][]float64{}, samples: map[string][]float64{},
		counters: map[string]int64{}, layers: map[string]float64{},
	}
	if traced {
		r.sink = obsv.NewRecordingSink()
		r.tr = obsv.New(r.sink)
	}
	return r
}

// more reports whether the measured period is still open. Workloads call
// it between whole rounds, so every run measures complete rounds and the
// mix of operation kinds does not depend on where the clock ran out.
func (r *runner) more() bool {
	return r.start.IsZero() || time.Since(r.start).Seconds() < r.seconds
}

// timed runs fn as one timed operation of the given kind. fn returns the
// units of work it did (1 for a plain operation) and its error, which the
// caller judges: some operations are expected to fail.
func (r *runner) timed(kind string, fn func(ctx context.Context) (float64, error)) error {
	// Every operation starts from a collected heap, so the collections it
	// pays for are those its own allocations trigger, not the debt of
	// whichever operation ran before it.
	runtime.GC()
	ctx := context.Background()
	var sp *obsv.Span
	var before map[string]int64
	var ms0 runtime.MemStats
	if r.traced {
		before = obsv.Snapshot()
		runtime.ReadMemStats(&ms0)
		obsv.SetDefault(r.tr)
		sp = r.tr.Span("bench." + kind)
		ctx = obsv.ContextWithSpan(ctx, sp)
	}
	t0 := time.Now()
	units, err := fn(ctx)
	d := time.Since(t0)
	if r.traced {
		sp.EndErr(err)
		obsv.SetDefault(nil)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		after := obsv.Snapshot()
		for k, v := range after {
			r.counters[k] += v - before[k]
		}
		r.internSize = after[obsv.MInternSize]
	}
	if units <= 0 {
		units = 1
	}
	r.addOp(kind, t0, d, units)
	return err
}

// addOp records one timed operation that started at t0 and took d.
func (r *runner) addOp(kind string, t0 time.Time, d time.Duration, units float64) {
	if r.start.IsZero() || t0.Before(r.start) {
		r.start = t0
	}
	r.ops[kind] = append(r.ops[kind], d.Seconds()/units)
	r.units += units
}

// opStats returns the end-to-end operation metrics: the median latency
// over all timed operations, and operations per second with each kind at
// its median latency in the run's mix of kinds. Medians keep one stalled
// operation from moving a whole run.
func (r *runner) opStats() (p50, perSecond float64) {
	var all []float64
	var n, busy float64
	for _, xs := range r.ops {
		all = append(all, xs...)
		n += float64(len(xs))
		busy += float64(len(xs)) * summarize(xs).Median
	}
	if busy == 0 {
		return 0, 0
	}
	return summarize(all).Median, n / busy
}

func (r *runner) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// check counts one correctness check; a false ok is a failure.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// ok counts a check that err is nil.
func (r *runner) ok(err error, what string) bool {
	return r.check(err == nil, "%s: %v", what, err)
}

// childResult is what a workload child reports to its parent on the last
// line of its standard output.
type childResult struct {
	Workload string `json:"workload"`
	// FirstOp is when the first timed operation began (Unix ns); the
	// parent turns it into setup_s.
	FirstOp int64 `json:"first_op_unix_ns"`
	// OpP50 (seconds per unit of work) and OpsPerSecond are opStats.
	OpP50        float64 `json:"op_p50_s"`
	OpsPerSecond float64 `json:"ops_per_s"`
	// DaemonRSSKiB is the peak RSS of the process doing the system's work
	// when that is not the child itself (serve-mixed).
	DaemonRSSKiB int64              `json:"daemon_rss_kib,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	Kinds        map[string]Summary `json:"kinds"`
	Samples      map[string]Summary `json:"samples"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

func (r *runner) result(name string) *childResult {
	res := &childResult{
		Workload: name, DaemonRSSKiB: r.daemonRSSKiB,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Kinds: map[string]Summary{}, Samples: map[string]Summary{},
	}
	if !r.start.IsZero() {
		res.FirstOp = r.start.UnixNano()
	}
	res.OpP50, res.OpsPerSecond = r.opStats()
	for k, v := range r.ops {
		res.Kinds[k] = summarize(v)
	}
	for k, v := range r.samples {
		res.Samples[k] = summarize(v)
	}
	if r.traced {
		res.Layers = r.finishLayers()
	}
	return res
}
