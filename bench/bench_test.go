package main

import (
	"bytes"
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/workload"
)

// toySizes keep the smoke test's run of every workload to a few seconds.
var toySizes = sizes{
	chain:         30,
	hub:           workload.HubRimOptions{N: 2, M: 2, TPH: true},
	customer:      workload.CustomerOptions{Types: 40, Hierarchies: 8, LargestTPH: 10, Associations: 6, SharedTableFKs: 1},
	streamPerType: 6,
	tenantChain:   20,
	tenantPerType: 3,
	readRate:      100,
	evolveRate:    10,
	warmOpens:     1,
}

func TestSummary(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name      string
		xs        []float64
		q1, m, q3 float64
		tail      string
		tailV     float64
	}{
		{name: "empty"},
		{name: "one", xs: []float64{7}, q1: 7, m: 7, q3: 7},
		{name: "three", xs: seq(3), q1: 1, m: 2, q3: 3},
		{name: "four", xs: seq(4), q1: 1.25, m: 2.5, q3: 3.75},
		{name: "ten", xs: seq(10), q1: 2.75, m: 5.5, q3: 8.25},
		{name: "nineteen has no tail", xs: seq(19), q1: 5, m: 10, q3: 15},
		{name: "twenty", xs: seq(20), q1: 5.25, m: 10.5, q3: 15.75, tail: "p50", tailV: 10},
		{name: "hundred", xs: seq(100), q1: 25.25, m: 50.5, q3: 75.75, tail: "p90", tailV: 90},
		{name: "thousand", xs: seq(1000), q1: 250.25, m: 500.5, q3: 750.75, tail: "p99", tailV: 990},
		{name: "ten thousand", xs: seq(10000), q1: 2500.25, m: 5000.5, q3: 7500.75, tail: "p99.9", tailV: 9990},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(tc.xs)
			if s.N != len(tc.xs) || s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 || s.Tail != tc.tail || s.TailV != tc.tailV {
				t.Errorf("summarize = %+v, want n=%d q1=%g median=%g q3=%g %s=%g",
					s, len(tc.xs), tc.q1, tc.m, tc.q3, tc.tail, tc.tailV)
			}
		})
	}
}

// TestSelfTimesReconcile checks the self-time folding on a traced
// chain-1002 compile: the self times of the coordinating track's spans
// must add up to the root span, and the validation workers report busy
// time.
func TestSelfTimesReconcile(t *testing.T) {
	m, err := workload.ChainE(1002)
	if err != nil {
		t.Fatal(err)
	}
	sink := obsv.NewRecordingSink()
	c := &compiler.Compiler{Opts: compiler.Options{Tracer: obsv.New(sink), Parallelism: 2}}
	if _, err := c.Compile(m); err != nil {
		t.Fatal(err)
	}
	spans := sink.Spans()
	self := selfTimes(spans)
	var root obsv.SpanData
	var coord time.Duration
	for _, sp := range spans {
		if self[sp.ID] < 0 {
			t.Errorf("span %s has negative self time %v", sp.Name, self[sp.ID])
		}
		if sp.Name == "Compile" {
			root = sp
		}
		if sp.TID == 0 {
			coord += self[sp.ID]
		}
	}
	if root.Dur == 0 {
		t.Fatal("no Compile span recorded")
	}
	if d := math.Abs(float64(coord-root.Dur)) / float64(root.Dur); d > 0.02 {
		t.Errorf("coordinating-track self times sum to %v, root span is %v (%.1f%% off)", coord, root.Dur, 100*d)
	}
	if busy := foldSpans(spans)["compiler.span_worker.busy_s"]; busy <= 0 {
		t.Errorf("validation workers report no busy time")
	}
}

// TestWorkloadsSmoke runs every workload, traced, at toy sizes in this
// process and checks that it measures, passes its correctness checks and
// reports every per-layer metric.
func TestWorkloadsSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "mapserved")
	var out bytes.Buffer
	build := exec.Command("go", "build", "-o", bin, "./cmd/mapserved")
	build.Dir, build.Stdout, build.Stderr = root, &out, &out
	if err := build.Run(); err != nil {
		t.Fatalf("building mapserved: %v\n%s", err, out.String())
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := newRunner(3, 0.3, true, t.TempDir(), toySizes)
			r.mapserved = bin
			if err := workloads[name](context.Background(), r); err != nil {
				t.Fatal(err)
			}
			res := r.result(name)
			if res.Failed > 0 || res.OpsPerSecond == 0 || res.FirstOp == 0 {
				t.Fatalf("failed %d of %d checks, %g ops/s: %v", res.Failed, res.Attempted, res.OpsPerSecond, res.Failures)
			}
			for _, m := range layerNames {
				if _, ok := res.Layers[m]; !ok && m != "obsv.trace_overhead_frac" {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
		})
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 105, 70, 130, 100, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		parent, chg []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", base, base, true, "unchanged"},
		{"small drift inside the bound", base, scale(base, 1.03), true, "unchanged"},
		{"faster everywhere", base, scale(base, 0.8), true, "improved"},
		{"slower beyond the bound", base, scale(base, 1.2), true, "regressed"},
		{"throughput dropped", base, scale(base, 0.8), false, "regressed"},
		{"noisy parent", noisy, base, true, "unresolved"},
		{"noisy but every change run better", noisy, scale(base, 0.5), true, "improved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge(tc.parent, tc.chg, tc.lowerBetter, 0.1).Verdict; got != tc.want {
				t.Errorf("judge = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestCompare runs the compare command over result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opP50 float64) string {
		f := resultFile{Workloads: map[string]workloadReport{}}
		for _, w := range workloadNames() {
			f.Workloads[w] = workloadReport{Metrics: map[string]float64{
				"setup_s": 1, "op_p50_ms": opP50, "ops_per_s": 10, "peak_rss_mb": 100,
			}}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	args := []string{write("p1.json", 10), write("p2.json", 10.1), write("c1.json", 15), write("c2.json", 15.2)}
	var out bytes.Buffer
	if code := compareMain(args, &out); code != 1 {
		t.Errorf("compare exit code %d, want 1 (op_p50_ms regressed)\n%s", code, out.String())
	}
	for _, w := range workloadNames() {
		if !strings.Contains(out.String(), w) {
			t.Errorf("compare output lacks workload %s", w)
		}
	}
	if got := strings.Count(out.String(), "regressed"); got != len(workloadNames()) {
		t.Errorf("%d regressed rows, want one per workload\n%s", got, out.String())
	}
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly this
// program's workloads and metrics, and that every full-size base model is
// pinned.
func TestSpecMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpec(root); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{chainLabel(fullSizes.chain), hubLabel(fullSizes.hub),
		customerLabel(fullSizes.customer), tenantLabel(fullSizes.tenantChain)} {
		if _, ok := pinnedShapes[label]; !ok {
			t.Errorf("base model %s has no pinned shape", label)
		}
	}
}

func TestJoinBoolValue(t *testing.T) {
	got := strings.Join(joinBoolValue([]string{"--workload", "compile", "--trace", "0", "-seed", "4"}, "trace"), " ")
	if want := "--workload compile --trace=0 -seed 4"; got != want {
		t.Errorf("joinBoolValue = %q, want %q", got, want)
	}
	got = strings.Join(joinBoolValue([]string{"-trace", "-seed", "4"}, "trace"), " ")
	if want := "-trace -seed 4"; got != want {
		t.Errorf("joinBoolValue = %q, want %q", got, want)
	}
}
