// Command bench is the repository's benchmark: five workloads over the
// compile, evolve, stream and serve paths, timed end to end from outside
// the system, plus a separate traced run that attributes the time to
// layers. Each workload runs in its own child process. README.md describes
// the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace]
//	bash bench/run.sh compare PARENT.json... CHANGE.json...
//
// A run prints every metric by name with its unit, writes BENCH_run.json
// (BENCH_layers.json and one NAME_trace.json per workload when traced) to
// the working directory, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. It exits non-zero if any
// operation or correctness check failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

// childEnv marks a process as one workload's child.
const childEnv = "INCMAP_BENCH_CHILD"

// buildDir, under the repository root, holds every build output and
// scratch store of a run.
const buildDir = ".bench_build"

// childTimeout bounds one workload child, so a hung system fails the run
// instead of hanging it.
const childTimeout = 150 * time.Second

var workloads = map[string]func(context.Context, *runner) error{
	"compile":         runCompile,
	"evolve-chain":    runEvolveChain,
	"evolve-customer": runEvolveCustomer,
	"stream-rw":       runStream,
	"serve-mixed":     runServe,
}

func workloadNames() []string { return sortedKeys(workloads) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all, in BENCHMARK.json order)")
	seed := fs.Int64("seed", 1, "seed the workloads draw their inputs from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics")
	if err := fs.Parse(joinBoolValue(os.Args[1:], "trace")); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if os.Getenv(childEnv) != "" {
		os.Exit(runChild(root, *name, *seed, *seconds, *trace))
	}
	var names []string
	for _, w := range sp.Workloads {
		if *name == "" || *name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(runParent(root, sp, names, *seed, *seconds, *trace))
}

// joinBoolValue rewrites "-flag 0" and "--flag 1" into "-flag=0" form,
// since Go's flag package takes a boolean flag's value only after "=".
func joinBoolValue(args []string, flagName string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+flagName || a == "--"+flagName) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runChild runs one workload in this process and reports its result on
// the last line of standard output.
func runChild(root, name string, seed int64, seconds float64, traced bool) int {
	fn, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	build := filepath.Join(root, buildDir)
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	r := newRunner(seed, seconds, traced, scratch, fullSizes)
	r.mapserved = filepath.Join(build, "mapserved")
	if err := fn(context.Background(), r); err != nil {
		r.check(false, "%s: %v", name, err)
	}
	res := r.result(name)
	if traced {
		if err := writeTrace(name+"_trace.json", firstOfEachKind(r.spans)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// firstOfEachKind keeps the span trees under the first root span of each
// name: one timed operation of each kind (one evolve, for the daemon). The
// per-layer metrics fold every span; the written trace needs no repeats.
func firstOfEachKind(spans []obsv.SpanData) []obsv.SpanData {
	byID := make(map[uint64]obsv.SpanData, len(spans))
	first := map[string]obsv.SpanData{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		if f, ok := first[sp.Name]; sp.Parent == 0 && (!ok || sp.Start < f.Start) {
			first[sp.Name] = sp
		}
	}
	keep := map[uint64]bool{}
	for _, f := range first {
		keep[f.ID] = true
	}
	var out []obsv.SpanData
	for _, sp := range spans {
		root := sp
		for p, ok := byID[root.Parent]; ok; p, ok = byID[root.Parent] {
			root = p
		}
		if keep[root.ID] {
			out = append(out, sp)
		}
	}
	return out
}

func writeTrace(path string, spans []obsv.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workloadReport is one workload's entry in a result file.
type workloadReport struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Kinds     map[string]Summary `json:"kinds,omitempty"`
	Samples   map[string]Summary `json:"samples,omitempty"`
}

// resultFile is BENCH_run.json (untraced) or BENCH_layers.json (traced).
type resultFile struct {
	Env       envStamp                  `json:"env"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// runParent runs each workload in a child process, prints and records the
// metrics, and ends with the one-line JSON result.
func runParent(root string, sp *spec, names []string, seed int64, seconds float64, traced bool) int {
	for _, n := range names {
		if n == "serve-mixed" {
			// The daemon is built before any workload starts, so the build
			// counts in no workload's set-up.
			if err := buildMapserved(root, filepath.Join(root, buildDir, "mapserved")); err != nil {
				fmt.Fprintln(os.Stderr, "bench: building mapserved:", err)
				return 1
			}
		}
	}
	metrics, file := sp.EndToEnd, "BENCH_run.json"
	if traced {
		metrics, file = sp.PerLayer, "BENCH_layers.json"
	}
	out := resultFile{Env: newEnvStamp(seed, seconds, traced), Workloads: map[string]workloadReport{}}
	attempted, failed := 0, 0
	final := map[string]map[string]any{}
	for _, name := range names {
		rep, err := measure(name, seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		out.Workloads[name] = rep
		attempted += rep.Attempted
		failed += rep.Failed
		printReport(os.Stdout, name, rep, metrics)
		key := func(m string) string { return m }
		if len(names) > 1 {
			key = func(m string) string { return name + ":" + m }
		}
		for _, m := range metrics {
			final[key(m.Name)] = map[string]any{"value": rep.Metrics[m.Name], "unit": m.Unit}
		}
	}
	if err := writeJSON(file, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		failed++
	}
	line, _ := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final,
	})
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload. A traced measurement runs the workload twice
// for half the time each, untraced then traced, to report the tracing
// overhead next to the per-layer metrics.
func measure(name string, seed int64, seconds float64, traced bool) (workloadReport, error) {
	if !traced {
		res, e2e, err := spawn(name, seed, seconds, false)
		if err != nil {
			return workloadReport{}, err
		}
		return report(res, e2e), nil
	}
	ref, _, err := spawn(name, seed, seconds/2, false)
	if err != nil {
		return workloadReport{}, err
	}
	res, _, err := spawn(name, seed, seconds/2, true)
	if err != nil {
		return workloadReport{}, err
	}
	rep := report(res, res.Layers)
	rep.Metrics["obsv.trace_overhead_frac"] = ref.OpsPerSecond/res.OpsPerSecond - 1
	rep.Attempted += ref.Attempted
	rep.Failed += ref.Failed
	rep.Failures = append(rep.Failures, ref.Failures...)
	return rep, nil
}

func report(res *childResult, metrics map[string]float64) workloadReport {
	return workloadReport{
		Metrics: metrics, Attempted: res.Attempted, Failed: res.Failed, Failures: res.Failures,
		Kinds: res.Kinds, Samples: res.Samples,
	}
}

// spawn runs one workload child and returns its result with the
// end-to-end metrics, which only the parent can measure whole: set-up
// time from the child's start and the peak RSS of the system's process.
func spawn(name string, seed int64, seconds float64, traced bool) (*childResult, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), fmt.Sprintf("-trace=%t", traced))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("workload child: %w", err)
	}
	// The child writes nothing to standard output but its result.
	res := new(childResult)
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), res); err != nil {
		return nil, nil, fmt.Errorf("workload child result: %w", err)
	}
	rssKiB := res.DaemonRSSKiB
	if rssKiB == 0 {
		rssKiB = cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss
	}
	e2e := map[string]float64{
		"setup_s":     0,
		"op_p50_ms":   res.OpP50 * 1e3,
		"ops_per_s":   res.OpsPerSecond,
		"peak_rss_mb": float64(rssKiB) * 1024 / 1e6,
	}
	if res.FirstOp > 0 {
		e2e["setup_s"] = time.Duration(res.FirstOp - start.UnixNano()).Seconds()
	}
	return res, e2e, nil
}

func printReport(w io.Writer, name string, rep workloadReport, metrics []metricSpec) {
	fmt.Fprintf(w, "== %s\n", name)
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, rep.Metrics[m.Name], m.Unit)
	}
	frac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(w, "  %-34s %14.6g (%d of %d)\n", "fail_frac", frac, rep.Failed, rep.Attempted)
	for _, k := range sortedKeys(rep.Kinds) {
		fmt.Fprintf(w, "  op %-31s %s\n", k, rep.Kinds[k].format(1e3, "ms"))
	}
	for _, k := range sortedKeys(rep.Samples) {
		fmt.Fprintf(w, "  sample %-27s %s\n", k, rep.Samples[k].format(1, ""))
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// buildMapserved builds the daemon serve-mixed runs into out.
func buildMapserved(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/mapserved")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// envStamp records what a result was measured on.
type envStamp struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Time       string  `json:"time"`
}

func newEnvStamp(seed int64, seconds float64, traced bool) envStamp {
	return envStamp{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Commit: commit(), Seed: seed, Seconds: seconds, Traced: traced,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go command
// stamps it; "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
