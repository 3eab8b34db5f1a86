// Command mapbench regenerates the evaluation of Bernstein et al. (SIGMOD
// 2013): the Figure 4 hub-and-rim compilation grid, the Figure 9 SMO suite
// on the 1002-entity chain model, the Figure 10 SMO suite on the synthetic
// customer model, the ablation studies and the §6 view study.
//
// Usage:
//
//	mapbench -exp fig4 [-maxn 4 -maxm 8 -budget 10s]
//	mapbench -exp fig9 [-chain 1002]
//	mapbench -exp fig10 [-types 230 -hier 18 -largest 95]
//	mapbench -exp ablations
//	mapbench -exp views [-chain 200]
//	mapbench -exp all
//
// Each experiment prints the paper's series as a table. With -trace, every
// compilation is recorded: each experiment also prints its per-phase span
// totals, and the whole run is written as a Chrome trace_event file.
// Timing with repeated runs, spreads and a verdict lives in the committed
// benchmark (bash bench/run.sh); acceptance bounds live in the test gates.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/workload"
)

// traceSink collects the spans of every compilation when -trace is set;
// allSpans accumulates the drained spans of each experiment so the final
// Chrome trace covers the whole run on one timeline.
var (
	traceSink *obsv.RecordingSink
	allSpans  []obsv.SpanData
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4, fig9, fig10, ablations, views, all")
	maxN := flag.Int("maxn", 4, "fig4: maximum hierarchy depth N")
	maxM := flag.Int("maxm", 8, "fig4: maximum fan-out M")
	budget := flag.Duration("budget", 10*time.Second, "fig4: per-point budget before a depth's curve is cut off")
	chain := flag.Int("chain", 1002, "fig9 and views: chain length (the paper uses 1002)")
	types := flag.Int("types", 230, "fig10: total entity types")
	hier := flag.Int("hier", 18, "fig10: hierarchies")
	largest := flag.Int("largest", 95, "fig10: size of the largest (TPH) hierarchy")
	traceOut := flag.String("trace", "", "record every compilation and write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
	flag.Parse()

	if *traceOut != "" {
		traceSink = obsv.NewRecordingSink()
		obsv.SetDefault(obsv.New(traceSink))
	}

	switch *exp {
	case "fig4":
		runFig4(*maxN, *maxM, *budget)
	case "fig9":
		runFig9(*chain)
	case "fig10":
		runFig10(*types, *hier, *largest)
	case "ablations":
		runAblations()
	case "views":
		runViewComparison(*chain)
	case "all":
		runFig4(*maxN, *maxM, *budget)
		runFig9(*chain)
		runFig10(*types, *hier, *largest)
		runAblations()
		runViewComparison(200)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *traceOut != "" {
		writeTrace(*traceOut)
	}
}

// printPhases empties the trace sink into the run-wide span list and
// prints the drained spans — one experiment's worth — as a per-phase
// table. It prints nothing when tracing is off.
func printPhases() {
	if traceSink == nil {
		return
	}
	spans := traceSink.Drain()
	allSpans = append(allSpans, spans...)
	if len(spans) == 0 {
		return
	}
	fmt.Println("--- per-phase breakdown (span name, count, total seconds) ---")
	for _, p := range obsv.SummarizePhases(spans) {
		fmt.Printf("%-22s %8d %14.6f\n", p.Name, p.Count, p.Seconds)
	}
	fmt.Println()
}

func writeTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := obsv.WriteChromeTrace(f, allSpans); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d spans)\n", path, len(allSpans))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mapbench:", err)
	os.Exit(1)
}

func runFig4(maxN, maxM int, budget time.Duration) {
	fmt.Println("=== Figure 4: full compilation time of the hub-and-rim model ===")
	fmt.Println("(TPH is exponential in N+N*M; TPT stays flat — §1.1 of the paper)")
	fmt.Printf("%-4s %-4s %14s %14s\n", "N", "M", "TPH (s)", "TPT (s)")
	rows := experiments.Fig4(experiments.Fig4Options{MaxN: maxN, MaxM: maxM, PointBudget: budget})
	for _, r := range rows {
		fmt.Printf("%-4d %-4d %14.6f %14.6f\n", r.N, r.M, r.TPH.Seconds(), r.TPT.Seconds())
	}
	fmt.Println()
	fmt.Println("--- frontier: largest M under the point budget, per N ---")
	for _, f := range experiments.Fig4Frontier(rows, budget) {
		fmt.Printf("N=%-3d maxM=%-3d TPH %12.6fs\n", f.N, f.MaxM, f.TPH.Seconds())
	}
	fmt.Println()
	printPhases()
}

func runFig9(chain int) {
	fmt.Printf("=== Figure 9: SMO suite on the chain model (%d entity types) ===\n", chain)
	printSuite(experiments.Fig9(chain))
}

func runFig10(types, hier, largest int) {
	fmt.Printf("=== Figure 10: SMO suite on the customer model (%d types, %d hierarchies, largest %d) ===\n",
		types, hier, largest)
	opt := workload.DefaultCustomerOptions()
	opt.Types, opt.Hierarchies, opt.LargestTPH = types, hier, largest
	printSuite(experiments.Fig10(opt))
}

func printSuite(full experiments.Result, suite []experiments.Result) {
	fmt.Println(full)
	for _, r := range suite {
		speedup := ""
		if r.Err == nil && r.D > 0 {
			speedup = fmt.Sprintf("%8.0fx faster", full.D.Seconds()/r.D.Seconds())
		}
		fmt.Printf("%s %s\n", r, speedup)
	}
	fmt.Println()
	printPhases()
}

func runViewComparison(chain int) {
	fmt.Printf("=== §6 future-work study: incremental vs full views (chain %d) ===\n", chain)
	rows, err := experiments.CompareViews(chain)
	if err != nil {
		fail(err)
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println()
	printPhases()
}

func runAblations() {
	fmt.Println("=== Ablation: cell-enumeration pruning (hub-and-rim N=2, M=3) ===")
	for _, r := range experiments.AblationCellPruning(2, 3) {
		fmt.Println(r)
	}
	fmt.Println()
	fmt.Println("=== Ablation: view simplifier before containment (chain 100) ===")
	for _, r := range experiments.AblationSimplifier(100) {
		fmt.Println(r)
	}
	fmt.Println()
	fmt.Println("=== Ablation: neighbourhood validation vs all constraints (chain 400) ===")
	for _, r := range experiments.AblationNeighbourhood(400) {
		fmt.Println(r)
	}
	fmt.Println()
	printPhases()
}
