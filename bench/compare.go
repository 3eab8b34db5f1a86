package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements "compare PARENT.json... CHANGE.json...": the
// first half of the files are the parent's BENCH_run.json results, the
// second half the change's, paired in order. For every end-to-end metric
// of every workload it prints improved, unchanged, regressed or
// unresolved, judged against BENCHMARK.json's bounds. It exits 1 when any
// pair regressed.
func compareMain(args []string, w io.Writer) int {
	if len(args) < 2 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json... CHANGE.json... (as many of each)")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var files []resultFile
	for _, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		var f resultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 1
		}
		files = append(files, f)
	}
	n := len(files) / 2
	regressed := false
	fmt.Fprintf(w, "%-16s %-12s %-10s %12s %12s %8s %6s\n", "workload", "metric", "verdict", "parent p50", "change p50", "spread", "wins")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			var parent, change []float64
			for i, f := range files {
				rep, ok := f.Workloads[wl.Name]
				if !ok {
					continue
				}
				if i < n {
					parent = append(parent, rep.Metrics[m.Name])
				} else {
					change = append(change, rep.Metrics[m.Name])
				}
			}
			if len(parent) != n || len(change) != n {
				continue
			}
			v := judge(parent, change, m.Better == "lower", m.Bound)
			regressed = regressed || v.Verdict == "regressed"
			fmt.Fprintf(w, "%-16s %-12s %-10s %12.5g %12.5g %7.1f%% %3d/%d\n",
				wl.Name, m.Name, v.Verdict, v.Parent.Median, v.Change.Median, 100*v.Spread, v.Wins, n)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Verdict        string
	Parent, Change Summary
	// Spread is the wider of the two sides' interquartile ranges, as a
	// share of the median; Wins counts pairs the change won outright.
	Spread float64
	Wins   int
}

// judge applies the benchmark's rules to paired runs of a parent and a
// change:
//   - unresolved: the run-to-run spread is wider than the bound, unless
//     every change run beats every parent run;
//   - improved: the change wins at least 9 in 10 pairs (ties count for
//     neither) and its median beats the parent's by more than the
//     parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged otherwise.
func judge(parent, change []float64, lowerBetter bool, bound float64) verdict {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	v := verdict{Parent: summarize(parent), Change: summarize(change)}
	v.Spread = math.Max(v.Parent.relSpread(), v.Change.relSpread())
	allBetter := true
	for i := range parent {
		if better(change[i], parent[i]) {
			v.Wins++
		}
		for j := range parent {
			allBetter = allBetter && better(change[i], parent[j])
		}
	}
	worse := (v.Change.Median - v.Parent.Median) / math.Abs(v.Parent.Median)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case v.Spread > bound && !allBetter:
		v.Verdict = "unresolved"
	case v.Wins*10 >= 9*len(parent) && better(v.Change.Median, v.Parent.Median) &&
		math.Abs(v.Change.Median-v.Parent.Median) > v.Parent.Q3-v.Parent.Q1:
		v.Verdict = "improved"
	case worse > bound:
		v.Verdict = "regressed"
	default:
		v.Verdict = "unchanged"
	}
	return v
}
