package experiments

import (
	"fmt"
	"time"

	"github.com/ormkit/incmap/internal/workload"
)

// Fig4Point measures one full compilation of the hub-and-rim model
// (Figure 3/4 of the paper).
func Fig4Point(n, m int, tph bool) Result {
	mapping := workload.HubRim(workload.HubRimOptions{N: n, M: m, TPH: tph})
	r, _ := FullCompile(mapping)
	style := "TPT"
	if tph {
		style = "TPH"
	}
	r.Name = fmt.Sprintf("N=%d M=%d %s", n, m, style)
	return r
}

// Fig4Options bounds the Figure 4 grid. The compilation time of the TPH
// variant is exponential in N·M (that is the experiment's point), so the
// grid is cut off once a point exceeds PointBudget — the same pragmatic
// cap the paper applies by stopping its curves around 10^5 seconds.
type Fig4Options struct {
	MaxN int // hierarchy depths 1..MaxN (paper: 5)
	MaxM int // fan-outs 1..MaxM (paper: 15)
	// PointBudget stops extending a depth's curve after a point takes
	// longer than this.
	PointBudget time.Duration
}

// Fig4Row is one curve point of Figure 4.
type Fig4Row struct {
	N, M   int
	TPH    time.Duration
	TPHErr error
	TPT    time.Duration
	TPTErr error
}

// Fig4 runs the grid: for each depth N, fan-outs M grow until the TPH
// compilation exceeds the point budget, reproducing both the exponential
// TPH curves and the flat TPT baseline ("under 0.2 seconds for all cases"
// per §1.1).
func Fig4(opt Fig4Options) []Fig4Row {
	var out []Fig4Row
	for n := 1; n <= opt.MaxN; n++ {
		for m := 1; m <= opt.MaxM; m++ {
			tph := Fig4Point(n, m, true)
			tpt := Fig4Point(n, m, false)
			out = append(out, Fig4Row{
				N: n, M: m,
				TPH: tph.D, TPHErr: tph.Err,
				TPT: tpt.D, TPTErr: tpt.Err,
			})
			if tph.D > opt.PointBudget {
				break // deeper fan-outs of this curve are out of budget
			}
		}
	}
	return out
}

// Fig4FrontierRow is one row of the capability frontier: for a depth N,
// the largest fan-out M whose TPH compilation completed within the point
// budget, with that point's wall time. Comparing frontiers across prover
// versions shows how far past the paper's "32 types in one table" wall a
// build reaches.
type Fig4FrontierRow struct {
	N    int
	MaxM int           // largest in-budget fan-out; 0 when even M=1 blew the budget
	TPH  time.Duration // wall time of the frontier point
}

// Fig4Frontier folds a grid into its per-depth frontier.
func Fig4Frontier(rows []Fig4Row, budget time.Duration) []Fig4FrontierRow {
	byN := map[int]*Fig4FrontierRow{}
	var order []int
	for _, r := range rows {
		if r.TPHErr != nil || r.TPH > budget {
			continue
		}
		f := byN[r.N]
		if f == nil {
			f = &Fig4FrontierRow{N: r.N}
			byN[r.N] = f
			order = append(order, r.N)
		}
		if r.M > f.MaxM {
			f.MaxM = r.M
			f.TPH = r.TPH
		}
	}
	out := make([]Fig4FrontierRow, 0, len(order))
	for _, n := range order {
		out = append(out, *byN[n])
	}
	return out
}
