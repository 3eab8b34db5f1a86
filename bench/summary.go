package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary is the one way every sample in the benchmark is reported: its
// size, median and quartiles, and the highest percentile that still has at
// least ten samples beyond it (empty below 20 samples, where not even the
// median qualifies).
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Tail   string  `json:"tail,omitempty"`
	TailV  float64 `json:"tail_value,omitempty"`
}

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// summarize computes the Summary of xs (which it does not modify). The
// quartiles use the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so spreads computed here and by an
// external checker agree.
func summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: len(s)}
	switch len(s) {
	case 0:
		return out
	case 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	q := quartiles(s)
	out.Q1, out.Median, out.Q3 = q[0], q[1], q[2]
	for _, p := range tailPercentiles {
		rank := nearestRank(p, len(s))
		if len(s)-rank >= 10 {
			out.Tail = percentileLabel(p)
			out.TailV = s[rank-1]
			break
		}
	}
	return out
}

// quartiles is Python's statistics.quantiles(sorted, n=4,
// method="exclusive") for len(sorted) >= 2.
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return out
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// product is rounded first so that, e.g., 99.9% of 10000 is rank 9990 and
// not 9991 by floating-point excess.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(math.Round(p*float64(n)*1e6) / 1e8))
}

func percentileLabel(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("p%d", int(p))
	}
	return fmt.Sprintf("p%g", p)
}

// relSpread is the interquartile range as a share of the median.
func (s Summary) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// format renders the summary scaled by mul (e.g. 1000 for seconds → ms).
func (s Summary) format(mul float64, unit string) string {
	if s.N == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("n=%d p50=%.4g q1=%.4g q3=%.4g %s", s.N, s.Median*mul, s.Q1*mul, s.Q3*mul, unit)
	if s.Tail != "" {
		out += fmt.Sprintf(" %s=%.4g", s.Tail, s.TailV*mul)
	}
	return out
}
