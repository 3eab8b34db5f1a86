package obsv

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Chrome trace_event output: the recorded span set rendered as "X"
// (complete) events, loadable in chrome://tracing and Perfetto. Span IDs
// and parents ride along in args so tools (and tests) can rebuild the
// span tree from the file alone.

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the JSON-object envelope ({"traceEvents": [...]}), the
// format variant Perfetto and chrome://tracing both accept.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ChromeEvents converts spans to trace_event entries, ordered by start
// time for stable output.
func ChromeEvents(spans []SpanData) []chromeEvent {
	sorted := append([]SpanData(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].ID < sorted[j].ID
	})
	evs := make([]chromeEvent, 0, len(sorted))
	for _, sp := range sorted {
		args := map[string]string{
			"id":      formatUint(sp.ID),
			"parent":  formatUint(sp.Parent),
			"outcome": sp.Outcome,
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Val
		}
		evs = append(evs, chromeEvent{
			Name: sp.Name,
			Cat:  "incmap",
			Ph:   "X",
			TS:   micros(sp.Start),
			Dur:  micros(sp.Dur),
			PID:  1,
			TID:  sp.TID,
			Args: args,
		})
	}
	return evs
}

// WriteChromeTrace writes the spans as Chrome trace_event JSON.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: ChromeEvents(spans), DisplayUnit: "ms"})
}

func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// PhaseSummary aggregates spans by name: how many ran and the sum of
// their inclusive durations. Spans nest and parallel workers overlap, so
// the totals overlap too and do not add up to wall time; per-layer self
// time comes from `bash bench/run.sh -trace`.
type PhaseSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// SummarizePhases folds spans into per-name totals, sorted by descending
// total time.
func SummarizePhases(spans []SpanData) []PhaseSummary {
	idx := map[string]int{}
	var out []PhaseSummary
	for _, sp := range spans {
		i, ok := idx[sp.Name]
		if !ok {
			i = len(out)
			idx[sp.Name] = i
			out = append(out, PhaseSummary{Name: sp.Name})
		}
		out[i].Count++
		out[i].Seconds += sp.Dur.Seconds()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}
