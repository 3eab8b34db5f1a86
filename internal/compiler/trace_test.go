package compiler

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/workload"
)

// checkSpanTree asserts structural consistency of a recorded span set:
// exactly one root named rootName, every parent reference resolves to a
// recorded span, every span carries an outcome and a non-negative
// duration, and the tracer reports no leaked or double-ended spans.
func checkSpanTree(t *testing.T, tr *obsv.Tracer, spans []obsv.SpanData, rootName string) {
	t.Helper()
	if open := tr.OpenSpans(); open != 0 {
		t.Fatalf("%d spans were never ended", open)
	}
	if d := tr.DoubleEnds(); d != 0 {
		t.Fatalf("%d spans were ended more than once", d)
	}
	byID := map[uint64]obsv.SpanData{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			if s.Name != rootName {
				t.Fatalf("root span is %q, want %q", s.Name, rootName)
			}
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %q (id %d) has unrecorded parent %d", s.Name, s.ID, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("%d root spans, want 1", roots)
	}
	for _, s := range spans {
		if s.Outcome == "" {
			t.Fatalf("span %q has no outcome", s.Name)
		}
		if s.Dur < 0 {
			t.Fatalf("span %q has negative duration %v", s.Name, s.Dur)
		}
	}
}

func countByName(spans []obsv.SpanData, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func outcomesOf(spans []obsv.SpanData, name string) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Outcome]++
		}
	}
	return out
}

// TestTraceParallelValidationConsistentTree compiles with many workers and
// a recording sink and checks the span tree is structurally consistent —
// worker spans recorded through per-worker buffers all land under the
// Validate span with correct parent links. Run under -race this also
// checks the sink handoff at the pool barrier.
func TestTraceParallelValidationConsistentTree(t *testing.T) {
	sink := &obsv.RecordingSink{}
	tr := obsv.New(sink)
	m := workload.HubRim(workload.HubRimOptions{N: 2, M: 4, TPH: true})
	c := New()
	c.Opts.Parallelism = 8
	c.Opts.Tracer = tr
	if _, err := c.CompileCtx(context.Background(), m); err != nil {
		t.Fatalf("compile failed: %v", err)
	}
	spans := sink.Spans()
	checkSpanTree(t, tr, spans, "Compile")
	if n := countByName(spans, "Validate"); n != 1 {
		t.Fatalf("%d Validate spans, want 1", n)
	}
	workers := countByName(spans, "span-worker")
	if workers == 0 {
		t.Fatal("no span-worker spans recorded")
	}
	// Every span-worker span must be parented under the Validate span.
	var validateID uint64
	for _, s := range spans {
		if s.Name == "Validate" {
			validateID = s.ID
		}
	}
	for _, s := range spans {
		if s.Name == "span-worker" && s.Parent != validateID {
			t.Fatalf("span-worker %d parented under %d, want Validate %d", s.ID, s.Parent, validateID)
		}
		if s.Name == "span-worker" && s.Outcome != obsv.OutcomeOK {
			t.Fatalf("span-worker outcome %q, want ok on a clean compile", s.Outcome)
		}
	}
	// Containment-check spans nest under worker spans via the context; the
	// TPH hub-rim validates through cell analysis alone, so compile the
	// paper mapping (which issues foreign-key containment checks) for this.
	sink2 := &obsv.RecordingSink{}
	tr2 := obsv.New(sink2)
	c2 := New()
	c2.Opts.Parallelism = 8
	c2.Opts.Tracer = tr2
	if _, err := c2.CompileCtx(context.Background(), workload.PaperFull()); err != nil {
		t.Fatalf("paper compile failed: %v", err)
	}
	spans2 := sink2.Spans()
	checkSpanTree(t, tr2, spans2, "Compile")
	if countByName(spans2, "containment-check") == 0 {
		t.Fatal("no containment-check spans recorded")
	}
	workerIDs := map[uint64]bool{}
	for _, s := range spans2 {
		if s.Name == "span-worker" {
			workerIDs[s.ID] = true
		}
	}
	for _, s := range spans2 {
		if s.Name == "containment-check" && !workerIDs[s.Parent] {
			t.Fatalf("containment-check %d not parented under a span-worker", s.ID)
		}
	}
}

// TestTraceReconcilesWallTime checks the root Compile span's duration
// accounts for the compile's measured wall time: the span must not exceed
// the end-to-end measurement and must cover most of it, so per-phase
// breakdowns in traces (EXPERIMENTS.md) can be trusted against externally
// timed results such as mapbench's tables.
func TestTraceReconcilesWallTime(t *testing.T) {
	sink := &obsv.RecordingSink{}
	tr := obsv.New(sink)
	m := workload.HubRim(workload.HubRimOptions{N: 2, M: 4, TPH: true})
	c := New()
	c.Opts.Tracer = tr
	begin := time.Now()
	if _, err := c.CompileCtx(context.Background(), m); err != nil {
		t.Fatalf("compile failed: %v", err)
	}
	wall := time.Since(begin)
	var root obsv.SpanData
	for _, s := range sink.Spans() {
		if s.Parent == 0 && s.Name == "Compile" {
			root = s
		}
	}
	if root.Name == "" {
		t.Fatal("no root Compile span")
	}
	if root.Dur > wall {
		t.Fatalf("root span %v exceeds measured wall time %v", root.Dur, wall)
	}
	if root.Dur < wall/2 {
		t.Fatalf("root span %v covers under half of wall time %v", root.Dur, wall)
	}
}

// TestTraceCancellationClosesAllSpans cancels a compile mid-validation and
// checks every opened span was still ended exactly once, with the root
// marked cancelled.
func TestTraceCancellationClosesAllSpans(t *testing.T) {
	sink := &obsv.RecordingSink{}
	tr := obsv.New(sink)
	m := workload.HubRim(workload.HubRimOptions{N: 3, M: 5, TPH: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := New()
	c.Opts.Parallelism = 4
	c.Opts.Tracer = tr
	_, err := c.CompileCtx(ctx, m)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	spans := sink.Spans()
	checkSpanTree(t, tr, spans, "Compile")
	roots := outcomesOf(spans, "Compile")
	if roots[obsv.OutcomeCancelled] != 1 {
		t.Fatalf("Compile outcomes = %v, want one %q", roots, obsv.OutcomeCancelled)
	}
}

// TestTraceBudgetClosesAllSpans exhausts the containment budget and checks
// span accounting survives the abort.
func TestTraceBudgetClosesAllSpans(t *testing.T) {
	sink := &obsv.RecordingSink{}
	tr := obsv.New(sink)
	c := New()
	c.Opts.Budget = fault.Budget{MaxContainments: 1}
	c.Opts.Tracer = tr
	var be *fault.BudgetExceededError
	if _, err := c.CompileCtx(context.Background(), workload.PaperFull()); !errors.As(err, &be) {
		t.Fatalf("err = %v, want *fault.BudgetExceededError", err)
	}
	spans := sink.Spans()
	checkSpanTree(t, tr, spans, "Compile")
	roots := outcomesOf(spans, "Compile")
	if roots[obsv.OutcomeBudget] != 1 {
		t.Fatalf("Compile outcomes = %v, want one %q", roots, obsv.OutcomeBudget)
	}
}

// TestTraceWorkerPanicClosesAllSpans injects a panic into a validation
// worker (via faultinject, as the fault-tolerance tests do) and checks the
// panicking task's span is ended with the panic outcome and nothing leaks.
func TestTraceWorkerPanicClosesAllSpans(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
				{Site: faultinject.SiteWorker, Kind: faultinject.KindPanic, Nth: 2},
			}})
			defer deactivate()
			sink := &obsv.RecordingSink{}
			tr := obsv.New(sink)
			c := New()
			c.Opts.Parallelism = workers
			c.Opts.Tracer = tr
			var pe *fault.PanicError
			if _, err := c.CompileCtx(context.Background(), workload.PaperFull()); !errors.As(err, &pe) {
				t.Fatalf("workers=%d: err = %v, want *fault.PanicError", workers, err)
			}
			spans := sink.Spans()
			checkSpanTree(t, tr, spans, "Compile")
			tasks := outcomesOf(spans, "span-worker")
			if tasks[obsv.OutcomePanic] == 0 {
				t.Fatalf("workers=%d: span-worker outcomes = %v, want a %q", workers, tasks, obsv.OutcomePanic)
			}
			roots := outcomesOf(spans, "Compile")
			if roots[obsv.OutcomePanic] != 1 {
				t.Fatalf("workers=%d: Compile outcomes = %v, want one %q", workers, roots, obsv.OutcomePanic)
			}
		}()
	}
}

// TestTraceRejectedMappingOutcome compiles a mapping the compiler rejects
// (overlapping fragments on one table) and checks spans still close
// exactly once, with a non-ok root outcome.
func TestTraceRejectedMappingOutcome(t *testing.T) {
	m := workload.PartitionedAgeModel()
	for _, f := range m.Frags {
		if f.Table == "Adult" {
			f.ClientCond = cond.NewAnd(
				cond.TypeIs{Type: "Person"},
				cond.Cmp{Attr: "Age", Op: cond.OpGe, Val: cond.Int(10)},
			)
		}
	}
	for _, f := range m.Frags {
		f.Table = "Adult"
	}
	sink := &obsv.RecordingSink{}
	tr := obsv.New(sink)
	c := New()
	c.Opts.Tracer = tr
	if _, err := c.CompileCtx(context.Background(), m); err == nil {
		t.Fatal("overlapping fragments on one table accepted")
	}
	spans := sink.Spans()
	checkSpanTree(t, tr, spans, "Compile")
	roots := outcomesOf(spans, "Compile")
	if roots[obsv.OutcomeOK] != 0 {
		t.Fatalf("Compile outcomes = %v, want non-ok", roots)
	}
}
