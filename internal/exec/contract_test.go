package exec_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// Iterator-contract property tests: every operator shape the compiler
// emits must survive early Close, double Close, empty inputs, and rows
// straddling batch boundaries; and a cancelled context must kill a scan
// mid-stream without leaking goroutines.

// allViewExprs gathers one expression per compiled view of a workload —
// between them they cover scan, select, project, join (incl. outer) and
// union-all shapes.
func allViewExprs(t *testing.T, m *frag.Mapping, v *frag.Views) []cqt.Expr {
	t.Helper()
	var out []cqt.Expr
	for _, view := range v.Query {
		out = append(out, view.Q)
	}
	for _, view := range v.Update {
		out = append(out, view.Q)
	}
	for _, view := range v.Assoc {
		out = append(out, view.Q)
	}
	if len(out) == 0 {
		t.Fatal("workload compiled no views")
	}
	return out
}

func contractWorkloads(t *testing.T) []struct {
	name string
	m    *frag.Mapping
} {
	t.Helper()
	return []struct {
		name string
		m    *frag.Mapping
	}{
		{"chain-3", workload.Chain(3)},
		{"hubrim-tpt", workload.HubRim(workload.HubRimOptions{N: 2, M: 1})},
		{"paper-full", workload.PaperFull()},
	}
}

func TestIteratorEarlyAndDoubleClose(t *testing.T) {
	for _, wl := range contractWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			v, cs, ss := compileWL(t, wl.m, 7)
			env := &exec.Env{Catalog: wl.m.Catalog(), Store: exec.RingFromState(ss, 2), Client: cs}
			for _, q := range allViewExprs(t, wl.m, v) {
				// Close without ever pulling.
				it, err := exec.Open(context.Background(), env, q, exec.Options{BatchSize: 2})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if err := it.Close(); err != nil {
					t.Fatalf("close before first pull: %v", err)
				}
				if err := it.Close(); err != nil {
					t.Fatalf("double close: %v", err)
				}
				if batch, ok, err := it.Next(); batch != nil || ok || err != nil {
					t.Fatalf("Next after Close = (%v, %v, %v), want (nil, false, nil)", batch, ok, err)
				}

				// Close mid-stream, after the first batch.
				it, err = exec.Open(context.Background(), env, q, exec.Options{BatchSize: 1})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				_, _, _ = it.Next()
				if err := it.Close(); err != nil {
					t.Fatalf("close mid-stream: %v", err)
				}
				if err := it.Close(); err != nil {
					t.Fatalf("double close mid-stream: %v", err)
				}
			}
		})
	}
}

func TestIteratorEmptyInputs(t *testing.T) {
	for _, wl := range contractWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			ctx := context.Background()
			v, _, _ := compileWL(t, wl.m, 7)
			// Empty store and empty client: every view must stream zero rows
			// without erroring (the executor treats unknown/empty tables as
			// empty scans).
			env := &exec.Env{Catalog: wl.m.Catalog(), Store: exec.NewRingStore(0), Client: state.NewClientState()}
			for _, q := range allViewExprs(t, wl.m, v) {
				it, err := exec.Open(ctx, env, q, exec.Options{BatchSize: 4})
				if err != nil {
					t.Fatalf("open over empty inputs: %v", err)
				}
				res, err := exec.Collect(it)
				if err != nil {
					t.Fatalf("collect over empty inputs: %v", err)
				}
				if len(res.Rows) != 0 {
					t.Fatalf("empty inputs yielded %d rows", len(res.Rows))
				}
			}
		})
	}
}

// TestIteratorBatchStraddle runs every view at batch sizes that force
// rows to straddle segment and batch boundaries (segment cap 2, batches
// 1/2/5) and checks the multiset is identical to the one-shot result.
func TestIteratorBatchStraddle(t *testing.T) {
	for _, wl := range contractWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			ctx := context.Background()
			v, cs, ss := compileWL(t, wl.m, 11)
			env := &exec.Env{Catalog: wl.m.Catalog(), Store: exec.RingFromState(ss, 2), Client: cs}
			for _, q := range allViewExprs(t, wl.m, v) {
				baseIt, err := exec.Open(ctx, env, q, exec.Options{})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				base, err := exec.Collect(baseIt)
				if err != nil {
					t.Fatalf("collect: %v", err)
				}
				want := canonical(base.Rows)
				for _, batch := range []int{1, 2, 5} {
					it, err := exec.Open(ctx, env, q, exec.Options{BatchSize: batch})
					if err != nil {
						t.Fatalf("open batch=%d: %v", batch, err)
					}
					got, err := exec.Collect(it)
					if err != nil {
						t.Fatalf("collect batch=%d: %v", batch, err)
					}
					equalMultisets(t, "batch straddle", want, canonical(got.Rows))
				}
			}
		})
	}
}

// TestCancellationSoak cancels contexts mid-scan over and over and
// verifies no goroutines leak: the executor is pure-pull (no operator
// goroutines), so the count must return to the baseline.
func TestCancellationSoak(t *testing.T) {
	m := workload.Chain(3)
	v, cs, ss := compileWL(t, m, 13)
	env := &exec.Env{Catalog: m.Catalog(), Store: exec.RingFromState(ss, 2), Client: cs}
	exprs := allViewExprs(t, m, v)

	before := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		for _, q := range exprs {
			ctx, cancel := context.WithCancel(context.Background())
			it, err := exec.Open(ctx, env, q, exec.Options{BatchSize: 1})
			if err != nil {
				cancel()
				t.Fatalf("open: %v", err)
			}
			_, _, _ = it.Next() // first batch may succeed
			cancel()
			// After cancellation, a table scan must surface the context
			// error (client scans may finish if already exhausted); either
			// way the tree must close cleanly.
			_, _, err = it.Next()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("post-cancel Next returned %v, want context.Canceled in the chain", err)
			}
			if cerr := it.Close(); cerr != nil {
				t.Fatalf("close after cancel: %v", cerr)
			}
			if _, ok, _ := it.Next(); ok {
				t.Fatal("iterator yielded rows after Close")
			}
		}
	}
	// Give any stray goroutines time to exit before comparing counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before cancellation soak, %d after", before, after)
	}
}

// TestCancelledScanIsTypedError pins the error shape: a context
// cancellation inside a table scan surfaces as *exec.OpError wrapping
// context.Canceled.
func TestCancelledScanIsTypedError(t *testing.T) {
	m := workload.Chain(3)
	_, cs, ss := compileWL(t, m, 13)
	env := &exec.Env{Catalog: m.Catalog(), Store: exec.RingFromState(ss, 1), Client: cs}

	// Find a table with rows so the scan has something to cancel over.
	var table string
	for _, tn := range env.Store.Tables() {
		table = tn
		break
	}
	if table == "" {
		t.Fatal("materialized store is empty")
	}
	ctx, cancel := context.WithCancel(context.Background())
	it, err := exec.Open(ctx, env, cqt.ScanTable{Table: table}, exec.Options{BatchSize: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer it.Close()
	cancel()
	_, _, err = it.Next()
	var oe *exec.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("cancelled scan returned %T (%v), want *exec.OpError", err, err)
	}
	if oe.Op != "scan" || oe.Target != table {
		t.Fatalf("OpError = {Op:%q Target:%q}, want {scan %s}", oe.Op, oe.Target, table)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("OpError does not wrap context.Canceled: %v", err)
	}
	// The error is sticky.
	_, _, err2 := it.Next()
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("second Next after failure = %v, want the sticky error", err2)
	}
}
