package exec_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// compileWL compiles a workload mapping and returns its views, a random
// client state and that state materialized by the reference evaluator.
func compileWL(t *testing.T, m *frag.Mapping, seed uint32) (*frag.Views, *state.ClientState, *state.StoreState) {
	t.Helper()
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := orm.RandomState(m, seed, 4)
	ss, err := difftest.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return v, cs, ss
}

// canonical renders rows or entities as a sorted multiset.
func canonical[T interface{ Canonical() string }](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Canonical()
	}
	sort.Strings(out)
	return out
}

func equalMultisets(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: reference evaluator has %d rows, streaming has %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: multisets diverge at %d:\n  reference: %s\n  stream:    %s", what, i, want[i], got[i])
		}
	}
}

// checkAllViews streams every compiled view of the mapping and compares
// each against the reference evaluator in internal/difftest, over both a RingStore and a
// MapStore and across several batch sizes.
func checkAllViews(t *testing.T, m *frag.Mapping, v *frag.Views, cs *state.ClientState, ss *state.StoreState, batch int) {
	t.Helper()
	ctx := context.Background()
	opts := exec.Options{BatchSize: batch}
	refEnv := &difftest.Env{Catalog: m.Catalog(), Client: cs, Store: ss}
	stores := map[string]exec.TableStore{
		"ring": exec.RingFromState(ss, 3),
		"map":  exec.NewMapStore(ss),
	}

	for storeName, ts := range stores {
		execEnv := &exec.Env{Catalog: m.Catalog(), Store: ts, Client: cs}
		check := func(kind, name string, q cqt.Expr) {
			t.Helper()
			what := fmt.Sprintf("%s view %s (%s, batch %d)", kind, name, storeName, batch)
			res, err := difftest.Eval(refEnv, q)
			if err != nil {
				t.Fatalf("%s: reference eval: %v", what, err)
			}
			it, err := exec.Open(ctx, execEnv, q, opts)
			if err != nil {
				t.Fatalf("%s: open: %v", what, err)
			}
			got, err := exec.Collect(it)
			if err != nil {
				t.Fatalf("%s: collect: %v", what, err)
			}
			equalMultisets(t, what, canonical(res.Rows), canonical(got.Rows))
		}
		for ty, view := range v.Query {
			check("query", ty, view.Q)
			what := fmt.Sprintf("query view %s entities (%s, batch %d)", ty, storeName, batch)
			wantEnts, err := difftest.ConstructEntities(refEnv, view)
			if err != nil {
				t.Fatalf("%s: construct: %v", what, err)
			}
			eit, err := exec.OpenView(ctx, execEnv, view, exec.Strict, opts)
			if err != nil {
				t.Fatalf("%s: open view: %v", what, err)
			}
			gotEnts, err := exec.CollectEntities(eit)
			if err != nil {
				t.Fatalf("%s: collect entities: %v", what, err)
			}
			equalMultisets(t, what, canonical(wantEnts), canonical(gotEnts))
		}
		for table, view := range v.Update {
			check("update", table, view.Q)
		}
		for assoc, view := range v.Assoc {
			check("assoc", assoc, view.Q)
		}
	}
}

func TestStreamMatchesMaterialize(t *testing.T) {
	workloads := []struct {
		name string
		m    *frag.Mapping
	}{
		{"chain-4", workload.Chain(4)},
		{"hubrim-tph", workload.HubRim(workload.HubRimOptions{N: 2, M: 2, TPH: true})},
		{"hubrim-tpt", workload.HubRim(workload.HubRimOptions{N: 2, M: 2})},
		{"customer", workload.Customer(workload.DefaultCustomerOptions())},
		{"paper-initial", workload.PaperInitial()},
		{"paper-full", workload.PaperFull()},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			v, cs, ss := compileWL(t, wl.m, 42)
			for _, batch := range []int{1, 3, 1024} {
				checkAllViews(t, wl.m, v, cs, ss, batch)
			}
		})
	}
}

// TestPaperClientState pins the paper's §2.1 worked example through the
// streaming path.
func TestPaperClientState(t *testing.T) {
	m := workload.PaperFull()
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := workload.PaperClientState()
	ss, err := difftest.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	checkAllViews(t, m, v, cs, ss, 2)
}

func TestRingStoreSegmentsAndSnapshots(t *testing.T) {
	rs := exec.NewRingStore(2)
	mkRow := func(i int) state.Row {
		return state.Row{"Id": cond.Int(int64(i))}
	}
	for i := 0; i < 5; i++ {
		rs.Append("T", mkRow(i))
	}
	if rs.Len("T") != 5 {
		t.Fatalf("Len = %d, want 5", rs.Len("T"))
	}
	it, err := rs.Scan(context.Background(), "T", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rows appended after the scan opened are invisible to it.
	rs.Append("T", mkRow(5), mkRow(6))
	n := 0
	for {
		rows, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n += len(rows)
	}
	if n != 5 {
		t.Fatalf("scan saw %d rows, want the 5-row snapshot", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if rs.Len("T") != 7 {
		t.Fatalf("Len = %d after appends, want 7", rs.Len("T"))
	}
	// Unknown tables scan empty, not error.
	it2, err := rs.Scan(context.Background(), "missing", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := it2.Next(); ok {
		t.Fatal("scan of unknown table yielded rows")
	}
	_ = it2.Close()
}

func TestRingStoreConcurrentAppendScan(t *testing.T) {
	rs := exec.NewRingStore(8)
	mkRow := func(g, i int) state.Row {
		return state.Row{"G": cond.Int(int64(g)), "I": cond.Int(int64(i))}
	}
	var wg sync.WaitGroup
	const writers, perWriter = 4, 200
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rs.Append("T", mkRow(g, i))
			}
		}(g)
	}
	// Concurrent scans: every observed count must be a valid prefix and
	// every row intact.
	var sg sync.WaitGroup
	for r := 0; r < 4; r++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for k := 0; k < 20; k++ {
				it, err := rs.Scan(context.Background(), "T", 16)
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				for {
					rows, ok, err := it.Next()
					if err != nil {
						t.Error(err)
						return
					}
					if !ok {
						break
					}
					for _, row := range rows {
						if _, ok := row["G"]; !ok {
							t.Error("scan observed a torn row")
							return
						}
					}
					n += len(rows)
				}
				_ = it.Close()
				if n > writers*perWriter {
					t.Errorf("scan observed %d rows, more than ever appended", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	sg.Wait()
	if got := rs.Len("T"); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
}
