package difftest

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
	"github.com/ormkit/incmap/internal/xver"
)

// Differential testing of the streaming executor: random client states
// over the chain / hub-rim / customer / paper workload families, every
// compiled view evaluated once through the reference tree-walker
// (oracle.go) and once through each production entry point that runs the
// executor — orm.Materialize, orm.MaterializeInto, orm.QueryTypeStream,
// orm.LoadStream, orm.Load, xver.Plan.ReadClient and raw exec.Open —
// compared as multisets. Any divergence is an executor bug and gets a
// pinned regression test below.

// buildStreamWorkload maps two fuzz bytes onto a workload family and
// size. Unlike buildWorkload it includes the fixed paper and customer
// mappings — the streaming differential has no SMO stream, so heavier
// workloads stay cheap enough to fuzz.
func buildStreamWorkload(wl, size byte) (*frag.Mapping, error) {
	switch wl % 5 {
	case 0:
		return workload.ChainE(2 + int(size)%5)
	case 1:
		return workload.HubRimE(workload.HubRimOptions{N: 1 + int(size)%3, M: int(size/4) % 3, TPH: true})
	case 2:
		return workload.HubRimE(workload.HubRimOptions{N: 1 + int(size)%3, M: int(size/4) % 3})
	case 3:
		return workload.PaperFullE()
	default:
		// A scaled-down customer model: the full 230-type default takes
		// ~10s to compile, which trips the fuzz engine's per-input hang
		// detection. This keeps the TPT+TPH+shared-FK structure.
		return workload.CustomerE(workload.CustomerOptions{
			Types:          20 + int(size)%12,
			Hierarchies:    4,
			LargestTPH:     8,
			Associations:   4,
			SharedTableFKs: 1,
		})
	}
}

// runStreamDifferential is the oracle for one fuzz input.
func runStreamDifferential(t *testing.T, wl, size byte, stateSeed uint32, batch byte) {
	t.Helper()
	ctx := context.Background()
	m, err := buildStreamWorkload(wl, size)
	if err != nil {
		t.Skip("workload parameters rejected")
	}
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(ctx, m)
	if err != nil {
		t.Fatalf("workload (wl=%d size=%d) failed to compile: %v", wl, size, err)
	}
	cs := orm.RandomState(m, stateSeed, 4)
	opts := exec.Options{BatchSize: 1 + int(batch)%64}

	// Write path: both orm materializers must equal the reference
	// row-for-row per table (as multisets).
	want, err := Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("reference materialize: %v", err)
	}
	viaMap, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	ring, err := orm.MaterializeInto(ctx, m, v, cs, opts)
	if err != nil {
		t.Fatalf("streaming materialize: %v", err)
	}
	viaRing, err := ring.Snapshot()
	if err != nil {
		t.Fatalf("ring snapshot: %v", err)
	}
	for name, got := range map[string]*state.StoreState{"Materialize": viaMap, "MaterializeInto": viaRing} {
		if d := state.DiffStore(want, got); d != "" {
			t.Fatalf("%s diverges (wl=%d size=%d seed=%d batch=%d):\n%s",
				name, wl, size, stateSeed, batch, d)
		}
	}

	// Read path: every query view as entity multisets; then the whole
	// client state through LoadStream, Load and a cross-version reader
	// whose plan spans this generation and itself.
	for ty := range v.Query {
		wantEnts, err := QueryType(m, v, want, ty)
		if err != nil {
			t.Fatalf("reference QueryType(%s): %v", ty, err)
		}
		it, err := orm.QueryTypeStream(ctx, m, v, ring, ty, opts)
		if err != nil {
			t.Fatalf("QueryTypeStream(%s): %v", ty, err)
		}
		gotEnts, err := exec.CollectEntities(it)
		if err != nil {
			t.Fatalf("QueryTypeStream(%s): %v", ty, err)
		}
		if d := diffMultiset("entities", canonical(wantEnts), canonical(gotEnts)); d != "" {
			t.Fatalf("query view %s diverges (wl=%d size=%d seed=%d batch=%d): %s",
				ty, wl, size, stateSeed, batch, d)
		}
	}
	wantCS, err := Load(m, v, want)
	if err != nil {
		t.Fatalf("reference load: %v", err)
	}
	gen := xver.Gen{M: m, V: v}
	plan, err := xver.Compile(gen, gen, xver.Strategies{})
	if err != nil {
		t.Fatalf("cross-version plan: %v", err)
	}
	readers := map[string]func() (*state.ClientState, error){
		"LoadStream": func() (*state.ClientState, error) { return orm.LoadStream(ctx, m, v, ring, opts) },
		"Load":       func() (*state.ClientState, error) { return orm.Load(m, v, want) },
		"ReadClient": func() (*state.ClientState, error) { return plan.ReadClient(ctx, ring, opts) },
	}
	for name, read := range readers {
		gotCS, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := state.Diff(wantCS, gotCS); d != "" {
			t.Fatalf("%s diverges (wl=%d size=%d seed=%d batch=%d):\n%s",
				name, wl, size, stateSeed, batch, d)
		}
	}

	// Relational layer: every compiled expression through the reference
	// Eval vs exec.Collect.
	refEnv := &Env{Catalog: m.Catalog(), Client: cs, Store: want}
	execEnv := &exec.Env{Catalog: m.Catalog(), Store: ring, Client: cs}
	check := func(kind, name string, q cqt.Expr) {
		res, err := Eval(refEnv, q)
		if err != nil {
			t.Fatalf("%s view %s: eval: %v", kind, name, err)
		}
		it, err := exec.Open(ctx, execEnv, q, opts)
		if err != nil {
			t.Fatalf("%s view %s: open: %v", kind, name, err)
		}
		sres, err := exec.Collect(it)
		if err != nil {
			t.Fatalf("%s view %s: collect: %v", kind, name, err)
		}
		if d := diffMultiset("rows", canonical(res.Rows), canonical(sres.Rows)); d != "" {
			t.Fatalf("%s view %s diverges (wl=%d size=%d seed=%d batch=%d): %s",
				kind, name, wl, size, stateSeed, batch, d)
		}
	}
	for ty, view := range v.Query {
		check("query", ty, view.Q)
	}
	for table, view := range v.Update {
		check("update", table, view.Q)
	}
	for assoc, view := range v.Assoc {
		check("assoc", assoc, view.Q)
	}
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

func diffMultiset(what string, want, got []string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d %s reference, %d streaming", len(want), what, len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("%s multiset differs: %q vs %q", what, want[i], got[i])
		}
	}
	return ""
}

// FuzzExecVsMaterialize is the native fuzz target: bytes decode to
// (workload family, size, state seed, batch size).
func FuzzExecVsMaterialize(f *testing.F) {
	// In-code seeds mirror testdata/fuzz/FuzzExecVsMaterialize and cover
	// every workload family and awkward batch sizes.
	f.Add(byte(0), byte(2), uint32(1), byte(0))   // chain, batch 1
	f.Add(byte(0), byte(4), uint32(9), byte(2))   // longer chain, batch 3
	f.Add(byte(1), byte(5), uint32(3), byte(1))   // hub-rim TPH
	f.Add(byte(2), byte(6), uint32(5), byte(7))   // hub-rim TPT
	f.Add(byte(3), byte(0), uint32(7), byte(30))  // paper full
	f.Add(byte(4), byte(0), uint32(11), byte(63)) // customer TPH+TPT mix
	f.Fuzz(func(t *testing.T, wl, size byte, stateSeed uint32, batch byte) {
		runStreamDifferential(t, wl, size, stateSeed, batch)
	})
}

// TestExecDiffSeeds runs the streaming seed corpus as ordinary tests, so
// plain `go test` exercises the executor differential without -fuzz.
func TestExecDiffSeeds(t *testing.T) {
	cases := []struct {
		name  string
		wl    byte
		sz    byte
		seed  uint32
		batch byte
	}{
		{"chain-batch1", 0, 2, 1, 0},
		{"chain-long", 0, 4, 9, 2},
		{"hubrim-tph", 1, 5, 3, 1},
		{"hubrim-tpt", 2, 6, 5, 7},
		{"paper-full", 3, 0, 7, 30},
		{"customer", 4, 0, 11, 63},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runStreamDifferential(t, tc.wl, tc.sz, tc.seed, tc.batch)
		})
	}
}

// TestExecDiffRegressions pins inputs that found (or nearly found) real
// divergences while the executor was built: full-outer join tails over
// multi-segment rings, and single-row batches straddling every segment
// boundary of the paper workload.
func TestExecDiffRegressions(t *testing.T) {
	cases := []struct {
		name  string
		wl    byte
		sz    byte
		seed  uint32
		batch byte
	}{
		// Paper workload at batch 1: every join build/probe boundary and
		// union input straddles a batch edge.
		{"paper-batch1", 3, 0, 2, 0},
		// Hub-rim TPT with zero rims compiles degenerate joins.
		{"hubrim-no-rims", 2, 0, 13, 0},
		// Chain of 2 at large batch: single-batch fast path.
		{"chain-single-batch", 0, 0, 17, 63},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runStreamDifferential(t, tc.wl, tc.sz, tc.seed, tc.batch)
		})
	}
}
