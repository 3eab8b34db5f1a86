package incmap_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/workload"
)

// TestStreamSmall runs the streaming acceptance gate at a toy size. The
// stream-soak CI job runs it at chain 300 / 200k rows (soakgate_test.go).
func TestStreamSmall(t *testing.T) {
	checkStreamPeak(t, 20, 3000, 64, 2)
}

// checkStreamPeak is the streaming executor's acceptance gate. It sizes a
// deterministic random client state of the chain model to ~rows store
// rows and writes it through the update views twice: into a map-backed
// store (orm.Materialize) and streamed into a RingStore
// (orm.MaterializeInto). It then drains every compiled query and
// association view through the executor over the ring while a goroutine
// commits `evolves` SMOs through a pipeline session. The gate:
// the streaming scan's peak heap stays under 10% of the bytes orm.Load
// holds for the same rows, no concurrent evolve fails, and rows flow.
//
// Peak heap is sampled with a forced collection first (every 64th batch
// and once at the end), after every reference to the map-backed state is
// dropped, so a sample is what the executor holds live — iterator state,
// one batch per operator and the hash-join build sides — rather than GC
// pacing slack, which scales with the store.
func checkStreamPeak(t *testing.T, chain, rows, batch, evolves int) {
	t.Helper()
	ctx := context.Background()
	m := workload.Chain(chain)
	v, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatalf("compiling chain-%d: %v", chain, err)
	}
	if len(v.Query) != chain {
		t.Fatalf("chain-%d compiled %d query views", chain, len(v.Query))
	}

	// RandomState inserts ~maxPerType/2 entities per type on average.
	cs := orm.RandomState(m, 7, max(1, 2*rows/chain))
	ss, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	opts := exec.Options{BatchSize: batch}
	ring, err := orm.MaterializeInto(ctx, m, v, cs, opts)
	if err != nil {
		t.Fatalf("streaming materialize: %v", err)
	}

	// The map-backed baseline runs first, so that every reference to it is
	// dropped before the streaming leg samples the heap.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	loadBase := ms.HeapAlloc
	loaded, err := orm.Load(m, v, ss)
	if err != nil {
		t.Fatalf("map-backed load: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	var held uint64
	if ms.HeapAlloc > loadBase {
		held = ms.HeapAlloc - loadBase
	}
	runtime.KeepAlive(loaded)
	loaded, ss, cs = nil, nil, nil

	// Evolution clones, so the views the scans read stay valid while the
	// session commits new generations.
	session := pipeline.NewSession(m, v, pipeline.Options{})
	var evolveFailures atomic.Int64
	evolved := make(chan struct{})
	go func() {
		defer close(evolved)
		for i := 0; i < evolves; i++ {
			op := modef.PlannedAddEntity(fmt.Sprintf("StreamEvo%d", i), "Entity2",
				[]edm.Attribute{{Name: "Note", Type: cond.KindString, Nullable: true}})
			if _, _, err := session.Evolve(ctx, op); err != nil {
				evolveFailures.Add(1)
			}
		}
	}()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, uint64(0)
	var pulls int64
	sample := func(force bool) {
		if pulls++; !force && pulls%64 != 0 {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	env := &exec.Env{Catalog: m.Catalog(), Store: ring}
	var scanned int64
	for _, ty := range sortedKeys(v.Query) {
		it, err := exec.OpenView(ctx, env, v.Query[ty], exec.Strict, opts)
		if err != nil {
			t.Fatalf("open query view %s: %v", ty, err)
		}
		for {
			ents, ok, err := it.Next()
			if err != nil {
				t.Fatalf("query view %s: %v", ty, err)
			}
			if !ok {
				break
			}
			scanned += int64(len(ents))
			sample(false)
		}
		it.Close()
	}
	for _, a := range sortedKeys(v.Assoc) {
		it, err := exec.Open(ctx, env, v.Assoc[a].Q, opts)
		if err != nil {
			t.Fatalf("open association view %s: %v", a, err)
		}
		for {
			b, ok, err := it.Next()
			if err != nil {
				t.Fatalf("association view %s: %v", a, err)
			}
			if !ok {
				break
			}
			scanned += int64(len(b))
			sample(false)
		}
		it.Close()
	}
	sample(true)
	<-evolved

	var streamPeak uint64
	if peak > base {
		streamPeak = peak - base
	}
	t.Logf("chain-%d: %d store rows, %d rows scanned; streaming peak %.2f MB, map-backed %.1f MB held; %d evolves, %d failed",
		chain, exec.TotalRows(ring), scanned, float64(streamPeak)/1e6, float64(held)/1e6, evolves, evolveFailures.Load())
	if scanned == 0 {
		t.Error("the streaming scan read no rows")
	}
	if held == 0 {
		t.Error("the map-backed baseline held no bytes; the comparison is vacuous")
	}
	if streamPeak*10 >= held {
		t.Errorf("streaming peak %d bytes is not under 10%% of the %d bytes the map-backed path holds", streamPeak, held)
	}
	if n := evolveFailures.Load(); n != 0 {
		t.Errorf("%d of %d concurrent evolves failed", n, evolves)
	}
}

// sortedKeys returns a map's keys in sorted order, so scans are
// deterministic.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
