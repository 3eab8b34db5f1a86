package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/obsv"
)

// TestServeSoakFaultInjected is the daemon's acceptance gate: several
// tenants hammered concurrently with evolves and reads while deterministic
// faults fire at the admission gate, the evolve worker and the persistent
// store. Throughout:
//
//   - every read returns 200 with either the latest or an explicitly
//     stale-flagged generation — never a 5xx, never a torn state;
//   - no cross-tenant bleed: every served type name carries the reading
//     tenant's unique prefix;
//   - per-client generation numbers are monotonic — a committed
//     generation is never rolled back or skipped;
//   - queue depth never exceeds its bound.
//
// The soak ends with a drain and a restart over the same store: the new
// daemon must warm-start every tenant at its final committed generation.
func TestServeSoakFaultInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		tenants      = 4
		evolvesPerTn = 12
		readersPerTn = 2
		queueDepth   = 4
	)

	dir := t.TempDir()
	opts := Options{
		Store:          testStore(t, dir),
		WriteBehind:    true,
		PersistRetries: 2,
		PersistBackoff: time.Millisecond,
		QueueDepth:     queueDepth,
	}
	soakTrace(t, &opts)
	srv, ts := testDaemon(t, opts)

	prefixes := make(map[string]string, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		prefix := fmt.Sprintf("Tn%dx", i)
		prefixes[name] = prefix
		registerChain(t, ts.URL, name, prefix, 5)
	}

	// Deterministic fault storm across every layer the daemon guards:
	// sparse enough that most work lands, dense enough that every rule
	// fires several times over the soak.
	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServerAdmit, Kind: faultinject.KindError, Nth: 5, Every: 9},
		{Site: faultinject.SiteServerHandler, Kind: faultinject.KindPanic, Nth: 4, Every: 11},
		{Site: faultinject.SiteSessionPersist, Kind: faultinject.KindError, Nth: 3, Every: 7},
		{Site: faultinject.SiteStoreSave, Kind: faultinject.KindCorrupt, Nth: 6, Every: 13},
	}})

	var (
		wg            sync.WaitGroup
		readFailures  atomic.Int64
		bleeds        atomic.Int64
		regressions   atomic.Int64
		reads         atomic.Int64
		stopReaders   = make(chan struct{})
		lastCommitted sync.Map // tenant name -> int64 generation
	)

	// Readers: hammer views, asserting the no-5xx / no-bleed / monotonic
	// contract for their tenant.
	for name, prefix := range prefixes {
		for r := 0; r < readersPerTn; r++ {
			wg.Add(1)
			go func(name, prefix string) {
				defer wg.Done()
				var lastGen int64
				for {
					select {
					case <-stopReaders:
						return
					default:
					}
					req, _ := http.NewRequest("GET", ts.URL+"/v1/tenants/"+name+"/views", nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						readFailures.Add(1)
						return
					}
					var vr viewsResponse
					_ = json.NewDecoder(resp.Body).Decode(&vr)
					resp.Body.Close()
					reads.Add(1)
					if resp.StatusCode != http.StatusOK {
						readFailures.Add(1)
						continue
					}
					if vr.Generation < lastGen {
						regressions.Add(1)
					}
					lastGen = vr.Generation
					for _, ty := range vr.Types {
						if !strings.HasPrefix(ty, prefix) {
							bleeds.Add(1)
						}
					}
				}
			}(name, prefix)
		}
	}

	// Evolvers: one sequential driver per tenant (mirroring a real
	// application pushing schema changes), tolerating shed/panicked
	// evolves and tracking the last generation that committed.
	var evolveWg sync.WaitGroup
	var committed, rejected atomic.Int64
	for name, prefix := range prefixes {
		evolveWg.Add(1)
		go func(name, prefix string) {
			defer evolveWg.Done()
			for i := 0; i < evolvesPerTn; i++ {
				body, _ := json.Marshal(map[string]any{
					"op": "addEntity", "name": fmt.Sprintf("%sSoak%d", prefix, i),
					"parent":    prefix + "Entity1",
					"timeoutMs": 15000,
				})
				resp, err := http.Post(ts.URL+"/v1/tenants/"+name+"/evolve", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("tenant %s evolve %d: transport: %v", name, i, err)
					return
				}
				var st TenantStatus
				_ = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					committed.Add(1)
					lastCommitted.Store(name, st.Generation)
				} else {
					rejected.Add(1)
				}
				if d := srv.QueueDepth(); d > int64(tenants*queueDepth) {
					t.Errorf("queue depth %d exceeds bound %d", d, tenants*queueDepth)
				}
			}
		}(name, prefix)
	}

	evolveWg.Wait()
	close(stopReaders)
	wg.Wait()
	faultsFired := faultinject.Fired() // read before deactivation resets it
	deactivate()

	if readFailures.Load() > 0 {
		t.Fatalf("%d of %d reads failed (non-200 or transport)", readFailures.Load(), reads.Load())
	}
	if bleeds.Load() > 0 {
		t.Fatalf("%d cross-tenant type bleeds observed", bleeds.Load())
	}
	if regressions.Load() > 0 {
		t.Fatalf("%d generation regressions observed", regressions.Load())
	}
	if committed.Load() == 0 {
		t.Fatalf("fault storm rejected every evolve (%d rejected); want degradation, not outage", rejected.Load())
	}
	if faultsFired == 0 {
		t.Fatalf("no faults fired; the soak exercised nothing")
	}
	t.Logf("soak: %d evolves committed, %d rejected, %d reads, %d faults fired",
		committed.Load(), rejected.Load(), reads.Load(), faultsFired)

	// Drain (faults off — the storm is over) and restart over the same
	// store: every tenant must come back at its final committed
	// generation.
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}

	srv2, ts2 := testDaemon(t, Options{Store: testStore(t, dir)})
	if got := srv2.Restored(); got != tenants {
		t.Fatalf("restart restored %d tenants, want %d", got, tenants)
	}
	for name := range prefixes {
		vr, code := readViews(t, ts2.URL, name)
		if code != http.StatusOK {
			t.Fatalf("restored %s: status %d", name, code)
		}
		want, _ := lastCommitted.Load(name)
		if want != nil && vr.Generation != want.(int64) {
			t.Fatalf("restored %s at generation %d, want committed %d", name, vr.Generation, want)
		}
		if vr.Stale {
			t.Fatalf("restored %s flagged stale", name)
		}
	}
}

// soakTrace records the daemon's compilation spans when
// MAPSERVED_SOAK_TRACE names a file, and writes them there as a Chrome
// trace when the test ends, passed or failed.
func soakTrace(t *testing.T, opts *Options) {
	path := os.Getenv("MAPSERVED_SOAK_TRACE")
	if path == "" {
		return
	}
	sink := obsv.NewRecordingSink()
	opts.Sink, opts.Tracer = sink, obsv.New(sink)
	t.Cleanup(func() {
		f, err := os.Create(path)
		if err != nil {
			t.Errorf("trace output: %v", err)
			return
		}
		defer f.Close()
		if err := obsv.WriteChromeTrace(f, sink.Spans()); err != nil {
			t.Errorf("writing trace: %v", err)
			return
		}
		t.Logf("Chrome trace written to %s", path)
	})
}
