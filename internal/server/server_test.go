package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/store"
)

// testDaemon spins up a daemon over an httptest server.
func testDaemon(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func testContext(t *testing.T, d time.Duration) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), d)
}

func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// doJSON posts a JSON body and decodes the JSON response.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encoding request: %v", err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

func registerChain(t *testing.T, base, name, prefix string, n int) TenantStatus {
	t.Helper()
	var st TenantStatus
	resp := doJSON(t, "POST", base+"/v1/tenants/"+name,
		map[string]any{"workload": map[string]any{"kind": "chain", "prefix": prefix, "n": n}}, &st)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: status %d", name, resp.StatusCode)
	}
	return st
}

func evolveAddEntity(base, tenant, name, parent string) (*http.Response, TenantStatus, error) {
	body, _ := json.Marshal(map[string]any{
		"op": "addEntity", "name": name, "parent": parent,
		"attrs": []map[string]any{{"name": "Extra", "type": "string", "nullable": true}},
	})
	resp, err := http.Post(base+"/v1/tenants/"+tenant+"/evolve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, TenantStatus{}, err
	}
	defer resp.Body.Close()
	var st TenantStatus
	if resp.StatusCode == http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&st)
	}
	return resp, st, nil
}

func readViews(t *testing.T, base, tenant string) (viewsResponse, int) {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/v1/tenants/"+tenant+"/views", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("read views: %v", err)
	}
	defer resp.Body.Close()
	var vr viewsResponse
	_ = json.NewDecoder(resp.Body).Decode(&vr)
	return vr, resp.StatusCode
}

func TestServerRegisterEvolveRead(t *testing.T) {
	_, ts := testDaemon(t, Options{})
	st := registerChain(t, ts.URL, "acme", "Acme", 5)
	if st.Generation != 1 || st.Stale {
		t.Fatalf("fresh tenant: generation %d stale %v", st.Generation, st.Stale)
	}

	resp, est, err := evolveAddEntity(ts.URL, "acme", "AcmeExtra", "AcmeEntity1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("evolve: err %v status %d", err, resp.StatusCode)
	}
	if est.Generation != 2 || est.Stale {
		t.Fatalf("after evolve: generation %d stale %v", est.Generation, est.Stale)
	}

	vr, code := readViews(t, ts.URL, "acme")
	if code != http.StatusOK {
		t.Fatalf("read: status %d", code)
	}
	found := false
	for _, ty := range vr.Types {
		if ty == "AcmeExtra" {
			found = true
		}
		if !strings.HasPrefix(ty, "Acme") {
			t.Fatalf("foreign type %q served to tenant acme", ty)
		}
	}
	if !found {
		t.Fatalf("evolved type AcmeExtra not served; types: %v", vr.Types)
	}
}

func TestServerRejectsBadRegistrations(t *testing.T) {
	_, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "dup", "Dup", 3)

	resp := doJSON(t, "POST", ts.URL+"/v1/tenants/dup",
		map[string]any{"workload": map[string]any{"kind": "chain", "prefix": "Dup", "n": 3}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/tenants/bad..name",
		map[string]any{"workload": map[string]any{"kind": "chain", "n": 3}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid name: status %d, want 400", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/tenants/empty", map[string]any{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing model: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/tenants/ghost", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", resp.StatusCode)
	}
}

// TestServerEvolveFailureServesStale drives an evolve that fails
// validation and checks the tenant degrades: the old generation keeps
// serving with an explicit staleness flag, reads stay 200, and the next
// successful evolve clears the flag.
func TestServerEvolveFailureServesStale(t *testing.T) {
	_, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "acme", "Acme", 4)

	// Unknown parent: the planner rejects it; nothing commits.
	resp, _, err := evolveAddEntity(ts.URL, "acme", "AcmeOrphan", "NoSuchType")
	if err != nil {
		t.Fatalf("evolve: %v", err)
	}
	if resp.StatusCode/100 != 4 {
		t.Fatalf("bad evolve: status %d, want 4xx", resp.StatusCode)
	}

	vr, code := readViews(t, ts.URL, "acme")
	if code != http.StatusOK {
		t.Fatalf("read after failed evolve: status %d, want 200", code)
	}
	if !vr.Stale || vr.StaleReason == "" {
		t.Fatalf("read after failed evolve: stale %v reason %q, want flagged", vr.Stale, vr.StaleReason)
	}
	if vr.Generation != 1 {
		t.Fatalf("failed evolve moved the generation: %d", vr.Generation)
	}

	if resp, st, _ := evolveAddEntity(ts.URL, "acme", "AcmeOk", "AcmeEntity1"); resp.StatusCode != http.StatusOK || st.Stale {
		t.Fatalf("recovery evolve: status %d stale %v", resp.StatusCode, st.Stale)
	}
	if vr, _ := readViews(t, ts.URL, "acme"); vr.Stale {
		t.Fatalf("staleness not cleared by successful evolve")
	}
}

// TestServerEvolveFaultPanicIsolated injects a panic into the evolve
// worker and checks the blast radius: that evolve 500s, the tenant keeps
// serving (stale), other tenants are untouched, and the next evolve
// recovers.
func TestServerEvolveFaultPanicIsolated(t *testing.T) {
	_, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "victim", "Vic", 4)
	registerChain(t, ts.URL, "bystander", "By", 4)

	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServerHandler, Kind: faultinject.KindPanic, Nth: 1},
	}})
	resp, _, err := evolveAddEntity(ts.URL, "victim", "VicNew", "VicEntity1")
	deactivate()
	if err != nil {
		t.Fatalf("evolve: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked evolve: status %d, want 500", resp.StatusCode)
	}

	vr, code := readViews(t, ts.URL, "victim")
	if code != http.StatusOK || !vr.Stale {
		t.Fatalf("victim after panic: status %d stale %v, want 200 + stale", code, vr.Stale)
	}
	if vr, code := readViews(t, ts.URL, "bystander"); code != http.StatusOK || vr.Stale {
		t.Fatalf("bystander affected by victim's panic: status %d stale %v", code, vr.Stale)
	}
	if resp, st, _ := evolveAddEntity(ts.URL, "victim", "VicNew", "VicEntity1"); resp.StatusCode != http.StatusOK || st.Stale {
		t.Fatalf("victim did not recover: status %d stale %v", resp.StatusCode, st.Stale)
	}
}

// TestServerEvolveShedsUnderOverload fills a depth-1 queue behind a
// slowed worker and checks overload is rejected up front with 429 and a
// Retry-After hint — not absorbed into unbounded queues or 5xx.
func TestServerEvolveShedsUnderOverload(t *testing.T) {
	srv, ts := testDaemon(t, Options{QueueDepth: 1, MaxConcurrentCompiles: 1})
	registerChain(t, ts.URL, "busy", "Busy", 4)

	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServerHandler, Kind: faultinject.KindDelay, Nth: 1, Every: 1, Delay: 200 * time.Millisecond},
	}})
	defer deactivate()

	const burst = 8
	codes := make(chan int, burst)
	var retryAfterSeen bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, err := evolveAddEntity(ts.URL, "busy", fmt.Sprintf("BusyNew%d", i), "BusyEntity1")
			if err != nil {
				codes <- -1
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				if resp.Header.Get("Retry-After") != "" {
					retryAfterSeen = true
				}
				mu.Unlock()
			}
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)

	var shed, ok int
	for c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		case -1:
			t.Fatalf("transport error during burst")
		}
	}
	if shed == 0 {
		t.Fatalf("burst of %d against queue depth 1: no 429s (ok=%d)", burst, ok)
	}
	if !retryAfterSeen {
		t.Fatalf("shed responses carried no Retry-After header")
	}
	if ok == 0 {
		t.Fatalf("overload shed everything; some work should land")
	}
	if got := srv.QueueDepth(); got > 1 {
		t.Fatalf("queue depth %d exceeds bound 1", got)
	}
}

// TestServerAdmitFaultSheds drives the admission-site injection: the
// request is rejected before any compilation state exists.
func TestServerAdmitFaultSheds(t *testing.T) {
	_, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "acme", "Acme", 4)

	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServerAdmit, Kind: faultinject.KindError, Nth: 1},
	}})
	defer deactivate()

	resp, _, err := evolveAddEntity(ts.URL, "acme", "AcmeNew", "AcmeEntity1")
	if err != nil {
		t.Fatalf("evolve: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("admission fault: status %d, want 429", resp.StatusCode)
	}
	if faultinject.Fired() == 0 {
		t.Fatalf("admission rule never fired")
	}
	// The shed evolve left no queue residue; the tenant still works.
	if resp, _, _ := evolveAddEntity(ts.URL, "acme", "AcmeNew", "AcmeEntity1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed evolve: status %d", resp.StatusCode)
	}
}

// TestServerDrainLifecycle checks the readiness flip, rejection of new
// work, and the idempotence of Drain.
func TestServerDrainLifecycle(t *testing.T) {
	srv, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "acme", "Acme", 4)

	if resp := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	ctx, cancel := testContext(t, 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	if resp := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d, want 200 (process still alive)", resp.StatusCode)
	}
	if resp, _, _ := evolveAddEntity(ts.URL, "acme", "AcmeNew", "AcmeEntity1"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("evolve after drain: status %d, want 503", resp.StatusCode)
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/tenants/late",
		map[string]any{"workload": map[string]any{"kind": "chain", "n": 3}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register after drain: status %d, want 503", resp.StatusCode)
	}
	// Reads still serve the committed generation during/after drain.
	if vr, code := readViews(t, ts.URL, "acme"); code != http.StatusOK || vr.Generation != 1 {
		t.Fatalf("read after drain: status %d generation %d", code, vr.Generation)
	}
}

// TestServerRestartWarmStartsTenants registers and evolves tenants, drains,
// then builds a second daemon over the same store and checks every tenant
// comes back at its committed generation without recompiling.
func TestServerRestartWarmStartsTenants(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testDaemon(t, Options{Store: testStore(t, dir), WriteBehind: true})
	registerChain(t, ts.URL, "acme", "Acme", 4)
	registerChain(t, ts.URL, "globex", "Glo", 4)
	if resp, st, _ := evolveAddEntity(ts.URL, "acme", "AcmeNew", "AcmeEntity1"); resp.StatusCode != http.StatusOK || st.Generation != 2 {
		t.Fatalf("evolve acme: status %d gen %d", resp.StatusCode, st.Generation)
	}
	fps := map[string]string{}
	for _, name := range []string{"acme", "globex"} {
		if fps[name] = tenantStatus(t, ts.URL, name).Fingerprint; fps[name] == "" {
			t.Fatalf("store-backed tenant %s reports no fingerprint", name)
		}
	}
	ctx, cancel := testContext(t, 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	srv2, ts2 := testDaemon(t, Options{Store: testStore(t, dir)})
	if got := srv2.Restored(); got != 2 {
		t.Fatalf("restored %d tenants, want 2", got)
	}
	for name, fp := range fps {
		if got := tenantStatus(t, ts2.URL, name).Fingerprint; got != fp {
			t.Fatalf("restored %s at fingerprint %q, want %q from before the drain", name, got, fp)
		}
	}
	vr, code := readViews(t, ts2.URL, "acme")
	if code != http.StatusOK || vr.Generation != 2 || vr.Stale {
		t.Fatalf("restored acme: status %d generation %d stale %v, want 200/2/false", code, vr.Generation, vr.Stale)
	}
	foundEvolved := false
	for _, ty := range vr.Types {
		if ty == "AcmeNew" {
			foundEvolved = true
		}
	}
	if !foundEvolved {
		t.Fatalf("restored acme lost its evolved type; types: %v", vr.Types)
	}
	if vr, code := readViews(t, ts2.URL, "globex"); code != http.StatusOK || vr.Generation != 1 {
		t.Fatalf("restored globex: status %d generation %d", code, vr.Generation)
	}
	// The restored tenant evolves normally.
	if resp, st, _ := evolveAddEntity(ts2.URL, "acme", "AcmeNew2", "AcmeEntity1"); resp.StatusCode != http.StatusOK || st.Generation != 3 {
		t.Fatalf("evolve restored acme: status %d gen %d", resp.StatusCode, st.Generation)
	}
}

// TestServerRestartRestoresTenantsBeyondCap registers more tenants than
// the store keeps generations: the tenant manifest references every
// tenant's head, so pruning keeps each one (and a delta head's base), and
// a restarted daemon restores every tenant.
func TestServerRestartRestoresTenantsBeyondCap(t *testing.T) {
	const tenants, maxGenerations = 6, 3
	dir := t.TempDir()
	capped := func() *store.Store {
		st := testStore(t, dir)
		st.MaxGenerations = maxGenerations
		return st
	}
	srv, ts := testDaemon(t, Options{Store: capped(), WriteBehind: true})
	for i := 0; i < tenants; i++ {
		registerChain(t, ts.URL, fmt.Sprintf("t%d", i), fmt.Sprintf("T%d", i), 4)
	}
	for i := 0; i < tenants; i += 2 {
		name := fmt.Sprintf("t%d", i)
		if resp, _, err := evolveAddEntity(ts.URL, name, "New", fmt.Sprintf("T%dEntity1", i)); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("evolve %s: %v", name, err)
		}
	}
	ctx, cancel := testContext(t, 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv2, _ := testDaemon(t, Options{Store: capped()})
	if got := srv2.Restored(); got != tenants {
		t.Fatalf("restored %d tenants, want %d", got, tenants)
	}
}

// TestServerFaultDamagedStoreDegradesToCold corrupts a tenant's
// generation record between daemon lifetimes: the restarted daemon must
// skip the tenant (no partial serve) and a re-registration must compile
// cold and succeed.
func TestServerFaultDamagedStoreDegradesToCold(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testDaemon(t, Options{Store: testStore(t, dir)})
	registerChain(t, ts.URL, "acme", "Acme", 4)
	ctx, cancel := testContext(t, 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	gens, err := filepath.Glob(filepath.Join(dir, "gen-*.json"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("no generation records persisted: %v", err)
	}
	for _, g := range gens {
		if err := os.WriteFile(g, []byte("torn"), 0o644); err != nil {
			t.Fatalf("corrupting %s: %v", g, err)
		}
	}

	srv2, ts2 := testDaemon(t, Options{Store: testStore(t, dir)})
	if got := srv2.Restored(); got != 0 {
		t.Fatalf("restored %d tenants from a damaged store, want 0", got)
	}
	if _, code := readViews(t, ts2.URL, "acme"); code != http.StatusNotFound {
		t.Fatalf("damaged tenant served: status %d, want 404", code)
	}
	st := registerChain(t, ts2.URL, "acme", "Acme", 4)
	if st.WarmStart {
		t.Fatalf("re-registration warm-started from a damaged record")
	}
	if _, code := readViews(t, ts2.URL, "acme"); code != http.StatusOK {
		t.Fatalf("cold re-registration not serving: status %d", code)
	}
}

func TestWireSMODecode(t *testing.T) {
	cases := []struct {
		name string
		in   WireSMO
		ok   bool
	}{
		{"addEntity", WireSMO{Op: "addEntity", Name: "E", Parent: "P"}, true},
		{"addEntityNoParent", WireSMO{Op: "addEntity", Name: "E"}, false},
		{"addEntityBadAttr", WireSMO{Op: "addEntity", Name: "E", Parent: "P", Attrs: []WireAttr{{Name: "A", Type: "blob"}}}, false},
		{"addProperty", WireSMO{Op: "addProperty", Type: "E", Attr: &WireAttr{Name: "A", Type: "int"}, Table: "T", Col: "C"}, true},
		{"addPropertyIncomplete", WireSMO{Op: "addProperty", Type: "E"}, false},
		{"addAssociation", WireSMO{Op: "addAssociation", Name: "R", End1: &WireEnd{Type: "A", Mult: "*"}, End2: &WireEnd{Type: "B", Mult: "0..1"}}, true},
		{"addAssociationBadMult", WireSMO{Op: "addAssociation", Name: "R", End1: &WireEnd{Type: "A", Mult: "2"}, End2: &WireEnd{Type: "B", Mult: "1"}}, false},
		{"dropEntity", WireSMO{Op: "dropEntity", Name: "E"}, true},
		{"dropAssociation", WireSMO{Op: "dropAssociation", Name: "R"}, true},
		{"unknown", WireSMO{Op: "transmogrify"}, false},
		{"empty", WireSMO{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op, err := tc.in.ToSMO()
			if tc.ok && (err != nil || op == nil) {
				t.Fatalf("ToSMO: unexpected error %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("ToSMO: error expected")
				}
				if err.status != http.StatusBadRequest {
					t.Fatalf("ToSMO: status %d, want 400", err.status)
				}
			}
		})
	}
}
