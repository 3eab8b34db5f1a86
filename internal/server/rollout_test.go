package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/faultinject"
)

// --- helpers -------------------------------------------------------------

// rolloutBody builds the standard test rollout: one TPH subtype added to
// the tenant's chain, nullable gap attribute, small batches so multi-batch
// backfills happen even with little data.
func rolloutBody(prefix string, extra map[string]any) map[string]any {
	body := map[string]any{
		"smos": []map[string]any{{
			"op": "addEntity", "name": prefix + "Extra", "parent": prefix + "Entity2",
			"attrs": []map[string]any{{"name": "Note", "type": "string", "nullable": true}},
		}},
		"canarySamples": 2,
		"batchRows":     2,
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// seedData writes synthetic rows and returns their checksum.
func seedData(t *testing.T, base, name string, seed uint32) string {
	t.Helper()
	var resp dataResponse
	hr := doJSON(t, "POST", fmt.Sprintf("%s/v1/tenants/%s/data", base, name),
		map[string]any{"seed": seed, "maxPerType": 4}, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("seeding data: status %d", hr.StatusCode)
	}
	if resp.TotalRows == 0 {
		t.Fatal("seeding data produced no rows")
	}
	return resp.Checksum
}

func getData(t *testing.T, base, name, query string) dataResponse {
	t.Helper()
	var resp dataResponse
	hr := doJSON(t, "GET", fmt.Sprintf("%s/v1/tenants/%s/data%s", base, name, query), nil, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("reading data: status %d", hr.StatusCode)
	}
	return resp
}

// startRollout posts a rollout and asserts it was accepted.
func startRollout(t *testing.T, base, name string, body map[string]any) RolloutStatus {
	t.Helper()
	var st RolloutStatus
	hr := doJSON(t, "POST", fmt.Sprintf("%s/v1/tenants/%s/rollout", base, name), body, &st)
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("rollout not accepted: status %d", hr.StatusCode)
	}
	return st
}

// waitRollout polls until the tenant's rollout reaches a terminal phase.
func waitRollout(t *testing.T, base, name string) RolloutStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st RolloutStatus
		hr := doJSON(t, "GET", fmt.Sprintf("%s/v1/tenants/%s/rollout", base, name), nil, &st)
		if hr.StatusCode == http.StatusOK {
			switch st.Phase {
			case phaseDone, phaseRolledback, phaseFailed, phaseSuspended:
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout did not finish; last phase %q, notes %v, err %q", st.Phase, st.Notes, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func tenantStatus(t *testing.T, base, name string) TenantStatus {
	t.Helper()
	var st TenantStatus
	hr := doJSON(t, "GET", base+"/v1/tenants/"+name, nil, &st)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("tenant status: %d", hr.StatusCode)
	}
	return st
}

// --- tests ---------------------------------------------------------------

// TestRolloutCutover drives the happy path end to end: propose, canary,
// checkpointed backfill, guarded cutover, post-cutover verification. The
// serving generation advances, old-version clients keep reading and
// writing through the cross-version views, and the tenant evolves normally
// again afterwards.
func TestRolloutCutover(t *testing.T) {
	_, ts := testDaemon(t, Options{Store: testStore(t, t.TempDir())})
	registerChain(t, ts.URL, "rc", "rc", 3)
	seedData(t, ts.URL, "rc", 7)
	before := tenantStatus(t, ts.URL, "rc")

	startRollout(t, ts.URL, "rc", rolloutBody("rc", nil))
	st := waitRollout(t, ts.URL, "rc")
	if st.Phase != phaseDone {
		t.Fatalf("rollout phase %q (err %q, notes %v), want done", st.Phase, st.Error, st.Notes)
	}
	if st.TotalBatches == 0 || st.BatchesDone != st.TotalBatches {
		t.Fatalf("backfill %d/%d batches", st.BatchesDone, st.TotalBatches)
	}
	if st.Divergences != 0 {
		t.Fatalf("clean rollout reported %d divergences: %v", st.Divergences, st.Notes)
	}

	after := tenantStatus(t, ts.URL, "rc")
	if after.Generation <= before.Generation {
		t.Fatalf("generation %d did not advance past %d", after.Generation, before.Generation)
	}
	if after.Fingerprint == before.Fingerprint {
		t.Fatal("cutover kept the old fingerprint")
	}
	if after.Stale {
		t.Fatalf("tenant stale after rollout: %s", after.StaleReason)
	}

	// Version-k client: reads see the migrated store through the
	// cross-version views; a write through the old update views lands.
	prev := getData(t, ts.URL, "rc", "?version=prev")
	if len(prev.Entities) == 0 {
		t.Fatal("cross-version read returned no entity counts")
	}
	var wr dataResponse
	hr := doJSON(t, "POST", ts.URL+"/v1/tenants/rc/data",
		map[string]any{"seed": 11, "maxPerType": 3, "version": "prev"}, &wr)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("cross-version write: status %d", hr.StatusCode)
	}
	if wr.TotalRows == 0 {
		t.Fatal("cross-version write produced no rows")
	}

	// The tenant evolves normally again.
	var est TenantStatus
	hr = doJSON(t, "POST", ts.URL+"/v1/tenants/rc/evolve",
		map[string]any{"op": "addEntity", "name": "rcAfter", "parent": "rcEntity1"}, &est)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("evolve after rollout: status %d", hr.StatusCode)
	}
}

// TestRolloutCanaryGateRollsBack: an injected gate fault at the canary
// fails the rollout before anything was staged into serving — generation,
// fingerprint and rows stay bit-for-bit identical.
func TestRolloutCanaryGateRollsBack(t *testing.T) {
	_, ts := testDaemon(t, Options{Store: testStore(t, t.TempDir())})
	registerChain(t, ts.URL, "rg", "rg", 3)
	sum := seedData(t, ts.URL, "rg", 7)
	before := tenantStatus(t, ts.URL, "rg")

	defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 1},
	}})()
	startRollout(t, ts.URL, "rg", rolloutBody("rg", nil))
	st := waitRollout(t, ts.URL, "rg")
	if st.Phase != phaseRolledback {
		t.Fatalf("phase %q, want rolledback", st.Phase)
	}
	if st.GateFailures == 0 {
		t.Fatal("gate failure not recorded")
	}

	after := tenantStatus(t, ts.URL, "rg")
	if after.Generation != before.Generation || after.Fingerprint != before.Fingerprint {
		t.Fatalf("pre-cutover rollback moved the generation: %d/%s -> %d/%s",
			before.Generation, before.Fingerprint, after.Generation, after.Fingerprint)
	}
	if got := getData(t, ts.URL, "rg", "").Checksum; got != sum {
		t.Fatal("pre-cutover rollback changed the data plane")
	}
	// The pending generation is discarded: evolves work immediately.
	var est TenantStatus
	hr := doJSON(t, "POST", ts.URL+"/v1/tenants/rg/evolve",
		map[string]any{"op": "addEntity", "name": "rgAfter", "parent": "rgEntity1"}, &est)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("evolve after rollback: status %d", hr.StatusCode)
	}
}

// TestRolloutGateJudgesOwnEvolves: the health gate's error rate counts
// only the evolves made since the rollout started. A tenant with a burst
// of ten failed evolves behind it still rolls out, and a rollout record's
// gate passes while the evolves after it succeed and fails once they fail.
func TestRolloutGateJudgesOwnEvolves(t *testing.T) {
	srv, ts := testDaemon(t, Options{Store: testStore(t, t.TempDir())})
	registerChain(t, ts.URL, "ge", "ge", 3)
	seedData(t, ts.URL, "ge", 7)
	for i := 0; i < 10; i++ {
		resp, _, err := evolveAddEntity(ts.URL, "ge", fmt.Sprintf("geBad%d", i), "geNoSuchParent")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			t.Fatal("evolve under an unknown parent succeeded")
		}
	}
	// One good evolve clears the stale mark the failures left; the
	// lifetime error rate stays at 10 of 11.
	if resp, _, err := evolveAddEntity(ts.URL, "ge", "geGood", "geEntity1"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("good evolve: %v %v", resp, err)
	}
	if st := tenantStatus(t, ts.URL, "ge"); st.Errors != 10 || st.Evolves != 11 || st.Stale {
		t.Fatalf("tenant before rollout: %d errors of %d evolves, stale %v", st.Errors, st.Evolves, st.Stale)
	}
	startRollout(t, ts.URL, "ge", rolloutBody("ge", nil))
	if st := waitRollout(t, ts.URL, "ge"); st.Phase != phaseDone {
		t.Fatalf("rollout after old failures: phase %q (notes %v), want done", st.Phase, st.Notes)
	}

	tn, ok := srv.lookup("ge")
	if !ok {
		t.Fatal("tenant ge not found")
	}
	r := newRollout(tn, -1, rolloutRequest{}, phaseCanary)
	if !r.gate("canary") {
		t.Fatalf("gate failed with no evolves since the rollout started: %v", r.snapshot().Notes)
	}
	tn.evolves.Add(4)
	if !r.gate("cutover") {
		t.Fatalf("gate failed while the rollout's own evolves succeed: %v", r.snapshot().Notes)
	}
	tn.evolves.Add(6)
	tn.errors.Add(6)
	if r.gate("verify") {
		t.Fatal("gate passed with 6 of the rollout's 10 evolves failed")
	}
}

// TestRolloutPostCutoverRollback: the gate fails after cutover (third gate
// evaluation: canary, cutover, verify). The engine must restore the prior
// generation verbatim — same fingerprint — and the exact pre-rollout rows,
// under a monotonically advanced generation counter.
func TestRolloutPostCutoverRollback(t *testing.T) {
	_, ts := testDaemon(t, Options{Store: testStore(t, t.TempDir())})
	registerChain(t, ts.URL, "rp", "rp", 3)
	sum := seedData(t, ts.URL, "rp", 7)
	before := tenantStatus(t, ts.URL, "rp")

	defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 3},
	}})()
	// The default strategy fills the gap attribute with its zero value, not
	// with nulls, so the backfill changes the rows and only a verbatim
	// restore brings back their checksum.
	startRollout(t, ts.URL, "rp", rolloutBody("rp", map[string]any{"strategies": map[string]any{"default": "default"}}))
	st := waitRollout(t, ts.URL, "rp")
	if st.Phase != phaseRolledback {
		t.Fatalf("phase %q (err %q), want rolledback", st.Phase, st.Error)
	}

	after := tenantStatus(t, ts.URL, "rp")
	if after.Fingerprint != before.Fingerprint {
		t.Fatalf("rollback restored fingerprint %s, want %s", after.Fingerprint, before.Fingerprint)
	}
	if after.Generation <= before.Generation {
		t.Fatalf("generation counter went backwards: %d -> %d", before.Generation, after.Generation)
	}
	if got := getData(t, ts.URL, "rp", "").Checksum; got != sum {
		t.Fatal("post-cutover rollback did not restore the rows verbatim")
	}
}

// TestRolloutBackfillFaultRollsBack: a backfill batch failing through its
// whole retry ladder aborts the rollout before cutover.
func TestRolloutBackfillFaultRollsBack(t *testing.T) {
	_, ts := testDaemon(t, Options{Store: testStore(t, t.TempDir())})
	registerChain(t, ts.URL, "rb", "rb", 3)
	sum := seedData(t, ts.URL, "rb", 7)
	before := tenantStatus(t, ts.URL, "rb")

	defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteBackfillBatch, Kind: faultinject.KindError, Nth: 1, Every: 1},
	}})()
	startRollout(t, ts.URL, "rb", rolloutBody("rb", nil))
	st := waitRollout(t, ts.URL, "rb")
	if st.Phase != phaseRolledback {
		t.Fatalf("phase %q, want rolledback", st.Phase)
	}
	var sawRetry bool
	for _, n := range st.Notes {
		if strings.Contains(n, "retry") {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("no retry recorded before rollback: %v", st.Notes)
	}
	after := tenantStatus(t, ts.URL, "rb")
	if after.Fingerprint != before.Fingerprint {
		t.Fatal("backfill rollback moved the serving generation")
	}
	if got := getData(t, ts.URL, "rb", "").Checksum; got != sum {
		t.Fatal("backfill rollback changed the data plane")
	}
}

// TestRolloutEvolveConflict: while a rollout owns the tenant, direct
// evolves are 409 conflicts — not errors, not staleness.
func TestRolloutEvolveConflict(t *testing.T) {
	_, ts := testDaemon(t, Options{Store: testStore(t, t.TempDir())})
	registerChain(t, ts.URL, "rx", "rx", 3)
	seedData(t, ts.URL, "rx", 7)

	startRollout(t, ts.URL, "rx", rolloutBody("rx", map[string]any{"batchDelayMs": 50}))
	deadline := time.Now().Add(10 * time.Second)
	var conflicted bool
	for time.Now().Before(deadline) {
		var eb errorBody
		hr := doJSON(t, "POST", ts.URL+"/v1/tenants/rx/evolve",
			map[string]any{"op": "addEntity", "name": "rxClash", "parent": "rxEntity1"}, &eb)
		if hr.StatusCode == http.StatusConflict {
			conflicted = true
			break
		}
		if hr.StatusCode == http.StatusOK {
			// The rollout already finished; too late to observe the window.
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := waitRollout(t, ts.URL, "rx")
	if !conflicted {
		t.Skipf("rollout finished before a conflict window was observed (phase %q)", st.Phase)
	}
	if tst := tenantStatus(t, ts.URL, "rx"); tst.Stale {
		t.Fatalf("conflict marked the tenant stale: %s", tst.StaleReason)
	}
	// A second rollout while one is active is also a conflict.
	startRollout(t, ts.URL, "rx", rolloutBody("rx", map[string]any{
		"smos": []map[string]any{{"op": "addEntity", "name": "rxMore", "parent": "rxEntity1"}},
	}))
	waitRollout(t, ts.URL, "rx")
}

// TestRolloutBackfillResume is the crash-resume acceptance check: a daemon
// goes down mid-backfill (drain acts as the orderly stand-in for a kill —
// checkpoints are written continuously either way), one checkpoint record
// is torn on disk, and a fresh daemon over the same store must resume from
// the last intact checkpoint: committed batches are reused, the torn one
// re-runs, and the rollout completes with the exact migrated rows.
func TestRolloutBackfillResume(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testDaemon(t, Options{Store: testStore(t, dir)})
	registerChain(t, ts.URL, "rr", "rr", 4)
	seedData(t, ts.URL, "rr", 7)

	startRollout(t, ts.URL, "rr", rolloutBody("rr", map[string]any{
		"batchRows": 1, "batchDelayMs": 30,
	}))
	// Let at least two batches commit, then "crash".
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st RolloutStatus
		doJSON(t, "GET", ts.URL+"/v1/tenants/rr/rollout", nil, &st)
		if st.BatchesDone >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backfill never reached 2 batches (phase %q, %d/%d)", st.Phase, st.BatchesDone, st.TotalBatches)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var down RolloutStatus
	doJSON(t, "GET", ts.URL+"/v1/tenants/rr/rollout", nil, &down)
	if down.Phase != phaseSuspended {
		t.Fatalf("drained rollout phase %q, want suspended", down.Phase)
	}
	done := down.BatchesDone
	if done < 2 {
		t.Fatalf("suspended with %d batches, want >= 2", done)
	}

	// Tear the newest batch checkpoint: the resume path must detect the
	// damage by checksum and re-run that batch, not trust the progress
	// counter.
	torn := filepath.Join(dir, fmt.Sprintf("manifest-rollout-rr-b%d.json", done-1))
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatalf("stat %s: %v", torn, err)
	}
	if err := os.Truncate(torn, fi.Size()/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	srv2, ts2 := testDaemon(t, Options{Store: testStore(t, dir)})
	if srv2.Restored() == 0 {
		t.Fatal("second daemon restored no tenants")
	}
	st := waitRollout(t, ts2.URL, "rr")
	if st.Phase != phaseDone {
		t.Fatalf("resumed rollout phase %q (err %q, notes %v)", st.Phase, st.Error, st.Notes)
	}
	if !st.Resumed {
		t.Fatal("rollout does not report itself resumed")
	}
	if st.ReusedBatch != done-1 {
		t.Fatalf("reused %d checkpointed batches, want %d (torn one must re-run)", st.ReusedBatch, done-1)
	}
	if st.BatchesDone != st.TotalBatches {
		t.Fatalf("resumed backfill incomplete: %d/%d", st.BatchesDone, st.TotalBatches)
	}

	// The migrated store serves; old-version reads work; evolves work.
	after := tenantStatus(t, ts2.URL, "rr")
	if after.Stale {
		t.Fatalf("tenant stale after resume: %s", after.StaleReason)
	}
	if prev := getData(t, ts2.URL, "rr", "?version=prev"); len(prev.Entities) == 0 {
		t.Fatal("cross-version read returned no entities after resume")
	}
	var est TenantStatus
	hr := doJSON(t, "POST", ts2.URL+"/v1/tenants/rr/evolve",
		map[string]any{"op": "addEntity", "name": "rrAfter", "parent": "rrEntity1"}, &est)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("evolve after resume: status %d", hr.StatusCode)
	}
}

// TestReconfigure: the hot-config path validates, applies atomically and
// is visible on /v1/config; queue bounds tighten admissions for already
// registered tenants.
func TestReconfigure(t *testing.T) {
	srv, ts := testDaemon(t, Options{QueueDepth: 8})
	if _, err := srv.Reconfigure(Reconfig{QueueDepth: intp(0)}); err == nil {
		t.Fatal("queueDepth 0 accepted")
	}
	if _, err := srv.Reconfigure(Reconfig{RolloutMaxErrorRatePct: intp(250)}); err == nil {
		t.Fatal("error rate 250%% accepted")
	}
	cs, err := srv.Reconfigure(Reconfig{
		QueueDepth:           intp(2),
		RolloutCanarySamples: intp(9),
		RolloutBatchRows:     intp(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.QueueDepth != 2 || cs.Rollout.CanarySamples != 9 || cs.Rollout.BatchRows != 16 {
		t.Fatalf("reconfig did not land: %+v", cs)
	}
	if cs.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", cs.Reloads)
	}
	var got ConfigStatus
	hr := doJSON(t, "GET", ts.URL+"/v1/config", nil, &got)
	if hr.StatusCode != http.StatusOK || got.QueueDepth != 2 {
		t.Fatalf("GET /v1/config: %d %+v", hr.StatusCode, got)
	}
}

func intp(v int) *int { return &v }

// TestAuthTokens: mutating endpoints distinguish missing credentials (401)
// from wrong ones (403); reads stay open; other tenants stay open.
func TestAuthTokens(t *testing.T) {
	_, ts := testDaemon(t, Options{Auth: map[string]string{"sec": "hunter2"}})

	post := func(path, token string, body string) int {
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	regBody := `{"workload":{"kind":"chain","prefix":"sec","n":2}}`

	if got := post("/v1/tenants/sec", "", regBody); got != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", got)
	}
	if got := post("/v1/tenants/sec", "wrong", regBody); got != http.StatusForbidden {
		t.Fatalf("wrong token: %d, want 403", got)
	}
	if got := post("/v1/tenants/sec", "hunter2", regBody); got != http.StatusCreated {
		t.Fatalf("right token: %d, want 201", got)
	}
	// Reads are never gated.
	var st TenantStatus
	if hr := doJSON(t, "GET", ts.URL+"/v1/tenants/sec", nil, &st); hr.StatusCode != http.StatusOK {
		t.Fatalf("read gated: %d", hr.StatusCode)
	}
	// Unlisted tenants are open.
	if got := post("/v1/tenants/open", "", `{"workload":{"kind":"chain","prefix":"open","n":2}}`); got != http.StatusCreated {
		t.Fatalf("open tenant: %d, want 201", got)
	}
	// Mutations on the gated tenant keep requiring the token.
	evBody := `{"op":"addEntity","name":"secX","parent":"secEntity1"}`
	if got := post("/v1/tenants/sec/evolve", "", evBody); got != http.StatusUnauthorized {
		t.Fatalf("evolve without token: %d, want 401", got)
	}
	if got := post("/v1/tenants/sec/evolve", "hunter2", evBody); got != http.StatusOK {
		t.Fatalf("evolve with token: %d, want 200", got)
	}
}
