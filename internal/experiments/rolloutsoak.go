package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/server"
	"github.com/ormkit/incmap/internal/store"
)

// RolloutSoakOptions parameterizes the versioned-rollout soak.
type RolloutSoakOptions struct {
	// Tenants is the number of concurrently served models, each of which
	// runs the full rollout gauntlet (clean cutover, fault-storm rollback,
	// post-cutover rollback).
	Tenants int
	// ChainN sizes each tenant's chain model (must be >= 2: the rollout
	// adds a TPH subtype under Entity2).
	ChainN int
	// ReadersPerTenant is how many goroutines hammer each tenant's read
	// endpoints — status, rows, cross-version rows — for the whole run.
	// The acceptance contract is that none of those reads ever sees a 5xx,
	// before, during or after a cutover or rollback.
	ReadersPerTenant int
	// BatchRows bounds one backfill batch.
	BatchRows int
	// SeedRows is the synthetic per-type row count seeded before the first
	// rollout.
	SeedRows int
	// Dir backs the daemon with a persistent store (required: rollout
	// checkpoints live there).
	Dir string
}

func (o *RolloutSoakOptions) defaults() {
	if o.Tenants <= 0 {
		o.Tenants = 3
	}
	if o.ChainN < 2 {
		o.ChainN = 4
	}
	if o.ReadersPerTenant <= 0 {
		o.ReadersPerTenant = 2
	}
	if o.BatchRows <= 0 {
		o.BatchRows = 2
	}
	if o.SeedRows <= 0 {
		o.SeedRows = 4
	}
}

// RolloutSoakResult is the measured outcome of one rollout soak: the
// throughput-style counters, the read-latency percentiles split at the
// first cutover (the EXPERIMENTS before/after table), and the acceptance
// verdicts the CI job asserts on.
type RolloutSoakResult struct {
	Tenants      int   `json:"tenants"`
	Rollouts     int   `json:"rollouts"`
	Cutovers     int   `json:"cutovers"`
	Rollbacks    int   `json:"rollbacks"`
	GateFailures int64 `json:"gateFailures"`
	FaultsFired  int64 `json:"faultsFired"`

	Reads       int64 `json:"reads"`
	Read5xx     int64 `json:"read5xx"`
	ReadNetErrs int64 `json:"readNetErrors"`
	CrossReads  int64 `json:"crossVersionReads"`
	CrossWrites int64 `json:"crossVersionWrites"`

	PreCutoverP50Us  float64 `json:"preCutoverReadP50Us"`
	PreCutoverP99Us  float64 `json:"preCutoverReadP99Us"`
	PostCutoverP50Us float64 `json:"postCutoverReadP50Us"`
	PostCutoverP99Us float64 `json:"postCutoverReadP99Us"`
	WallMs           float64 `json:"wallMs"`

	// The acceptance verdicts. Violations carries one line per failed
	// check so a red CI run says what broke, not just that something did.
	ZeroRead5xx          bool     `json:"zeroRead5xx"`
	NoDataLoss           bool     `json:"noDataLoss"`
	MonotonicGenerations bool     `json:"monotonicGenerations"`
	VerbatimRollback     bool     `json:"verbatimRollback"`
	Violations           []string `json:"violations,omitempty"`
}

// Pass reports whether every acceptance verdict held.
func (r RolloutSoakResult) Pass() bool {
	return r.ZeroRead5xx && r.NoDataLoss && r.MonotonicGenerations && r.VerbatimRollback
}

// String formats the result as a table block.
func (r RolloutSoakResult) String() string {
	verdict := func(b bool) string {
		if b {
			return "ok"
		}
		return "VIOLATED"
	}
	s := fmt.Sprintf(
		"tenants=%d rollouts=%d cutovers=%d rollbacks=%d gateFailures=%d faults=%d\n"+
			"reads=%d read5xx=%d netErrs=%d crossReads=%d crossWrites=%d\n"+
			"read latency before cutover p50=%.0fµs p99=%.0fµs — after p50=%.0fµs p99=%.0fµs\n"+
			"zero-read-5xx=%s no-data-loss=%s monotonic-generations=%s verbatim-rollback=%s",
		r.Tenants, r.Rollouts, r.Cutovers, r.Rollbacks, r.GateFailures, r.FaultsFired,
		r.Reads, r.Read5xx, r.ReadNetErrs, r.CrossReads, r.CrossWrites,
		r.PreCutoverP50Us, r.PreCutoverP99Us, r.PostCutoverP50Us, r.PostCutoverP99Us,
		verdict(r.ZeroRead5xx), verdict(r.NoDataLoss), verdict(r.MonotonicGenerations), verdict(r.VerbatimRollback))
	for _, v := range r.Violations {
		s += "\n  violation: " + v
	}
	return s
}

// soakData mirrors the daemon's data-endpoint response.
type soakData struct {
	TotalRows int            `json:"totalRows"`
	Checksum  string         `json:"checksum"`
	Entities  map[string]int `json:"entities"`
}

// soakHarness wraps one daemon plus the HTTP plumbing the soak drives it
// through.
type soakHarness struct {
	client *http.Client
	base   string
}

func (h *soakHarness) do(method, path string, body, out any) (int, error) {
	var rd *bytes.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(payload)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

// waitRollout polls a tenant's rollout until it reaches a terminal phase.
func (h *soakHarness) waitRollout(name string, timeout time.Duration) (server.RolloutStatus, error) {
	deadline := time.Now().Add(timeout)
	var st server.RolloutStatus
	for {
		code, err := h.do("GET", "/v1/tenants/"+name+"/rollout", nil, &st)
		if err == nil && code == http.StatusOK {
			switch st.Phase {
			case "done", "rolledback", "failed", "suspended":
				return st, nil
			}
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("rollout on %s did not finish (phase %q, err %q)", name, st.Phase, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (h *soakHarness) tenant(name string) (server.TenantStatus, error) {
	var st server.TenantStatus
	code, err := h.do("GET", "/v1/tenants/"+name, nil, &st)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("tenant %s status: %d", name, code)
	}
	return st, nil
}

func (h *soakHarness) data(name, query string) (soakData, error) {
	var d soakData
	code, err := h.do("GET", "/v1/tenants/"+name+"/data"+query, nil, &d)
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("data %s%s: %d", name, query, code)
	}
	return d, nil
}

// rolloutReq builds the standard soak rollout: one TPH subtype under
// Entity2 with a nullable gap attribute.
func rolloutReq(prefix, suffix string, batchRows int, seed uint32) map[string]any {
	return map[string]any{
		"smos": []map[string]any{{
			"op": "addEntity", "name": prefix + suffix, "parent": prefix + "Entity2",
			"attrs": []map[string]any{{"name": "Note", "type": "string", "nullable": true}},
		}},
		"canarySamples": 2,
		"batchRows":     batchRows,
		"seed":          seed,
	}
}

// RolloutSoak boots a store-backed daemon, registers N tenants with
// synthetic rows, then drives every tenant through three rollouts while
// readers hammer the serving and cross-version read paths:
//
//  1. a clean rollout — propose, canary, checkpointed backfill, guarded
//     cutover, verification — after which old-version clients read and
//     write through the cross-version views;
//  2. a concurrent fault storm — gate faults plus backfill-batch faults —
//     that must end in automatic rollbacks restoring fingerprint and rows
//     bit-for-bit;
//  3. a post-cutover gate failure per tenant (the verify gate), the
//     hardest rollback: serving state was already swapped, so the engine
//     must restore the prior generation verbatim under a monotonically
//     advancing generation counter.
//
// It reports read-latency percentiles split at the first cutover and the
// four acceptance verdicts (zero read 5xx, no cross-version data loss,
// monotonic generations, verbatim rollback).
func RolloutSoak(opt RolloutSoakOptions) (RolloutSoakResult, error) {
	opt.defaults()
	res := RolloutSoakResult{Tenants: opt.Tenants}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	st, err := store.Open(opt.Dir)
	if err != nil {
		return res, fmt.Errorf("opening store: %w", err)
	}
	srv := server.New(server.Options{Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	h := &soakHarness{client: &http.Client{Timeout: 30 * time.Second}, base: "http://" + ln.Addr().String()}

	names := make([]string, opt.Tenants)
	prefixes := make([]string, opt.Tenants)
	rows0 := make([]int, opt.Tenants)
	gen := make([]int64, opt.Tenants) // latest observed generation, for monotonicity
	for i := range names {
		names[i] = fmt.Sprintf("rs%d", i)
		prefixes[i] = fmt.Sprintf("Rs%dx", i)
		code, err := h.do("POST", "/v1/tenants/"+names[i], map[string]any{
			"workload": map[string]any{"kind": "chain", "prefix": prefixes[i], "n": opt.ChainN},
		}, nil)
		if err != nil || code != http.StatusCreated {
			return res, fmt.Errorf("registering %s: code %d err %v", names[i], code, err)
		}
		var seeded soakData
		code, err = h.do("POST", "/v1/tenants/"+names[i]+"/data",
			map[string]any{"seed": uint32(7 + i), "maxPerType": opt.SeedRows}, &seeded)
		if err != nil || code != http.StatusOK || seeded.TotalRows == 0 {
			return res, fmt.Errorf("seeding %s: code %d rows %d err %v", names[i], code, seeded.TotalRows, err)
		}
		rows0[i] = seeded.TotalRows
		ts, err := h.tenant(names[i])
		if err != nil {
			return res, err
		}
		gen[i] = ts.Generation
	}

	// Readers: status, current rows, cross-version rows — in rotation, for
	// the whole run. Latencies split at the first cutover wave.
	var (
		reads        atomic.Int64
		read5xx      atomic.Int64
		readNetErrs  atomic.Int64
		afterCutover atomic.Bool
		stopReaders  = make(chan struct{})
		readWg       sync.WaitGroup
		latMu        sync.Mutex
		preLat       []time.Duration
		postLat      []time.Duration
	)
	readPaths := []string{"", "/data", "/data?version=prev"}
	for i := range names {
		name := names[i]
		for r := 0; r < opt.ReadersPerTenant; r++ {
			readWg.Add(1)
			go func(rot int) {
				defer readWg.Done()
				var pre, post []time.Duration
				for n := rot; ; n++ {
					select {
					case <-stopReaders:
						latMu.Lock()
						preLat = append(preLat, pre...)
						postLat = append(postLat, post...)
						latMu.Unlock()
						return
					default:
					}
					post2 := afterCutover.Load()
					t0 := time.Now()
					resp, err := h.client.Get(h.base + "/v1/tenants/" + name + readPaths[n%len(readPaths)])
					if err != nil {
						readNetErrs.Add(1)
						continue
					}
					resp.Body.Close()
					d := time.Since(t0)
					reads.Add(1)
					if resp.StatusCode >= 500 {
						read5xx.Add(1)
					}
					if post2 {
						post = append(post, d)
					} else {
						pre = append(pre, d)
					}
				}
			}(r)
		}
	}

	start := time.Now()

	// --- round 1: clean rollout on every tenant, concurrently ------------
	round := func(suffix string, seed uint32) []server.RolloutStatus {
		sts := make([]server.RolloutStatus, opt.Tenants)
		var wg sync.WaitGroup
		for i := range names {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, err := h.do("POST", "/v1/tenants/"+names[i]+"/rollout",
					rolloutReq(prefixes[i], suffix, opt.BatchRows, seed+uint32(i)), nil)
				if err != nil || code != http.StatusAccepted {
					sts[i] = server.RolloutStatus{Phase: "failed", Error: fmt.Sprintf("not accepted: code %d err %v", code, err)}
					return
				}
				sts[i], _ = h.waitRollout(names[i], 60*time.Second)
			}(i)
		}
		wg.Wait()
		return sts
	}

	fp1 := make([]string, opt.Tenants)      // post-cutover fingerprint: every later rollback must restore it
	baseline := make([]string, opt.Tenants) // checksum the rollbacks must restore
	res.Rollouts += opt.Tenants
	for i, rst := range round("Extra1", 21) {
		if rst.Phase != "done" {
			violate("clean rollout on %s ended %q (err %q)", names[i], rst.Phase, rst.Error)
			continue
		}
		res.Cutovers++
		cur, err := h.data(names[i], "")
		if err != nil {
			return res, err
		}
		if cur.TotalRows < rows0[i] {
			violate("%s lost rows across cutover: %d -> %d", names[i], rows0[i], cur.TotalRows)
		}
		prev, err := h.data(names[i], "?version=prev")
		if err != nil {
			return res, err
		}
		res.CrossReads++
		if len(prev.Entities) == 0 {
			violate("%s cross-version read returned no entity counts", names[i])
		}
		var wr soakData
		code, err := h.do("POST", "/v1/tenants/"+names[i]+"/data",
			map[string]any{"seed": uint32(31 + i), "maxPerType": 3, "version": "prev"}, &wr)
		if err != nil || code != http.StatusOK || wr.TotalRows == 0 {
			violate("%s cross-version write failed: code %d rows %d err %v", names[i], code, wr.TotalRows, err)
		} else {
			res.CrossWrites++
		}
		after, err := h.data(names[i], "")
		if err != nil {
			return res, err
		}
		baseline[i] = after.Checksum
		ts, err := h.tenant(names[i])
		if err != nil {
			return res, err
		}
		if ts.Generation <= gen[i] {
			violate("%s generation did not advance across cutover: %d -> %d", names[i], gen[i], ts.Generation)
		}
		gen[i] = ts.Generation
		fp1[i] = ts.Fingerprint
	}
	afterCutover.Store(true)

	// checkRestore asserts the rollback contract: fingerprint and rows
	// restored verbatim, generation counter never moving backwards.
	checkRestore := func(i int, strict bool) error {
		ts, err := h.tenant(names[i])
		if err != nil {
			return err
		}
		if fp1[i] != "" && ts.Fingerprint != fp1[i] {
			violate("%s rollback restored fingerprint %s, want %s", names[i], ts.Fingerprint, fp1[i])
		}
		switch {
		case ts.Generation < gen[i]:
			violate("%s generation went backwards: %d -> %d", names[i], gen[i], ts.Generation)
		case strict && ts.Generation == gen[i]:
			violate("%s post-cutover rollback did not advance the generation counter", names[i])
		}
		gen[i] = ts.Generation
		cur, err := h.data(names[i], "")
		if err != nil {
			return err
		}
		if baseline[i] != "" && cur.Checksum != baseline[i] {
			violate("%s rollback did not restore rows verbatim", names[i])
		}
		return nil
	}

	// --- round 2: concurrent fault storm ---------------------------------
	// Odd gate evaluations fail (canary rollbacks); tenants whose canary
	// passes hit a backfill that fails every batch through its whole retry
	// ladder (backfill rollbacks). Either way every rollout must end
	// rolledback with serving state untouched.
	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 1, Every: 2},
		{Site: faultinject.SiteBackfillBatch, Kind: faultinject.KindError, Nth: 1, Every: 1},
	}})
	res.Rollouts += opt.Tenants
	storm := round("Extra2", 41)
	res.FaultsFired += faultinject.Fired()
	deactivate()
	for i, rst := range storm {
		if rst.Phase != "rolledback" {
			violate("fault-storm rollout on %s ended %q, want rolledback (err %q)", names[i], rst.Phase, rst.Error)
			continue
		}
		res.Rollbacks++
		res.GateFailures += rst.GateFailures
		if err := checkRestore(i, false); err != nil {
			return res, err
		}
	}

	// --- round 3: post-cutover rollback, one tenant at a time ------------
	// The third gate evaluation is the post-cutover verification (canary,
	// cutover, verify): failing it forces the engine to un-swap serving
	// state it already cut over.
	for i := range names {
		deact := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 3},
		}})
		res.Rollouts++
		code, err := h.do("POST", "/v1/tenants/"+names[i]+"/rollout",
			rolloutReq(prefixes[i], "Extra3", opt.BatchRows, 61+uint32(i)), nil)
		if err != nil || code != http.StatusAccepted {
			deact()
			return res, fmt.Errorf("round-3 rollout on %s not accepted: code %d err %v", names[i], code, err)
		}
		rst, err := h.waitRollout(names[i], 60*time.Second)
		res.FaultsFired += faultinject.Fired()
		deact()
		if err != nil {
			return res, err
		}
		if rst.Phase != "rolledback" {
			violate("post-cutover rollout on %s ended %q, want rolledback (err %q)", names[i], rst.Phase, rst.Error)
			continue
		}
		res.Rollbacks++
		res.GateFailures += rst.GateFailures
		if err := checkRestore(i, true); err != nil {
			return res, err
		}
	}

	res.WallMs = float64(time.Since(start).Microseconds()) / 1000
	close(stopReaders)
	readWg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return res, fmt.Errorf("drain: %w", err)
	}

	res.Reads = reads.Load()
	res.Read5xx = read5xx.Load()
	res.ReadNetErrs = readNetErrs.Load()
	res.PreCutoverP50Us, res.PreCutoverP99Us = percentiles(preLat)
	res.PostCutoverP50Us, res.PostCutoverP99Us = percentiles(postLat)
	res.ZeroRead5xx = res.Read5xx == 0
	res.NoDataLoss, res.MonotonicGenerations, res.VerbatimRollback = true, true, true
	for _, v := range res.Violations {
		switch {
		case strings.Contains(v, "lost rows"), strings.Contains(v, "cross-version"):
			res.NoDataLoss = false
		case strings.Contains(v, "generation"):
			res.MonotonicGenerations = false
		case strings.Contains(v, "fingerprint"), strings.Contains(v, "verbatim"):
			res.VerbatimRollback = false
		}
	}
	if res.Read5xx > 0 {
		violate("%d reads answered 5xx", res.Read5xx)
	}
	return res, nil
}
