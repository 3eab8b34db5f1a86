package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/workload"
)

// serveTenants is the number of tenants serve-mixed registers, and
// serveWorkers the number of goroutines (and connections) issuing requests.
const (
	serveTenants = 2
	serveWorkers = 2
)

// maxGenLag is the load generator's lateness (p99) above which a
// serve-mixed run is invalid: the latencies would measure the generator.
const maxGenLag = 20 * time.Millisecond

// request is one scheduled call of the open loop.
type request struct {
	due    time.Duration // offset from the loop's start
	tenant int
	kind   string // "GET /data", "GET /views" or "POST evolve"
	parent int    // evolve: attach point on the tenant's chain
	seq    int    // evolve: sequence number, naming the new entity
}

// reply is what one request observed.
type reply struct {
	req        request
	lat        time.Duration // from when the request was due
	err        error
	queueDepth int
}

// runServe is serve-mixed: a mapserved child process with a persistent
// store, so evolves persist write-behind as in production, serving chain
// tenants with seeded rows under an open loop. Reads arrive as a Poisson
// process (three quarters GET /data, one quarter GET /views, tenants
// uniform) and addEntity evolves at a fixed rate alternating tenants;
// serveWorkers goroutines issue them over as many connections. Every
// request is timed from when it was due. The reads are the workload's
// timed operations; the evolves are the load they run under.
func runServe(ctx context.Context, r *runner) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	dir := filepath.Join(r.scratch, "daemon")
	args := []string{"-addr", "127.0.0.1:" + port, "-store", filepath.Join(dir, "store")}
	if r.traced {
		args = append(args, "-trace", filepath.Join(dir, "daemon_trace.json"))
	}
	d, err := startDaemon(r.mapserved, args)
	if err != nil {
		return err
	}
	defer d.kill()
	api := &client{
		base: "http://127.0.0.1:" + port,
		http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: serveWorkers, MaxIdleConnsPerHost: serveWorkers}},
	}
	if err := api.waitReady(15 * time.Second); err != nil {
		return err
	}

	// Set-up: register the tenants and seed their rows. Both tenants get the
	// same fixed row seed, so every run and tenant reads the same amount of
	// data; --seed drives the traffic.
	checksum := make([]string, serveTenants)
	var maxGen [serveTenants]atomic.Int64
	for i := 0; i < serveTenants; i++ {
		prefix := tenantPrefix(i)
		m, err := workload.TenantE(prefix, r.sz.tenantChain)
		if err != nil {
			return err
		}
		if err := api.call("POST", tenantPath(i, ""), map[string]any{
			"workload": map[string]any{"kind": "chain", "prefix": prefix, "n": r.sz.tenantChain},
		}, http.StatusCreated, nil); err != nil {
			return fmt.Errorf("registering %s: %w", tenantName(i), err)
		}
		var views struct {
			Types, Assocs, Tables []string
		}
		if err := api.call("GET", tenantPath(i, "/views"), nil, http.StatusOK, &views); err != nil {
			return err
		}
		got := shape{Types: len(m.Client.Types()), Assocs: len(m.Client.Associations()),
			Tables: len(m.Store.Tables()), Frags: len(m.Frags),
			Views: len(views.Types) + len(views.Assocs) + len(views.Tables)}
		if want, ok := pinnedShapes[tenantLabel(r.sz.tenantChain)]; ok {
			r.check(got == want, "tenant model: shape %+v, pinned %+v", got, want)
		}
		var data struct {
			Generation int64  `json:"generation"`
			Checksum   string `json:"checksum"`
			TotalRows  int    `json:"totalRows"`
		}
		if err := api.call("POST", tenantPath(i, "/data"), map[string]any{
			"seed": 1000, "maxPerType": r.sz.tenantPerType,
		}, http.StatusOK, &data); err != nil {
			return fmt.Errorf("seeding %s: %w", tenantName(i), err)
		}
		r.check(data.TotalRows > 0 && data.Checksum != "", "seeding %s wrote no rows", tenantName(i))
		checksum[i] = data.Checksum
		maxGen[i].Store(data.Generation)
	}

	var before daemonState
	if r.traced {
		if before, err = api.state(); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(r.seed))
	reqs := schedule(rng, r.seconds, r.sz)
	start := time.Now().Add(10 * time.Millisecond)
	// Buffered to the number of sends, so the generator never blocks and
	// its lateness measures only its own timer.
	queue := make(chan request, len(reqs))
	replies := make([][]reply, serveWorkers)
	var wg sync.WaitGroup
	for w := range replies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := range queue {
				replies[w] = append(replies[w], api.do(q, start, checksum, &maxGen))
			}
		}(w)
	}
	lags := make([]float64, 0, len(reqs))
	for _, q := range reqs {
		due := start.Add(q.due)
		time.Sleep(time.Until(due))
		lags = append(lags, time.Since(due).Seconds())
		queue <- q
	}
	close(queue)
	wg.Wait()

	queueMax := 0
	var reads []float64
	for _, rs := range replies {
		for _, rep := range rs {
			r.ok(rep.err, rep.req.kind+" "+tenantName(rep.req.tenant))
			queueMax = max(queueMax, rep.queueDepth)
			if rep.req.kind == "POST evolve" {
				r.sample(rep.req.kind, rep.lat.Seconds())
				continue
			}
			r.addOp(rep.req.kind, start.Add(rep.req.due), rep.lat, 1)
			reads = append(reads, rep.lat.Seconds())
		}
	}
	lag := percentile(lags, 99)
	r.check(lag <= maxGenLag.Seconds(), "load generator ran %.1f ms late at p99 (limit %v): run invalid", lag*1e3, maxGenLag)

	if r.traced {
		after, err := api.state()
		if err != nil {
			return err
		}
		r.spans = after.newSpans(before)
		for k, v := range after.counters {
			r.counters[k] = v - before.counters[k]
		}
		r.internSize = after.counters[obsv.MInternSize]
		r.gcPauseNs = after.mem.PauseTotalNs - before.mem.PauseTotalNs
		r.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
		r.layers["server.data_get_p50_ms"] = percentile(r.ops["GET /data"], 50) * 1e3
		r.layers["server.data_get_p99_ms"] = percentile(r.ops["GET /data"], 99) * 1e3
		r.layers["server.views_get_p50_ms"] = percentile(r.ops["GET /views"], 50) * 1e3
		r.layers["server.evolve_post_p50_ms"] = percentile(r.samples["POST evolve"], 50) * 1e3
		r.layers["server.read_p99_ms"] = percentile(reads, 99) * 1e3
		r.layers["server.queue_depth_max"] = float64(queueMax)
		r.layers["bench.gen_lag_p99_ms"] = lag * 1e3
	}

	rss, err := d.stop(30 * time.Second)
	r.ok(err, "daemon drain")
	r.daemonRSSKiB = rss
	return nil
}

// schedule draws the open loop's requests for the measured period.
func schedule(rng *rand.Rand, seconds float64, sz sizes) []request {
	var out []request
	at := func(t float64) time.Duration { return time.Duration(t * float64(time.Second)) }
	// Every fourth read is GET /views, so the mix of a run does not depend
	// on the seed: /data costs several times a /views read.
	i := 0
	for t := rng.ExpFloat64() / sz.readRate; t < seconds; t += rng.ExpFloat64() / sz.readRate {
		kind := "GET /data"
		if i%4 == 3 {
			kind = "GET /views"
		}
		out = append(out, request{due: at(t), tenant: rng.Intn(serveTenants), kind: kind})
		i++
	}
	for i := 0; ; i++ {
		t := (float64(i) + 0.5) / sz.evolveRate
		if t >= seconds {
			break
		}
		out = append(out, request{due: at(t), tenant: i % serveTenants, kind: "POST evolve",
			parent: 1 + rng.Intn(sz.tenantChain), seq: i})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

func tenantName(i int) string   { return fmt.Sprintf("t%d", i) }
func tenantPrefix(i int) string { return fmt.Sprintf("T%dx", i) }
func tenantPath(i int, suffix string) string {
	return "/v1/tenants/" + tenantName(i) + suffix
}

// client is the load generator's view of the daemon's HTTP API.
type client struct {
	base string
	http *http.Client
}

// call sends one JSON request and decodes the response into out (when
// non-nil), failing unless the status is want.
func (c *client) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// do issues one scheduled request and checks its answer: reads must see the
// tenant's seeded rows unchanged and never a generation older than one
// already observed before they were sent; evolves must commit a newer one.
func (c *client) do(q request, start time.Time, checksum []string, maxGen *[serveTenants]atomic.Int64) reply {
	known := maxGen[q.tenant].Load()
	var st struct {
		Generation int64  `json:"generation"`
		Checksum   string `json:"checksum"`
		Stale      bool   `json:"stale"`
		QueueDepth int    `json:"queueDepth"`
	}
	var err error
	switch q.kind {
	case "GET /data":
		err = c.call("GET", tenantPath(q.tenant, "/data"), nil, http.StatusOK, &st)
		if err == nil && st.Checksum != checksum[q.tenant] {
			err = fmt.Errorf("rows changed: checksum %s, seeded %s", st.Checksum, checksum[q.tenant])
		}
	case "GET /views":
		err = c.call("GET", tenantPath(q.tenant, "/views"), nil, http.StatusOK, &st)
		if err == nil && st.Stale {
			err = errors.New("served a stale generation")
		}
	default:
		prefix := tenantPrefix(q.tenant)
		err = c.call("POST", tenantPath(q.tenant, "/evolve"), map[string]any{
			"op": "addEntity", "name": fmt.Sprintf("%sBench%d", prefix, q.seq),
			"parent": fmt.Sprintf("%sEntity%d", prefix, q.parent),
		}, http.StatusOK, &st)
		if err == nil && st.Generation <= known {
			err = fmt.Errorf("evolve committed generation %d, not newer than %d", st.Generation, known)
		}
	}
	lat := time.Since(start.Add(q.due))
	if err == nil && st.Generation < known {
		err = fmt.Errorf("generation went back from %d to %d", known, st.Generation)
	}
	for g := maxGen[q.tenant].Load(); err == nil && st.Generation > g; g = maxGen[q.tenant].Load() {
		if maxGen[q.tenant].CompareAndSwap(g, st.Generation) {
			break
		}
	}
	return reply{req: q, lat: lat, err: err, queueDepth: st.QueueDepth}
}

func (c *client) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		err := c.call("GET", "/healthz", nil, http.StatusOK, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mapserved not ready after %v: %w", limit, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// daemonState is what a traced run reads from the daemon around the
// measured period: its recorded spans, its obsv counters and its Go
// runtime statistics.
type daemonState struct {
	spans    []obsv.SpanData
	counters map[string]int64
	mem      struct{ PauseTotalNs, TotalAlloc uint64 }
}

func (c *client) state() (daemonState, error) {
	var s daemonState
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := c.call("GET", "/debug/trace", nil, http.StatusOK, &trace); err != nil {
		return s, err
	}
	for _, ev := range trace.TraceEvents {
		sp := obsv.SpanData{Name: ev.Name, TID: ev.TID, Outcome: ev.Args["outcome"],
			Start: time.Duration(ev.TS * 1e3), Dur: time.Duration(ev.Dur * 1e3)}
		sp.ID, _ = strconv.ParseUint(ev.Args["id"], 10, 64)
		sp.Parent, _ = strconv.ParseUint(ev.Args["parent"], 10, 64)
		s.spans = append(s.spans, sp)
	}
	if err := c.call("GET", "/v1/metrics", nil, http.StatusOK, &s.counters); err != nil {
		return s, err
	}
	var vars struct {
		Memstats struct{ PauseTotalNs, TotalAlloc uint64 } `json:"memstats"`
	}
	if err := c.call("GET", "/debug/vars", nil, http.StatusOK, &vars); err != nil {
		return s, err
	}
	s.mem = vars.Memstats
	return s, nil
}

// newSpans returns the spans recorded since before was read.
func (s daemonState) newSpans(before daemonState) []obsv.SpanData {
	seen := make(map[uint64]bool, len(before.spans))
	for _, sp := range before.spans {
		seen[sp.ID] = true
	}
	var out []obsv.SpanData
	for _, sp := range s.spans {
		if !seen[sp.ID] {
			out = append(out, sp)
		}
	}
	return out
}

// daemon is a running mapserved child process.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mapserved: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM, waits for it to exit (killing it
// after limit) and returns its peak RSS in KiB.
func (d *daemon) stop(limit time.Duration) (int64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(limit):
		d.kill()
		return 0, fmt.Errorf("mapserved did not drain within %v", limit)
	}
	if !d.cmd.ProcessState.Success() {
		return 0, fmt.Errorf("mapserved exited: %v", d.cmd.ProcessState)
	}
	return d.cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss, nil
}

// kill stops the daemon unconditionally and waits for it to exit.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}
