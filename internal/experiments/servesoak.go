package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/server"
	"github.com/ormkit/incmap/internal/store"
)

// ServeSoakOptions parameterizes the multi-tenant daemon soak.
type ServeSoakOptions struct {
	// Tenants is the number of concurrently served models.
	Tenants int
	// EvolvesPerTenant is how many schema changes each tenant's driver
	// pushes, sequentially (mirroring a real application).
	EvolvesPerTenant int
	// ReadersPerTenant is how many goroutines hammer each tenant's read
	// endpoint for the duration of the run.
	ReadersPerTenant int
	// ChainN sizes each tenant's chain model.
	ChainN int
	// QueueDepth bounds each tenant's evolve queue (the admission gate).
	QueueDepth int
	// Faults, when true, activates the same deterministic fault storm the
	// soak test uses: shed at admission, panics in the worker, persist
	// failures and torn store writes.
	Faults bool
	// Dir, when non-empty, backs the daemon with a persistent store there
	// (write-behind), so the run also measures drain/flush cost.
	Dir string
}

func (o *ServeSoakOptions) defaults() {
	if o.Tenants <= 0 {
		o.Tenants = 4
	}
	if o.EvolvesPerTenant <= 0 {
		o.EvolvesPerTenant = 12
	}
	if o.ReadersPerTenant <= 0 {
		o.ReadersPerTenant = 2
	}
	if o.ChainN <= 0 {
		o.ChainN = 5
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
}

// ServeSoakResult is the measured outcome of one soak run.
type ServeSoakResult struct {
	Tenants      int           `json:"tenants"`
	Evolves      int           `json:"evolvesAttempted"`
	Committed    int64         `json:"evolvesCommitted"`
	Shed         int64         `json:"evolvesShed"`
	Failed       int64         `json:"evolvesFailed"`
	Reads        int64         `json:"reads"`
	StaleReads   int64         `json:"staleReads"`
	ReadErrors   int64         `json:"readErrors"`
	FaultsFired  int64         `json:"faultsFired"`
	Wall         time.Duration `json:"-"`
	WallMs       float64       `json:"wallMs"`
	DrainMs      float64       `json:"drainMs"`
	ThroughputPS float64       `json:"evolvesPerSec"`
	ReadP50Us    float64       `json:"readP50Us"`
	ReadP99Us    float64       `json:"readP99Us"`
	ShedRate     float64       `json:"shedRate"`
	StaleRate    float64       `json:"staleServeRate"`
}

// String formats the result as a table block.
func (r ServeSoakResult) String() string {
	return fmt.Sprintf(
		"tenants=%d evolves=%d committed=%d shed=%d failed=%d\n"+
			"reads=%d stale=%d readErrors=%d faults=%d\n"+
			"throughput=%.1f evolves/s  read p50=%.0fµs p99=%.0fµs\n"+
			"shed rate=%.1f%%  stale-serve rate=%.2f%%  drain=%.1fms",
		r.Tenants, r.Evolves, r.Committed, r.Shed, r.Failed,
		r.Reads, r.StaleReads, r.ReadErrors, r.FaultsFired,
		r.ThroughputPS, r.ReadP50Us, r.ReadP99Us,
		r.ShedRate*100, r.StaleRate*100, r.DrainMs)
}

// ServeSoak boots a mapserved daemon on a loopback listener, registers N
// tenants, then hammers them with concurrent evolvers and readers —
// optionally under the deterministic fault storm — and reports throughput,
// read latency percentiles, the shed rate and the stale-serve rate. It is
// the measured twin of the internal/server soak test: the test asserts the
// robustness contract, this reports what the contract costs.
func ServeSoak(opt ServeSoakOptions) (ServeSoakResult, error) {
	opt.defaults()
	res := ServeSoakResult{Tenants: opt.Tenants, Evolves: opt.Tenants * opt.EvolvesPerTenant}

	sopts := server.Options{QueueDepth: opt.QueueDepth}
	if opt.Dir != "" {
		st, err := store.Open(opt.Dir)
		if err != nil {
			return res, fmt.Errorf("opening store: %w", err)
		}
		sopts.Store = st
		sopts.WriteBehind = true
		sopts.PersistRetries = 2
		sopts.PersistBackoff = time.Millisecond
	}
	srv := server.New(sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	defer hs.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < opt.Tenants; i++ {
		body, _ := json.Marshal(map[string]any{
			"workload": map[string]any{"kind": "chain", "prefix": fmt.Sprintf("Tn%dx", i), "n": opt.ChainN},
		})
		resp, err := client.Post(fmt.Sprintf("%s/v1/tenants/tenant%d", base, i), "application/json", bytes.NewReader(body))
		if err != nil {
			return res, fmt.Errorf("registering tenant%d: %w", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return res, fmt.Errorf("registering tenant%d: status %d", i, resp.StatusCode)
		}
	}

	var deactivate func()
	if opt.Faults {
		deactivate = faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteServerAdmit, Kind: faultinject.KindError, Nth: 5, Every: 9},
			{Site: faultinject.SiteServerHandler, Kind: faultinject.KindPanic, Nth: 4, Every: 11},
			{Site: faultinject.SiteSessionPersist, Kind: faultinject.KindError, Nth: 3, Every: 7},
			{Site: faultinject.SiteStoreSave, Kind: faultinject.KindCorrupt, Nth: 6, Every: 13},
		}})
	}

	var (
		wg, readWg  sync.WaitGroup
		committed   atomic.Int64
		shed        atomic.Int64
		failed      atomic.Int64
		reads       atomic.Int64
		staleReads  atomic.Int64
		readErrors  atomic.Int64
		stopReaders = make(chan struct{})
		latMu       sync.Mutex
		latencies   []time.Duration
	)

	start := time.Now()
	for i := 0; i < opt.Tenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		prefix := fmt.Sprintf("Tn%dx", i)

		for r := 0; r < opt.ReadersPerTenant; r++ {
			readWg.Add(1)
			go func() {
				defer readWg.Done()
				var local []time.Duration
				for {
					select {
					case <-stopReaders:
						latMu.Lock()
						latencies = append(latencies, local...)
						latMu.Unlock()
						return
					default:
					}
					t0 := time.Now()
					resp, err := client.Get(base + "/v1/tenants/" + name + "/views")
					if err != nil {
						readErrors.Add(1)
						continue
					}
					var st server.TenantStatus
					_ = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					local = append(local, time.Since(t0))
					reads.Add(1)
					if resp.StatusCode != http.StatusOK {
						readErrors.Add(1)
					} else if st.Stale {
						staleReads.Add(1)
					}
				}
			}()
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < opt.EvolvesPerTenant; e++ {
				body, _ := json.Marshal(map[string]any{
					"op": "addEntity", "name": fmt.Sprintf("%sSoak%d", prefix, e),
					"parent":    prefix + "Entity1",
					"timeoutMs": 15000,
				})
				resp, err := client.Post(base+"/v1/tenants/"+name+"/evolve", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					committed.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}

	wg.Wait()
	res.Wall = time.Since(start)
	close(stopReaders)
	readWg.Wait()
	if deactivate != nil {
		res.FaultsFired = faultinject.Fired()
		deactivate()
	}

	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return res, fmt.Errorf("drain: %w", err)
	}
	res.DrainMs = float64(time.Since(drainStart).Microseconds()) / 1000

	res.Committed = committed.Load()
	res.Shed = shed.Load()
	res.Failed = failed.Load()
	res.Reads = reads.Load()
	res.StaleReads = staleReads.Load()
	res.ReadErrors = readErrors.Load()
	res.WallMs = float64(res.Wall.Microseconds()) / 1000
	if secs := res.Wall.Seconds(); secs > 0 {
		res.ThroughputPS = float64(res.Committed) / secs
	}
	if attempts := res.Committed + res.Shed + res.Failed; attempts > 0 {
		res.ShedRate = float64(res.Shed) / float64(attempts)
	}
	if res.Reads > 0 {
		res.StaleRate = float64(res.StaleReads) / float64(res.Reads)
	}
	res.ReadP50Us, res.ReadP99Us = percentiles(latencies)
	return res, nil
}
