//go:build soakgate

// The rollout acceptance gate, run by the rollout-soak CI job under -race:
//
//	go test -race -tags soakgate -run 'TestRolloutSoak|TestWatchBatches' ./internal/server/
//
// TestRolloutSoak drives concurrent rollouts, a fault storm and forced
// post-cutover rollbacks while readers hammer every data view;
// TestRolloutSoakKill SIGKILLs a daemon mid-backfill in a child process
// and resumes its rollout from the on-disk checkpoints.
package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/faultinject"
)

// soakRolloutBody is rolloutBody adding the subtype prefix+suffix with
// its own gap attribute, filled with the domain's zero value: the
// backfill rewrites the parent's rows, so a rollback must restore them.
func soakRolloutBody(prefix, suffix string, seed int) map[string]any {
	return rolloutBody(prefix, map[string]any{
		"smos": []map[string]any{{
			"op": "addEntity", "name": prefix + suffix, "parent": prefix + "Entity2",
			"attrs": []map[string]any{{"name": suffix + "Note", "type": "string", "nullable": true}},
		}},
		"strategies": map[string]any{"default": "default"},
		"seed":       seed,
	})
}

// TestRolloutSoak registers four seeded chain tenants and drives each
// through three rollout rounds while two readers per tenant rotate over
// its status, its data and its version=prev data:
//
//  1. a clean concurrent cutover, then a cross-version read and write;
//  2. a fault storm — every other gate evaluation fails and every backfill
//     batch fails through its retry ladder — in which every rollout must
//     roll back;
//  3. per tenant, a failed verify gate, which forces a rollback after
//     cutover.
//
// The verdicts: no read answers 5xx; no rows or cross-version data are
// lost; generations never move backwards (and a post-cutover rollback
// advances them); every rollback restores the fingerprint and the rows
// verbatim. Each round's gap attribute is filled with its zero value, so
// a backfill changes the rows of every seeded Entity2 and a rollback that
// kept the migrated rows would show.
func TestRolloutSoak(t *testing.T) {
	const tenants, readersPerTenant = 4, 2
	opts := Options{Store: testStore(t, t.TempDir())}
	soakTrace(t, &opts)
	srv, ts := testDaemon(t, opts)

	names := make([]string, tenants)
	prefixes := make([]string, tenants)
	rows0 := make([]int, tenants)
	gen := make([]int64, tenants) // latest observed generation
	for i := range names {
		names[i], prefixes[i] = fmt.Sprintf("rs%d", i), fmt.Sprintf("Rs%dx", i)
		registerChain(t, ts.URL, names[i], prefixes[i], 4)
		seedData(t, ts.URL, names[i], uint32(7+i))
		rows0[i] = getData(t, ts.URL, names[i], "").TotalRows
		gen[i] = tenantStatus(t, ts.URL, names[i]).Generation
	}

	var reads, read5xx atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	paths := []string{"", "/data", "/data?version=prev"}
	for _, name := range names {
		for r := 0; r < readersPerTenant; r++ {
			readers.Add(1)
			go func(name string, n int) {
				defer readers.Done()
				for ; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(ts.URL + "/v1/tenants/" + name + paths[n%len(paths)])
					if err != nil {
						continue
					}
					resp.Body.Close()
					reads.Add(1)
					if resp.StatusCode >= 500 {
						read5xx.Add(1)
					}
				}
			}(name, r)
		}
	}

	// Round 1: a clean rollout on every tenant at once.
	fp := make([]string, tenants)  // the fingerprint every later rollback must restore
	sum := make([]string, tenants) // the row checksum every later rollback must restore
	for i := range names {
		startRollout(t, ts.URL, names[i], soakRolloutBody(prefixes[i], "Extra1", 21+i))
	}
	for i, name := range names {
		if st := waitRollout(t, ts.URL, name); st.Phase != phaseDone {
			t.Errorf("clean rollout on %s ended %q (err %q)", name, st.Phase, st.Error)
			continue
		}
		if cur := getData(t, ts.URL, name, ""); cur.TotalRows < rows0[i] {
			t.Errorf("%s lost rows across cutover: %d -> %d", name, rows0[i], cur.TotalRows)
		}
		if prev := getData(t, ts.URL, name, "?version=prev"); len(prev.Entities) == 0 {
			t.Errorf("%s cross-version read returned no entity counts", name)
		}
		var wr dataResponse
		hr := doJSON(t, "POST", ts.URL+"/v1/tenants/"+name+"/data",
			map[string]any{"seed": 31 + i, "maxPerType": 3, "version": "prev"}, &wr)
		if hr.StatusCode != http.StatusOK || wr.TotalRows == 0 {
			t.Errorf("%s cross-version write: status %d, %d rows", name, hr.StatusCode, wr.TotalRows)
		}
		sum[i] = getData(t, ts.URL, name, "").Checksum
		st := tenantStatus(t, ts.URL, name)
		if st.Generation <= gen[i] {
			t.Errorf("%s generation did not advance across cutover: %d -> %d", name, gen[i], st.Generation)
		}
		gen[i], fp[i] = st.Generation, st.Fingerprint
	}

	// restored checks a rollback: fingerprint and rows as after round 1,
	// the generation counter never backwards — and, after a post-cutover
	// rollback (advanced), moved forwards.
	restored := func(i int, advanced bool) {
		name := names[i]
		st := tenantStatus(t, ts.URL, name)
		if fp[i] != "" && st.Fingerprint != fp[i] {
			t.Errorf("%s rollback restored fingerprint %s, want %s", name, st.Fingerprint, fp[i])
		}
		switch {
		case st.Generation < gen[i]:
			t.Errorf("%s generation went backwards: %d -> %d", name, gen[i], st.Generation)
		case advanced && st.Generation == gen[i]:
			t.Errorf("%s post-cutover rollback did not advance the generation counter", name)
		}
		gen[i] = st.Generation
		if sum[i] != "" && getData(t, ts.URL, name, "").Checksum != sum[i] {
			t.Errorf("%s rollback did not restore rows verbatim", name)
		}
	}

	// Round 2: the fault storm. A tenant whose canary gate passes meets a
	// backfill that fails every batch; either way it must roll back.
	func() {
		defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 1, Every: 2},
			{Site: faultinject.SiteBackfillBatch, Kind: faultinject.KindError, Nth: 1, Every: 1},
		}})()
		for i := range names {
			startRollout(t, ts.URL, names[i], soakRolloutBody(prefixes[i], "Extra2", 41+i))
		}
		for i, name := range names {
			if st := waitRollout(t, ts.URL, name); st.Phase != phaseRolledback {
				t.Errorf("fault-storm rollout on %s ended %q, want rolledback (err %q)", name, st.Phase, st.Error)
				continue
			}
			restored(i, false)
		}
	}()

	// Round 3: the third gate evaluation (canary, cutover, verify) fails,
	// so the engine must un-swap serving state it already cut over.
	for i, name := range names {
		var st RolloutStatus
		func() {
			defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
				{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 3},
			}})()
			startRollout(t, ts.URL, name, soakRolloutBody(prefixes[i], "Extra3", 61+i))
			st = waitRollout(t, ts.URL, name)
		}()
		if st.Phase != phaseRolledback {
			t.Errorf("post-cutover rollout on %s ended %q, want rolledback (err %q)", name, st.Phase, st.Error)
			continue
		}
		restored(i, true)
	}

	close(stop)
	readers.Wait()
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	t.Logf("%d reads during the rollouts, %d answered 5xx", reads.Load(), read5xx.Load())
	if reads.Load() == 0 {
		t.Error("the readers made no reads")
	}
	if n := read5xx.Load(); n > 0 {
		t.Errorf("%d reads answered 5xx", n)
	}
}

// rolloutChildDirEnv names the store directory of TestRolloutSoakKill's
// child process.
const rolloutChildDirEnv = "INCMAP_ROLLOUT_CHILD_DIR"

// TestRolloutSoakKill re-executes the test binary as a daemon that starts
// a slowed, checkpointed backfill, SIGKILLs it once two batches have
// committed, and boots a new daemon over the same store directory. The
// rollout must resume from the checkpoints, reuse at least one committed
// batch, finish every batch, and leave a tenant that serves version=prev
// reads and accepts an evolve.
func TestRolloutSoakKill(t *testing.T) {
	if os.Getenv(rolloutChildDirEnv) != "" {
		t.Skip("child-only environment")
	}
	dir := t.TempDir()
	cmd := osexec.Command(os.Args[0], "-test.run", "^TestRolloutSoakKillChild$")
	cmd.Env = append(os.Environ(), rolloutChildDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	batches, err := watchBatches(out, cmd.Process.Kill, 60*time.Second)
	_ = cmd.Wait() // reaps the killed child
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := testDaemon(t, Options{Store: testStore(t, dir)})
	if srv.Restored() == 0 {
		t.Fatal("the restarted daemon restored no tenants")
	}
	st := waitRollout(t, ts.URL, "kr")
	t.Logf("killed after %d batches; resumed rollout: phase %s, reused %d, %d/%d batches",
		batches, st.Phase, st.ReusedBatch, st.BatchesDone, st.TotalBatches)
	if st.Phase != phaseDone {
		t.Errorf("resumed rollout ended %q (err %q), want done", st.Phase, st.Error)
	}
	if !st.Resumed {
		t.Error("the rollout does not report itself resumed")
	}
	if st.ReusedBatch < 1 {
		t.Error("the resumed backfill reused no committed batch")
	}
	if st.BatchesDone != st.TotalBatches {
		t.Errorf("resumed backfill incomplete: %d/%d batches", st.BatchesDone, st.TotalBatches)
	}
	if prev := getData(t, ts.URL, "kr", "?version=prev"); len(prev.Entities) == 0 {
		t.Error("cross-version read after the resume returned no entity counts")
	}
	hr := doJSON(t, "POST", ts.URL+"/v1/tenants/kr/evolve",
		map[string]any{"op": "addEntity", "name": "KrxAfter", "parent": "KrxEntity1"}, nil)
	if hr.StatusCode != http.StatusOK {
		t.Errorf("evolve after the resume: status %d", hr.StatusCode)
	}
}

// TestRolloutSoakKillChild is the process TestRolloutSoakKill kills: a
// daemon over the directory in its environment, running one batch-per-row
// backfill with a pause between batches and printing "BATCH <n>" as each
// checkpoint commits.
func TestRolloutSoakKillChild(t *testing.T) {
	dir := os.Getenv(rolloutChildDirEnv)
	if dir == "" {
		t.Skip("parent-only")
	}
	_, ts := testDaemon(t, Options{Store: testStore(t, dir)})
	registerChain(t, ts.URL, "kr", "Krx", 4)
	seedData(t, ts.URL, "kr", 7)
	startRollout(t, ts.URL, "kr", rolloutBody("Krx", map[string]any{"batchRows": 1, "batchDelayMs": 80, "seed": 17}))
	last := -1
	for {
		var st RolloutStatus
		doJSON(t, "GET", ts.URL+"/v1/tenants/kr/rollout", nil, &st)
		if st.BatchesDone != last {
			last = st.BatchesDone
			fmt.Printf("BATCH %d\n", last)
		}
		switch st.Phase {
		case phaseDone, phaseRolledback, phaseFailed:
			// Too late for the kill: say so, and wait for it anyway.
			fmt.Printf("TERMINAL %s\n", st.Phase)
			select {}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// watchBatches reads the child's progress lines from out and kills the
// child once two backfill batches have committed, returning how many had.
// If the child finishes its rollout first, closes out, or is short of two
// batches when the deadline passes, watchBatches kills it and returns an
// error with the last batch count. A stalled backfill prints nothing, so
// the deadline runs on a timer, not on the next line.
func watchBatches(out io.Reader, kill func() error, deadline time.Duration) (int, error) {
	lines := make(chan string)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	batches := 0
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				kill()
				return batches, fmt.Errorf("child exited after %d backfill batches", batches)
			}
			if strings.HasPrefix(line, "TERMINAL ") {
				kill()
				return batches, fmt.Errorf("child's rollout ended (%s) after %d batches, before the kill", line, batches)
			}
			if _, err := fmt.Sscanf(line, "BATCH %d", &batches); err == nil && batches >= 2 {
				return batches, kill()
			}
		case <-timer.C:
			kill()
			return batches, fmt.Errorf("child committed %d backfill batches in %v, want 2", batches, deadline)
		}
	}
}

// TestWatchBatchesDeadline: a child that prints nothing is killed at the
// deadline instead of blocking the gate until the job times out.
func TestWatchBatchesDeadline(t *testing.T) {
	r, w := io.Pipe()
	killed := false
	start := time.Now()
	_, err := watchBatches(r, func() error { killed = true; return w.Close() }, 50*time.Millisecond)
	if err == nil || !killed {
		t.Fatalf("silent child: err %v, killed %v; want an error and a kill", err, killed)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("watcher returned after %v, past its 50ms deadline", d)
	}
}
