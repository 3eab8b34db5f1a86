package exec_test

import (
	"context"
	"errors"
	"testing"

	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// TestScanFaultMidStream arms the exec.scan fault site to fail the Nth
// scan batch and verifies the failure contract: the iterator surfaces a
// typed *exec.OpError wrapping the injected error, the error is sticky,
// every operator releases cleanly, and the store underneath is byte-for-
// byte intact afterwards.
func TestScanFaultMidStream(t *testing.T) {
	m := workload.Chain(4)
	v, _, ss := compileWL(t, m, 19)
	ring := exec.RingFromState(ss, 2)
	wantSnap, err := ring.Snapshot()
	if err != nil {
		t.Fatalf("snapshot before fault: %v", err)
	}

	// The fault must land inside the stream, so read the view with the most
	// entities (ties broken by name) rather than whichever comes first in
	// map order, which is sometimes too short for the third batch.
	ty, most := "", -1
	for qt := range v.Query {
		ents, err := difftest.QueryType(m, v, ss, qt)
		if err != nil {
			t.Fatalf("reference QueryType(%s): %v", qt, err)
		}
		if len(ents) > most || (len(ents) == most && qt < ty) {
			ty, most = qt, len(ents)
		}
	}

	for _, nth := range []int64{1, 2, 3} {
		deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteExecScan, Kind: faultinject.KindError, Nth: nth},
		}})

		env := &exec.Env{Catalog: m.Catalog(), Store: ring}
		it, err := exec.OpenView(context.Background(), env, v.Query[ty], exec.Strict, exec.Options{BatchSize: 1})
		if err != nil {
			deactivate()
			t.Fatalf("open (nth=%d): %v", nth, err)
		}
		var streamErr error
		for {
			_, ok, err := it.Next()
			if err != nil {
				streamErr = err
				break
			}
			if !ok {
				break
			}
		}
		if streamErr == nil {
			deactivate()
			t.Fatalf("nth=%d: stream finished without surfacing the injected fault", nth)
		}
		var oe *exec.OpError
		if !errors.As(streamErr, &oe) {
			deactivate()
			t.Fatalf("nth=%d: fault surfaced as %T (%v), want *exec.OpError", nth, streamErr, streamErr)
		}
		if oe.Op != "scan" || oe.Target == "" {
			deactivate()
			t.Fatalf("nth=%d: OpError = {Op:%q Target:%q}, want a scan of a named table", nth, oe.Op, oe.Target)
		}
		var ie *faultinject.InjectedError
		if !errors.As(streamErr, &ie) {
			deactivate()
			t.Fatalf("nth=%d: OpError does not wrap the injected error: %v", nth, streamErr)
		}
		// Sticky and closeable.
		if _, ok, err2 := it.Next(); ok || err2 == nil {
			deactivate()
			t.Fatalf("nth=%d: Next after fault = (ok=%v, err=%v), want the sticky error", nth, ok, err2)
		}
		if err := it.Close(); err != nil {
			deactivate()
			t.Fatalf("nth=%d: close after fault: %v", nth, err)
		}
		if fired := faultinject.Fired(); fired == 0 {
			deactivate()
			t.Fatalf("nth=%d: fault plan never fired", nth)
		}
		deactivate()

		// The store survived untouched: same tables, same rows.
		gotSnap, err := ring.Snapshot()
		if err != nil {
			t.Fatalf("snapshot after fault: %v", err)
		}
		if d := state.DiffStore(wantSnap, gotSnap); d != "" {
			t.Fatalf("nth=%d: faulted scan corrupted the store:\n%s", nth, d)
		}
	}
}

// TestScanFaultEveryDoesNotWedgeClose arms a fault on every scan batch
// and verifies a whole-view stream still opens and releases cleanly.
func TestScanFaultEveryDoesNotWedgeClose(t *testing.T) {
	m := workload.Chain(3)
	v, _, ss := compileWL(t, m, 23)
	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteExecScan, Kind: faultinject.KindError, Nth: 1, Every: 1},
	}})
	defer deactivate()

	env := &exec.Env{Catalog: m.Catalog(), Store: exec.RingFromState(ss, 2)}
	for ty, view := range v.Query {
		it, err := exec.OpenView(context.Background(), env, view, exec.Strict, exec.Options{BatchSize: 1})
		if err != nil {
			t.Fatalf("open %s: %v", ty, err)
		}
		_, _, err = it.Next()
		if err == nil {
			// Views over client-only scans have no table scan to fault.
			_ = it.Close()
			continue
		}
		var oe *exec.OpError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: first pull returned %T, want *exec.OpError", ty, err)
		}
		if cerr := it.Close(); cerr != nil {
			t.Fatalf("%s: close after every-batch faults: %v", ty, cerr)
		}
	}
}
