package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/store"
	"github.com/ormkit/incmap/internal/workload"
)

func baseSession(t *testing.T, opts Options) *Session {
	t.Helper()
	m := workload.PaperInitial()
	v, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(m, v, opts)
}

func employeeOp() core.SMO {
	return core.AddEntityTPT("Employee", "Person",
		[]edm.Attribute{{Name: "Department", Type: cond.KindString, Nullable: true}},
		"Emp", map[string]string{"Id": "Id", "Department": "Dept"})
}

// loadBack materializes a client state through a generation and loads it
// back, so two generations can be compared observationally via state.Diff.
func loadBack(t *testing.T, m *frag.Mapping, v *frag.Views, cs *state.ClientState) *state.ClientState {
	t.Helper()
	ss, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := orm.Load(m, v, ss)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func employeeState() *state.ClientState {
	cs := state.NewClientState()
	cs.Insert("Persons", &state.Entity{Type: "Person", Attrs: state.Row{
		"Id": cond.Int(1), "Name": cond.String("ann")}})
	cs.Insert("Persons", &state.Entity{Type: "Employee", Attrs: state.Row{
		"Id": cond.Int(2), "Name": cond.String("bob"), "Department": cond.String("hw")}})
	return cs
}

func TestEvolveIncrementalWins(t *testing.T) {
	s := baseSession(t, Options{})
	m, v, err := s.Evolve(context.Background(), employeeOp())
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Incremental != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want incremental win", st)
	}
	if err := orm.Roundtrip(m, v, employeeState()); err != nil {
		t.Fatal(err)
	}
	gm, gv := s.Generation()
	if gm != m || gv != v {
		t.Fatal("session did not commit the evolved generation")
	}
}

// TestEvolveFaultPanicFallsBackToFullCompile is the acceptance check of
// the fallback ladder: with a panic injected into the first containment
// check of the incremental attempt, Evolve must complete via full-compile
// fallback with Stats.Fallbacks == 1 and a roundtrip-valid result
// observationally identical (state.Diff) to the no-fault run.
func TestEvolveFaultPanicFallsBackToFullCompile(t *testing.T) {
	// No-fault run first, as the reference.
	ref := baseSession(t, Options{})
	rm, rv, err := ref.Evolve(context.Background(), employeeOp())
	if err != nil {
		t.Fatal(err)
	}

	deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteContainment, Kind: faultinject.KindPanic, Nth: 1},
	}})
	defer deactivate()
	s := baseSession(t, Options{})
	m, v, err := s.Evolve(context.Background(), employeeOp())
	if err != nil {
		t.Fatalf("Evolve did not survive the injected panic: %v", err)
	}
	st := s.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("Stats.Fallbacks = %d, want 1 (stats %+v)", st.Fallbacks, st)
	}
	if st.PanicsRecovered == 0 {
		t.Fatalf("Stats.PanicsRecovered = 0, want >= 1")
	}
	if faultinject.Fired() != 1 {
		t.Fatalf("injected faults fired = %d, want 1", faultinject.Fired())
	}

	cs := employeeState()
	if err := orm.Roundtrip(m, v, cs); err != nil {
		t.Fatalf("fallback result does not roundtrip: %v", err)
	}
	if d := state.Diff(loadBack(t, rm, rv, cs), loadBack(t, m, v, cs)); d != "" {
		t.Fatalf("fallback generation differs from no-fault run:\n%s", d)
	}
}

func TestEvolveBudgetExhaustionFallsBack(t *testing.T) {
	s := baseSession(t, Options{
		Incremental: core.Options{Budget: fault.Budget{MaxWallTime: time.Nanosecond}},
	})
	m, v, err := s.Evolve(context.Background(), employeeOp())
	if err != nil {
		t.Fatalf("Evolve did not survive budget exhaustion: %v", err)
	}
	if st := s.Stats(); st.Fallbacks != 1 || st.Incremental != 0 {
		t.Fatalf("stats = %+v, want one fallback win", st)
	}
	if err := orm.Roundtrip(m, v, employeeState()); err != nil {
		t.Fatal(err)
	}
}

// unsupportedOp is an SMO the incremental compiler has no applier for.
type unsupportedOp struct{ evolve func(m *frag.Mapping) error }

func (u unsupportedOp) Describe() string { return "unsupported test op" }

// evolvableOp additionally implements FullEvolver.
type evolvableOp struct{ unsupportedOp }

func (e evolvableOp) EvolveMapping(m *frag.Mapping) error { return e.evolve(m) }

func TestEvolveUnsupportedSMOFallsBackViaFullEvolver(t *testing.T) {
	s := baseSession(t, Options{})
	op := evolvableOp{unsupportedOp{evolve: func(m *frag.Mapping) error {
		// Add a whole new mapped entity set in one step — a change outside
		// the executable SMO set; only full compilation can validate it.
		if err := m.Client.AddType(edm.EntityType{
			Name: "Note",
			Attrs: []edm.Attribute{
				{Name: "Id", Type: cond.KindInt},
				{Name: "Text", Type: cond.KindString, Nullable: true},
			},
			Key: []string{"Id"},
		}); err != nil {
			return err
		}
		if err := m.Client.AddSet(edm.EntitySet{Name: "Notes", Type: "Note"}); err != nil {
			return err
		}
		if err := m.Store.AddTable(rel.Table{
			Name: "TNote",
			Cols: []rel.Column{
				{Name: "Id", Type: cond.KindInt},
				{Name: "Text", Type: cond.KindString, Nullable: true},
			},
			Key: []string{"Id"},
		}); err != nil {
			return err
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         "f_Note",
			Set:        "Notes",
			ClientCond: cond.TypeIs{Type: "Note"},
			Attrs:      []string{"Id", "Text"},
			Table:      "TNote",
			StoreCond:  cond.True{},
			ColOf:      map[string]string{"Id": "Id", "Text": "Text"},
		})
		return nil
	}}}
	m, v, err := s.Evolve(context.Background(), op)
	if err != nil {
		t.Fatalf("Evolve via FullEvolver failed: %v", err)
	}
	if st := s.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want one fallback", st)
	}
	if m.Client.Type("Note") == nil || v.Query["Note"] == nil || v.Update["TNote"] == nil {
		t.Fatal("fallback generation incomplete")
	}
}

func TestEvolveUnsupportedSMOWithoutEvolverFailsClean(t *testing.T) {
	s := baseSession(t, Options{})
	m0, v0 := s.Generation()
	_, _, err := s.Evolve(context.Background(), unsupportedOp{})
	if !errors.Is(err, core.ErrUnsupportedSMO) {
		t.Fatalf("err = %v, want ErrUnsupportedSMO", err)
	}
	if m, v := s.Generation(); m != m0 || v != v0 {
		t.Fatal("failed Evolve moved the generation")
	}
	if st := s.Stats(); st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want no fallback recorded", st)
	}
}

func TestEvolveCancelSkipsFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := baseSession(t, Options{})
	m0, v0 := s.Generation()
	_, _, err := s.Evolve(ctx, employeeOp())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want cancelled without fallback", st)
	}
	if m, v := s.Generation(); m != m0 || v != v0 {
		t.Fatal("cancelled Evolve moved the generation")
	}
}

func TestEvolveValidationErrorSkipsFallback(t *testing.T) {
	s := baseSession(t, Options{})
	if _, _, err := s.Evolve(context.Background(), employeeOp()); err != nil {
		t.Fatal(err)
	}
	// An association over a column another fragment already maps is a
	// genuine validation failure: full compilation would reject it too,
	// so the ladder must not retry.
	bad := &core.AddAssociationFK{
		Name: "Supports",
		E1:   "Person", Mult1: edm.Many,
		E2: "Employee", Mult2: edm.ZeroOne,
		Table:    "HR",
		KeyCols1: []string{"Id"},
		KeyCols2: []string{"Name"}, // mapped by phi1
	}
	m0, v0 := s.Generation()
	_, _, err := s.Evolve(context.Background(), bad)
	if err == nil {
		t.Fatal("invalid SMO accepted")
	}
	var be *fault.BudgetExceededError
	var pe *fault.PanicError
	if errors.As(err, &be) || errors.As(err, &pe) {
		t.Fatalf("validation failure misclassified: %v", err)
	}
	st := s.Stats()
	if st.Fallbacks != 0 {
		t.Fatalf("stats = %+v: fallback attempted on a validation failure", st)
	}
	if m, v := s.Generation(); m != m0 || v != v0 {
		t.Fatal("failed Evolve moved the generation")
	}
}

// TestFaultInjectionMatrix drives every fault kind through every compile
// path and asserts the invariant of the robustness issue: the session (or
// compiler) always ends in a valid generation or a clean typed error, and
// a failed evolution never moves the generation.
func TestFaultInjectionMatrix(t *testing.T) {
	kinds := []faultinject.Kind{faultinject.KindPanic, faultinject.KindDelay, faultinject.KindError}

	t.Run("incremental", func(t *testing.T) {
		for _, kind := range kinds {
			t.Run(kind.String(), func(t *testing.T) {
				deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
					{Site: faultinject.SiteContainment, Kind: kind, Nth: 1, Delay: time.Millisecond},
				}})
				defer deactivate()
				s := baseSession(t, Options{})
				m0, v0 := s.Generation()
				m, v, err := s.Evolve(context.Background(), employeeOp())
				switch kind {
				case faultinject.KindPanic:
					// Recovered, then resolved by the fallback rung.
					if err != nil {
						t.Fatalf("panic not absorbed by fallback: %v", err)
					}
					if s.Stats().Fallbacks != 1 {
						t.Fatalf("stats = %+v", s.Stats())
					}
				case faultinject.KindDelay:
					if err != nil {
						t.Fatalf("delay broke the compile: %v", err)
					}
					if s.Stats().Incremental != 1 {
						t.Fatalf("stats = %+v", s.Stats())
					}
				case faultinject.KindError:
					// A spurious non-validation error is surfaced typed; the
					// generation stays put.
					var ie *faultinject.InjectedError
					if !errors.As(err, &ie) {
						t.Fatalf("err = %v, want *InjectedError", err)
					}
					if m, v := s.Generation(); m != m0 || v != v0 {
						t.Fatal("failed Evolve moved the generation")
					}
					return
				}
				if err := orm.Roundtrip(m, v, employeeState()); err != nil {
					t.Fatalf("surviving generation invalid: %v", err)
				}
			})
		}
	})

	t.Run("full", func(t *testing.T) {
		for _, kind := range kinds {
			t.Run(kind.String(), func(t *testing.T) {
				deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
					{Site: faultinject.SiteWorker, Kind: kind, Nth: 2, Delay: time.Millisecond},
				}})
				defer deactivate()
				c := compiler.New()
				v, err := c.Compile(workload.PaperFull())
				switch kind {
				case faultinject.KindPanic:
					var pe *fault.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("err = %v, want *fault.PanicError", err)
					}
				case faultinject.KindError:
					var ie *faultinject.InjectedError
					if !errors.As(err, &ie) {
						t.Fatalf("err = %v, want *InjectedError", err)
					}
				case faultinject.KindDelay:
					if err != nil {
						t.Fatalf("delay broke the compile: %v", err)
					}
					if err := orm.Roundtrip(workload.PaperFull(), v, state.NewClientState()); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	})

	t.Run("parallel-span", func(t *testing.T) {
		m := workload.HubRim(workload.HubRimOptions{N: 2, M: 2, TPH: true})
		for _, kind := range kinds {
			t.Run(kind.String(), func(t *testing.T) {
				deactivate := faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
					{Site: faultinject.SiteWorker, Kind: kind, Nth: 3, Delay: time.Millisecond},
				}})
				defer deactivate()
				c := compiler.New()
				c.Opts.Parallelism = 4
				_, err := c.Compile(m)
				switch kind {
				case faultinject.KindPanic:
					var pe *fault.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("err = %v, want *fault.PanicError", err)
					}
					if c.Stats.PanicsRecovered == 0 {
						t.Fatal("panic not counted")
					}
				case faultinject.KindError:
					var ie *faultinject.InjectedError
					if !errors.As(err, &ie) {
						t.Fatalf("err = %v, want *InjectedError", err)
					}
				case faultinject.KindDelay:
					if err != nil {
						t.Fatalf("delay broke the parallel compile: %v", err)
					}
				}
			})
		}
	})
}

// TestSoakCancelEvolve cancels Session.Evolve at 100 staggered points
// under -race and checks the session never commits a cancelled evolution
// and remains usable afterwards.
func TestSoakCancelEvolve(t *testing.T) {
	s := baseSession(t, Options{})
	m0, v0 := s.Generation()
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*2*time.Microsecond)
		_, _, err := s.Evolve(ctx, employeeOp())
		cancel()
		if err == nil {
			// Slow timer: the evolution won. Reset to the base generation.
			s = NewSession(m0, v0, Options{})
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
		if m, v := s.Generation(); m != m0 || v != v0 {
			t.Fatalf("iteration %d: cancelled Evolve moved the generation", i)
		}
	}
	// The surviving generation still evolves and roundtrips.
	m, v, err := s.Evolve(context.Background(), employeeOp())
	if err != nil {
		t.Fatal(err)
	}
	if err := orm.Roundtrip(m, v, employeeState()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionWarmStart drives the full persistence loop: a cold session
// snapshots its opening compile, a second session over the same directory
// warm-starts from it, and both generations are observationally identical.
func TestSessionWarmStart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	model := workload.PaperInitial()

	cold, err := NewSessionCompile(context.Background(), model, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if cs := cold.Stats(); cs.WarmStarts != 0 || cs.Snapshots != 1 {
		t.Fatalf("cold open: %+v", cs)
	}

	// "Second process": a fresh store handle over the same directory, a
	// fresh mapping value (same content), a fresh SatCache.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if ws := warm.Stats(); ws.WarmStarts != 1 {
		t.Fatalf("second open did not warm start: %+v", ws)
	}
	if st2.Stats().Hits == 0 {
		t.Fatal("warm start hit nothing in the store")
	}

	// Correctness drift check: both generations must roundtrip the same
	// client state identically.
	cm, cv := cold.Generation()
	wm, wv := warm.Generation()
	cs := workload.PaperClientState()
	if d := state.Diff(loadBack(t, cm, cv, cs), loadBack(t, wm, wv, cs)); d != "" {
		t.Fatalf("warm generation drifts from cold: %s", d)
	}

	// Evolve on the warm session commits and snapshots the new generation.
	if _, _, err := warm.Evolve(context.Background(), employeeOp()); err != nil {
		t.Fatal(err)
	}
	if ws := warm.Stats(); ws.Snapshots == 0 {
		t.Fatalf("evolve did not snapshot: %+v", ws)
	}

	// A third open at the evolved fingerprint warm-starts at the evolved
	// generation.
	em, _ := warm.Generation()
	third, err := NewSessionCompile(context.Background(), em, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if ts := third.Stats(); ts.WarmStarts != 1 {
		t.Fatalf("evolved generation not restorable: %+v", ts)
	}
}

// TestOpenSessionKeepsStoredAddress saves a generation under an address
// that is not its mapping's fingerprint and opens a session there: the
// head carries the stored address, so the loaded mapping was not
// fingerprinted again, and the open counts as a warm start.
func TestOpenSessionKeepsStoredAddress(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := workload.PaperInitial()
	v, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "00112233445566778899aabbccddeeff"
	if real, _ := store.Fingerprint(m); real == fp {
		t.Fatal("test address collides with the real fingerprint")
	}
	if err := st.SaveGeneration(fp, m, v); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(fp, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if head := s.Head(); head.FP != fp || head.Seq != 1 {
		t.Fatalf("opened head is %q at seq %d, want %q at seq 1", head.FP, head.Seq, fp)
	}
	if ws := s.Stats(); ws.WarmStarts != 1 {
		t.Fatalf("open did not count a warm start: %+v", ws)
	}
	if _, err := OpenSession("ffeeddccbbaa99887766554433221100", Options{Store: st}); err == nil {
		t.Fatal("opened a session at an address the store does not hold")
	}
	if _, err := OpenSession(fp, Options{}); err == nil {
		t.Fatal("opened a session without a store")
	}
}

// TestSessionWarmStartSatCache checks persisted solver state flows back:
// the warm session's shared SatCache reports persisted hits once its
// compiles consult verdicts the cold process solved.
func TestSessionWarmStartSatCache(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// Evolve once so the persisted cache covers the employee neighbourhood.
	if _, _, err := cold.Evolve(context.Background(), employeeOp()); err != nil {
		t.Fatal(err)
	}

	st2, _ := store.Open(dir)
	warm, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.Evolve(context.Background(), employeeOp()); err != nil {
		t.Fatal(err)
	}
	if warm.SatCache() == nil {
		t.Fatal("store-backed session has no shared SatCache")
	}
	stats := warm.SatCache().Stats()
	if stats.PersistedHits == 0 {
		t.Fatalf("warm Evolve consulted no persisted verdicts: %+v", stats)
	}
}

// TestSessionWriteBehind checks asynchronous snapshots land after Flush.
func TestSessionWriteBehind(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st, WriteBehind: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Evolve(context.Background(), employeeOp()); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if got := s.Stats().Snapshots; got != 2 {
		t.Fatalf("after Flush: %d snapshots, want 2 (open + evolve)", got)
	}
	em, _ := s.Generation()
	fp, err := store.Fingerprint(em, (&Options{}).fingerprintExtras()...)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasGeneration(fp) {
		t.Fatal("evolved generation not on disk after Flush")
	}
}

// TestSessionStoreCorruptionColdStarts checks a damaged store degrades to
// a cold compile with no error surfaced.
func TestSessionStoreCorruptionColdStarts(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	// Trash every record in the directory.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("ruin"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, _ := store.Open(dir)
	s, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st2})
	if err != nil {
		t.Fatalf("corrupt store failed the session open: %v", err)
	}
	if ws := s.Stats(); ws.WarmStarts != 0 || ws.Snapshots != 1 {
		t.Fatalf("corrupt store: %+v (want cold start + fresh snapshot)", ws)
	}
	// And the fresh snapshot repaired the store for the next process.
	st3, _ := store.Open(dir)
	again, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st3})
	if err != nil {
		t.Fatal(err)
	}
	if ws := again.Stats(); ws.WarmStarts != 1 {
		t.Fatalf("store not repaired by cold session's snapshot: %+v", ws)
	}
}
