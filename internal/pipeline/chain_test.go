package pipeline

import (
	"context"
	"errors"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/store"
	"github.com/ormkit/incmap/internal/workload"
)

func customerOp() core.SMO {
	return core.AddEntityTPC("Customer", "Person",
		[]edm.Attribute{
			{Name: "Score", Type: cond.KindInt, Nullable: true},
			{Name: "Addr", Type: cond.KindString, Nullable: true},
		},
		"Client", map[string]string{"Id": "Cid", "Name": "Name", "Score": "Score", "Addr": "Addr"})
}

// chainSession opens a session at the paper's initial mapping: in memory,
// or through NewSessionCompile over a fresh store, which persists the
// opening generation so every chain entry has a record.
func chainSession(t *testing.T, backed bool) (*Session, *store.Store) {
	t.Helper()
	if !backed {
		return baseSession(t, Options{}), nil
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSessionCompile(context.Background(), workload.PaperInitial(), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// checkAddressed pins the generation identity: on a store-backed session
// each generation's FP is the store fingerprint of its mapping and names a
// loadable record; without a store FP is empty.
func checkAddressed(t *testing.T, s *Session, st *store.Store, gens ...Generation) {
	t.Helper()
	for _, g := range gens {
		if st == nil {
			if g.FP != "" {
				t.Fatalf("generation %d of a storeless session has FP %q", g.Seq, g.FP)
			}
			continue
		}
		fp, err := store.Fingerprint(g.M, s.opts.fingerprintExtras()...)
		if err != nil {
			t.Fatal(err)
		}
		if g.FP != fp {
			t.Fatalf("generation %d: FP %q, want its store fingerprint %q", g.Seq, g.FP, fp)
		}
		if _, _, err := st.LoadGeneration(g.FP); err != nil {
			t.Fatalf("generation %d: no loadable record under its FP: %v", g.Seq, err)
		}
	}
}

func TestVersionChainGrowsAndTrims(t *testing.T) {
	s := baseSession(t, Options{KeepGenerations: 2})
	ctx := context.Background()

	if got := s.Generations(); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("fresh chain = %+v, want one entry at seq 1", got)
	}
	if _, _, err := s.Evolve(ctx, employeeOp()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Evolve(ctx, customerOp()); err != nil {
		t.Fatal(err)
	}
	chain := s.Generations()
	if len(chain) != 2 {
		t.Fatalf("chain depth = %d, want trim to KeepGenerations=2", len(chain))
	}
	if chain[0].Seq != 2 || chain[1].Seq != 3 {
		t.Fatalf("chain seqs = [%d %d], want [2 3]", chain[0].Seq, chain[1].Seq)
	}
	head := s.Head()
	m, v := s.Generation()
	if head.M != m || head.V != v {
		t.Fatal("Head disagrees with Generation")
	}
	if g, ok := s.GenerationAt(2); !ok || g.M != chain[0].M {
		t.Fatalf("GenerationAt(2) = %+v, %t", g, ok)
	}
	if _, ok := s.GenerationAt(1); ok {
		t.Fatal("trimmed generation still addressable")
	}
}

func TestProposePromote(t *testing.T) {
	s := baseSession(t, Options{})
	ctx := context.Background()
	m0, v0 := s.Generation()

	pg, err := s.Propose(ctx, employeeOp())
	if err != nil {
		t.Fatal(err)
	}
	if pg.Seq != 0 {
		t.Fatalf("pending Seq = %d, want 0 until promotion", pg.Seq)
	}
	if m, v := s.Generation(); m != m0 || v != v0 {
		t.Fatal("Propose moved the served generation")
	}
	if _, ok := s.Pending(); !ok {
		t.Fatal("Pending lost the proposal")
	}

	// Direct evolves and second proposals are rejected while staged.
	if _, _, err := s.Evolve(ctx, customerOp()); !errors.Is(err, ErrPendingGeneration) {
		t.Fatalf("Evolve during rollout = %v, want ErrPendingGeneration", err)
	}
	if _, err := s.Propose(ctx, customerOp()); !errors.Is(err, ErrPendingGeneration) {
		t.Fatalf("second Propose = %v, want ErrPendingGeneration", err)
	}

	head, err := s.PromotePending()
	if err != nil {
		t.Fatal(err)
	}
	if head.Seq != 2 || head.M != pg.M || head.V != pg.V {
		t.Fatalf("promoted head = %+v, want the staged generation at seq 2", head)
	}
	if _, ok := s.Pending(); ok {
		t.Fatal("promotion left the proposal staged")
	}
	if st := s.Stats(); st.Proposals != 1 {
		t.Fatalf("Proposals = %d, want 1", st.Proposals)
	}
	// The session evolves normally again.
	if _, _, err := s.Evolve(ctx, customerOp()); err != nil {
		t.Fatal(err)
	}
}

func TestProposeDiscard(t *testing.T) {
	s := baseSession(t, Options{})
	ctx := context.Background()
	m0, v0 := s.Generation()

	if _, err := s.Propose(ctx, employeeOp()); err != nil {
		t.Fatal(err)
	}
	if err := s.DiscardPending(); err != nil {
		t.Fatal(err)
	}
	if err := s.DiscardPending(); !errors.Is(err, ErrNoPendingGeneration) {
		t.Fatalf("double discard = %v, want ErrNoPendingGeneration", err)
	}
	if _, err := s.PromotePending(); !errors.Is(err, ErrNoPendingGeneration) {
		t.Fatalf("promote after discard = %v, want ErrNoPendingGeneration", err)
	}
	if m, v := s.Generation(); m != m0 || v != v0 {
		t.Fatal("discard disturbed the served generation")
	}
	if _, _, err := s.Evolve(ctx, employeeOp()); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackRestoresVerbatim: a rollback re-commits the previous
// generation's exact mapping and view pointers, and its fingerprint, under
// a fresh monotone Seq — in memory and on a store-backed session.
func TestRollbackRestoresVerbatim(t *testing.T) {
	for _, backed := range []bool{false, true} {
		name := "memory"
		if backed {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			s, st := chainSession(t, backed)
			ctx := context.Background()
			g0 := s.Head()

			m1, v1, err := s.Evolve(ctx, employeeOp())
			if err != nil {
				t.Fatal(err)
			}
			g1 := s.Head()
			checkAddressed(t, s, st, s.Generations()...)
			head, err := s.Rollback()
			if err != nil {
				t.Fatal(err)
			}
			if head.M != g0.M || head.V != g0.V || head.FP != g0.FP {
				t.Fatal("rollback did not restore the prior generation verbatim")
			}
			if head.Seq != 3 {
				t.Fatalf("rollback Seq = %d, want monotone 3", head.Seq)
			}
			checkAddressed(t, s, st, s.Generations()...)
			// Rolling back again undoes the rollback.
			head, err = s.Rollback()
			if err != nil {
				t.Fatal(err)
			}
			if head.M != m1 || head.V != v1 || head.FP != g1.FP || head.Seq != 4 {
				t.Fatalf("second rollback = seq %d, want the evolved generation back at seq 4", head.Seq)
			}
			checkAddressed(t, s, st, s.Generations()...)
			if st := s.Stats(); st.Rollbacks != 2 {
				t.Fatalf("Rollbacks = %d, want 2", st.Rollbacks)
			}
		})
	}
}

func TestRollbackNeedsHistory(t *testing.T) {
	s := baseSession(t, Options{KeepGenerations: 1})
	if _, err := s.Rollback(); !errors.Is(err, ErrNoPreviousGeneration) {
		t.Fatalf("rollback at depth 1 = %v, want ErrNoPreviousGeneration", err)
	}
	if _, _, err := s.Evolve(context.Background(), employeeOp()); err != nil {
		t.Fatal(err)
	}
	// KeepGenerations=1 trims the predecessor away immediately.
	if _, err := s.Rollback(); !errors.Is(err, ErrNoPreviousGeneration) {
		t.Fatalf("rollback with K=1 = %v, want ErrNoPreviousGeneration", err)
	}
}

// TestProposePersistsForResume: a staged generation lands in the store
// under its content address, and a second session can re-stage it without
// recompiling — the crash-resume path of the rollout engine. Promotion on
// either session commits the proposal's address unchanged.
func TestProposePersistsForResume(t *testing.T) {
	s, st := chainSession(t, true)
	pg, err := s.Propose(context.Background(), employeeOp())
	if err != nil {
		t.Fatal(err)
	}
	if pg.FP == "" {
		t.Fatal("store-backed proposal should carry a fingerprint")
	}
	checkAddressed(t, s, st, pg)

	lm, lv, err := st.LoadGeneration(pg.FP)
	if err != nil {
		t.Fatalf("reloading proposal: %v", err)
	}
	s2 := baseSession(t, Options{Store: st})
	rg, err := s2.ResumePending(pg.FP, lm, lv)
	if err != nil {
		t.Fatal(err)
	}
	if rg.FP != pg.FP {
		t.Fatalf("resumed fingerprint %s, want %s", rg.FP, pg.FP)
	}
	if p, ok := s2.Pending(); !ok {
		t.Fatal("resume did not stage the proposal")
	} else {
		checkAddressed(t, s2, st, p)
	}
	for _, sess := range []*Session{s, s2} {
		head, err := sess.PromotePending()
		if err != nil {
			t.Fatal(err)
		}
		if head.FP != pg.FP {
			t.Fatal("promoted generation lost the proposal's content address")
		}
	}
	checkAddressed(t, s, st, s.Generations()...)
	checkAddressed(t, s2, st, s2.Head())
}
