package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/store"
	"github.com/ormkit/incmap/internal/workload"
)

// faultChain is the chain size the commit-fault schedule runs on: its
// first four commits write deltas and the fifth outgrows its base.
const faultChain = 24

// chainAdd adds entity Fz<i> under one of the chain's types.
func chainAdd(i int) core.SMO {
	return modef.PlannedAddEntity(fmt.Sprintf("Fz%d", i), fmt.Sprintf("Entity%d", 1+(i*7)%faultChain),
		[]edm.Attribute{{Name: "X", Type: cond.KindString, Nullable: true}})
}

func encodePayload(t *testing.T, m *frag.Mapping, v *frag.Views) []byte {
	t.Helper()
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		t.Fatal(err)
	}
	return p.AppendTo(nil)
}

// recordState is what the test knows of the record file under one
// fingerprint after a commit's write: whether its write was torn, whether
// it is a full record, and a delta's base.
type recordState struct {
	intact, full bool
	base         string
}

// commitSchedule runs a store-backed session through an opening compile,
// six evolves (four deltas, a compaction, a delta), a rollback to the
// compacted base and one more evolve, with a fault of kind injected at the
// nth visit of faultinject.SiteStoreSave (none when n is 0). It then
// reopens the directory with a fresh handle and checks that every
// committed fingerprint loads byte-identical to what was committed or
// fails, and that every one whose records all landed loads. It returns
// the number of store writes and the number of delta and full records the
// commits wrote.
func commitSchedule(t *testing.T, n int64, kind faultinject.Kind) (visits, deltas, fulls int) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteStoreSave, Kind: kind, Nth: n},
		}})()
	}
	files := map[string]recordState{}
	want := map[string][]byte{}
	var order []string
	// committed accounts for one inline persist of g, whose base was
	// before: its generation write is the next store write and, unless that
	// write failed, the SatCache write follows.
	var s *Session
	committed := func(g Generation, before *store.Base) {
		visits++
		at := int64(visits)
		failed := at == n && kind == faultinject.KindError
		if !failed {
			visits++
			// A commit at its base's own fingerprint rewrites that full
			// record and keeps the base.
			f := recordState{intact: at != n, full: s.base != before || before != nil && before.FP == g.FP}
			if f.full {
				fulls++
			} else {
				f.base = before.FP
				deltas++
			}
			files[g.FP] = f
		}
		want[g.FP] = encodePayload(t, g.M, g.V)
		order = append(order, g.FP)
	}
	ctx := context.Background()
	if s, err = NewSessionCompile(ctx, workload.Chain(faultChain), Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	committed(s.Head(), nil)
	for i := 0; i < 7; i++ {
		if i == 6 {
			before := s.base
			g, err := s.Rollback()
			if err != nil {
				t.Fatal(err)
			}
			committed(g, before)
		}
		before := s.base
		if _, _, err := s.Evolve(ctx, chainAdd(i)); err != nil {
			t.Fatalf("evolve %d: %v", i, err)
		}
		committed(s.Head(), before)
	}

	landed := func(fp string) bool {
		f, ok := files[fp]
		if !ok || !f.intact {
			return false
		}
		if f.full {
			return true
		}
		b, ok := files[f.base]
		return ok && b.intact && b.full
	}
	fresh, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for fp, payload := range want {
		m, v, err := fresh.LoadGeneration(fp)
		if err != nil {
			if landed(fp) {
				t.Fatalf("%s: its records landed, but it does not load: %v", fp, err)
			}
			continue
		}
		if !bytes.Equal(encodePayload(t, m, v), payload) {
			t.Fatalf("%s loads another generation", fp)
		}
	}
	for i := len(order) - 1; ; i-- {
		if i < 0 {
			t.Fatal("no commit's records all landed")
		}
		if landed(order[i]) {
			break
		}
	}
	return visits, deltas, fulls
}

// TestCommitFaultAtAnyWriteRecovers injects a fault at each store write of
// a commit schedule in turn, once as a failed write and once as a torn one
// that reports success: after each, a fresh handle loads every committed
// generation as committed or fails it, loads every one whose records all
// landed, and loads no fingerprint as another generation.
func TestCommitFaultAtAnyWriteRecovers(t *testing.T) {
	visits, deltas, fulls := commitSchedule(t, 0, 0)
	// Full records: the opening compile, the compaction and the rollback
	// to the compacted base.
	if deltas != 6 || fulls != 3 {
		t.Fatalf("the schedule wrote %d deltas and %d full records, want 6 and 3", deltas, fulls)
	}
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindCorrupt} {
		for n := 1; n <= visits; n++ {
			t.Run(fmt.Sprintf("%v@%d", kind, n), func(t *testing.T) {
				commitSchedule(t, int64(n), kind)
			})
		}
	}
}

// TestWriteBehindDeltas commits a lineage write-behind, so persists race
// one another and the next commit; a delta is only written over a base
// whose write has returned. After Flush every committed generation loads
// as committed, and the commits after the opening one wrote deltas.
func TestWriteBehindDeltas(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := NewSessionCompile(ctx, workload.Chain(faultChain), Options{Store: st, WriteBehind: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	gens := []Generation{s.Head()}
	for i := 0; i < 8; i++ {
		if _, _, err := s.Evolve(ctx, chainAdd(i)); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, s.Head())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for _, g := range gens {
		m, v, err := fresh.LoadGeneration(g.FP)
		if err != nil {
			t.Fatalf("generation %d: %v", g.Seq, err)
		}
		if !bytes.Equal(encodePayload(t, m, v), encodePayload(t, g.M, g.V)) {
			t.Fatalf("generation %d loads another generation", g.Seq)
		}
		rec, err := os.ReadFile(filepath.Join(dir, "gen-"+g.FP+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(rec[:100], []byte(`"class":"delta"`)) {
			deltas++
		}
	}
	if deltas < 4 {
		t.Fatalf("%d of %d commits wrote deltas", deltas, len(gens)-1)
	}
}

// TestNewSessionAdoptsStoredBase opens sessions on a generation whose full
// record the store wrote: each takes that record as its base, so its first
// commit writes a delta, as a forked session of the evolve benchmark does.
func TestNewSessionAdoptsStoredBase(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := NewSessionCompile(ctx, workload.Chain(faultChain), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	bm, bv := base.Generation()
	for i := 0; i < 3; i++ {
		s := NewSession(bm, bv, Options{Store: st})
		if s.base == nil || s.base != base.base {
			t.Fatal("the forked session did not adopt the stored base")
		}
		if _, _, err := s.Evolve(ctx, chainAdd(i)); err != nil {
			t.Fatal(err)
		}
		if s.base != base.base {
			t.Fatal("the forked session's commit wrote a full record")
		}
		if !st.HasGeneration(s.Head().FP) {
			t.Fatal("the delta does not verify")
		}
	}
	// A session on a clone of the generation shares no object with the
	// record, and starts without a base.
	if s := NewSession(bm.Clone(), bv, Options{Store: st}); s.base != nil {
		t.Fatal("a session on another object of the same generation adopted the base")
	}
}
