package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/workload"
)

// gen is one generation of a test lineage and its address.
type gen struct {
	fp string
	m  *frag.Mapping
	v  *frag.Views
}

// lineage compiles Chain(size) and evolves it n times, each time adding an
// entity under another chain type. Every generation is frozen, as a
// session freezes it, so each one's entry records are built from its
// parent's.
func lineage(t testing.TB, size, n int) []gen {
	t.Helper()
	m, v := compiledPair(t, workload.Chain(size))
	out := []gen{frozen(t, m, v)}
	for i := 0; i < n; i++ {
		out = append(out, evolved(t, out[i].m, out[i].v, i, size))
	}
	return out
}

// frozen freezes (m, v) and addresses it.
func frozen(t testing.TB, m *frag.Mapping, v *frag.Views) gen {
	t.Helper()
	m.Freeze()
	v.Freeze()
	fp, err := Fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	return gen{fp, m, v}
}

// evolved returns the i-th generation of a Chain(size) lineage, evolved
// from (m, v) by adding an entity under one of the chain's types.
func evolved(t testing.TB, m *frag.Mapping, v *frag.Views, i, size int) gen {
	t.Helper()
	op := modef.PlannedAddEntity(fmt.Sprintf("Fz%d", i), fmt.Sprintf("Entity%d", 1+i%size),
		[]edm.Attribute{{Name: "X", Type: cond.KindString, Nullable: true}})
	nm, nv, err := core.NewIncremental().Apply(m, v, op)
	if err != nil {
		t.Fatalf("evolve %d: %v", i, err)
	}
	return frozen(t, nm, nv)
}

// payloadOf returns the generation payload of (m, v).
func payloadOf(t testing.TB, m *frag.Mapping, v *frag.Views) []byte {
	t.Helper()
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		t.Fatal(err)
	}
	return p.AppendTo(nil)
}

// classOf returns the class of the generation record under fp.
func classOf(t *testing.T, dir, fp string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, genFileName(fp)))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{classGeneration, classDelta} {
		if bytes.HasPrefix(data, newRecord(class, fp, 0)) {
			return class
		}
	}
	return ""
}

// checkLoads holds the generation a fresh handle on dir loads under fp to
// want's payload, byte for byte.
func checkLoads(t *testing.T, dir string, want gen) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, v, err := s.LoadGeneration(want.fp)
	if err != nil {
		t.Fatalf("load %s: %v", want.fp, err)
	}
	if !bytes.Equal(payloadOf(t, m, v), payloadOf(t, want.m, want.v)) {
		t.Fatalf("%s loads another generation", want.fp)
	}
}

// TestSaveCommitWritesDeltas commits a lineage over its first generation:
// each commit writes a delta a fraction of the base's size, and a fresh
// handle loads each one byte-identical to what was committed.
func TestSaveCommitWritesDeltas(t *testing.T) {
	gens := lineage(t, 60, 5)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, nil)
	if err != nil || base == nil {
		t.Fatalf("first commit: %v", err)
	}
	full := s.Stats().BytesWritten
	for _, g := range gens[1:] {
		before := s.Stats().BytesWritten
		nb, err := s.SaveCommit(g.fp, g.m, g.v, base)
		if err != nil {
			t.Fatal(err)
		}
		if nb != base {
			t.Fatalf("commit %s wrote a full record over a current base", g.fp)
		}
		if class := classOf(t, dir, g.fp); class != classDelta {
			t.Fatalf("commit %s wrote a %q record", g.fp, class)
		}
		if n := s.Stats().BytesWritten - before; n*maxDeltaShare > full {
			t.Fatalf("a delta of %d bytes over a %d-byte base", n, full)
		}
		if !s.HasGeneration(g.fp) {
			t.Fatalf("HasGeneration(%s) is false", g.fp)
		}
	}
	for _, g := range gens {
		checkLoads(t, dir, g)
	}
}

// TestSaveCommitWritesFullRecords covers the commits that write a full
// record and make it the base: the first, one whose delta outgrows its
// share of the base (compaction), one at the base's own fingerprint, and
// one over a base whose record this handle has since overwritten.
func TestSaveCommitWritesFullRecords(t *testing.T) {
	gens := lineage(t, 30, 1)
	// An unrelated generation, larger than the base: its delta is all new
	// entries.
	other := lineage(t, 60, 0)[0]
	pfp, pm, pv := other.fp, other.m, other.v
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, nil)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := s.SaveCommit(pfp, pm, pv, base)
	if err != nil {
		t.Fatal(err)
	}
	if compacted == base || compacted.FP != pfp || classOf(t, dir, pfp) != classGeneration {
		t.Fatal("an outgrown delta did not compact into a full record and base")
	}
	again, err := s.SaveCommit(pfp, pm, pv, compacted)
	if err != nil {
		t.Fatal(err)
	}
	if again != compacted || classOf(t, dir, pfp) != classGeneration {
		t.Fatal("a commit at its base's fingerprint did not rewrite its full record and keep the base")
	}
	// Another lineage's delta overwrites the first base's record: that base
	// is no longer current, so a commit over it writes a full record.
	b1, err := s.SaveCommit(gens[1].fp, gens[1].m, gens[1].v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, b1); err != nil {
		t.Fatal(err)
	}
	if classOf(t, dir, gens[0].fp) != classDelta {
		t.Fatal("the overwrite did not write a delta")
	}
	if err := os.Remove(filepath.Join(dir, genFileName(gens[1].fp))); err != nil {
		t.Fatal(err)
	}
	nb, err := s.SaveCommit(gens[1].fp, gens[1].m, gens[1].v, base)
	if err != nil {
		t.Fatal(err)
	}
	if nb == base || classOf(t, dir, gens[1].fp) != classGeneration {
		t.Fatal("a commit over an overwritten base wrote a delta")
	}
	checkLoads(t, dir, gens[0])
	checkLoads(t, dir, gens[1])
	checkLoads(t, dir, gen{pfp, pm, pv})
}

// TestBaseFor hands a session the full record of exactly its generation,
// written or loaded by this handle, and nothing else.
func TestBaseFor(t *testing.T) {
	gens := lineage(t, 30, 1)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := gens[0]
	if s.BaseFor(g.fp, g.m, g.v) != nil {
		t.Fatal("a base before any write")
	}
	if err := s.SaveGeneration(g.fp, g.m, g.v); err != nil {
		t.Fatal(err)
	}
	if b := s.BaseFor(g.fp, g.m, g.v); b == nil || b.FP != g.fp {
		t.Fatal("no base for the generation just written")
	}
	if s.BaseFor(g.fp, g.m.Clone(), g.v) != nil {
		t.Fatal("a base for another mapping object of the same fingerprint")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, v, err := s2.LoadGeneration(g.fp)
	if err != nil {
		t.Fatal(err)
	}
	b := s2.BaseFor(g.fp, m, v)
	if b == nil {
		t.Fatal("no base for the generation just loaded")
	}
	child := evolved(t, m, v, 0, 30)
	if _, err := s2.SaveCommit(child.fp, child.m, child.v, b); err != nil {
		t.Fatal(err)
	}
	if classOf(t, dir, child.fp) != classDelta {
		t.Fatal("a commit over a loaded base wrote a full record")
	}
	checkLoads(t, dir, child)
}

// TestDeltaLoadFailures checks that a delta loads only over the very
// record it was written against: a missing base, a rewritten one, or a
// base that is itself a delta fails the load.
func TestDeltaLoadFailures(t *testing.T) {
	gens := lineage(t, 30, 2)
	setup := func(t *testing.T) (*Store, string, *Base) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SaveCommit(gens[1].fp, gens[1].m, gens[1].v, base); err != nil {
			t.Fatal(err)
		}
		return s, dir, base
	}
	for _, tc := range []struct {
		name, want string
		damage     func(t *testing.T, s *Store, dir string, base *Base)
	}{
		{"missing base", "base", func(t *testing.T, s *Store, dir string, base *Base) {
			if err := os.Remove(filepath.Join(dir, genFileName(base.FP))); err != nil {
				t.Fatal(err)
			}
		}},
		{"rewritten base", "rewritten", func(t *testing.T, s *Store, dir string, base *Base) {
			// The same fingerprint, other views: a different record.
			if err := s.SaveGeneration(base.FP, gens[0].m, gens[2].v); err != nil {
				t.Fatal(err)
			}
		}},
		{"delta base", "not a full record", func(t *testing.T, s *Store, dir string, base *Base) {
			other, err := s.SaveCommit(gens[2].fp, gens[2].m, gens[2].v, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SaveCommit(base.FP, gens[0].m, gens[0].v, other); err != nil {
				t.Fatal(err)
			}
			if classOf(t, dir, base.FP) != classDelta {
				t.Fatal("the base was not overwritten by a delta")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, dir, base := setup(t)
			checkLoads(t, dir, gens[1])
			tc.damage(t, s, dir, base)
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if s2.HasGeneration(gens[1].fp) {
				t.Fatal("HasGeneration accepts the delta")
			}
			m, v, err := s2.LoadGeneration(gens[1].fp)
			if err == nil || m != nil || v != nil {
				t.Fatal("the delta loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestPruneKeepsReferencedRecords caps the store at two generations: a
// manifest keeps what it references until it is deleted, and a delta kept
// keeps its base, also for a handle that never adopted that base.
func TestPruneKeepsReferencedRecords(t *testing.T) {
	gens := lineage(t, 40, 5)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxGenerations = 2
	age := func(i int) {
		ts := time.Now().Add(time.Duration(i-100) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, genFileName(gens[i].fp)), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	base, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, nil)
	if err != nil {
		t.Fatal(err)
	}
	age(0)
	for i := 1; i <= 2; i++ {
		if _, err := s.SaveCommit(gens[i].fp, gens[i].m, gens[i].v, base); err != nil {
			t.Fatal(err)
		}
		age(i)
	}
	if err := s.SaveManifest("tenants", []byte(`{}`), gens[1].fp); err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= 5; i++ {
		if _, err := s.SaveCommit(gens[i].fp, gens[i].m, gens[i].v, base); err != nil {
			t.Fatal(err)
		}
		age(i)
	}
	want := []string{gens[0].fp, gens[1].fp, gens[4].fp, gens[5].fp}
	if got := s.Generations(); !sameSet(got, want) {
		t.Fatalf("kept %v, want the base, the referenced delta and the two newest: %v", got, want)
	}
	for _, i := range []int{1, 4, 5} {
		checkLoads(t, dir, gens[i])
	}
	if err := s.DeleteManifest("tenants"); err != nil {
		t.Fatal(err)
	}
	// A fresh handle adopted no base: the kept delta alone keeps its base.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.MaxGenerations = 2
	if err := s2.SaveGeneration(gens[3].fp, gens[3].m, gens[3].v); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Generations(), []string{gens[3].fp, gens[5].fp, gens[0].fp}; !sameSet(got, want) {
		t.Fatalf("after the manifest went, kept %v, want %v", got, want)
	}
}

// TestPruneKeepsAdoptedBase caps the store at two generations and fills
// it with newer full records that no delta names: the base a session of
// this handle adopted stays, so the next commit still writes a delta.
func TestPruneKeepsAdoptedBase(t *testing.T) {
	gens := lineage(t, 40, 4)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxGenerations = 2
	age := func(i int) {
		ts := time.Now().Add(time.Duration(i-100) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, genFileName(gens[i].fp)), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	base, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, nil)
	if err != nil {
		t.Fatal(err)
	}
	age(0)
	for i := 1; i <= 3; i++ {
		if err := s.SaveGeneration(gens[i].fp, gens[i].m, gens[i].v); err != nil {
			t.Fatal(err)
		}
		age(i)
	}
	if got, want := s.Generations(), []string{gens[0].fp, gens[2].fp, gens[3].fp}; !sameSet(got, want) {
		t.Fatalf("kept %v, want the adopted base and the two newest: %v", got, want)
	}
	if nb, err := s.SaveCommit(gens[4].fp, gens[4].m, gens[4].v, base); err != nil || nb != base {
		t.Fatalf("the commit over the adopted base did not write a delta (%v)", err)
	}
	checkLoads(t, dir, gens[4])
}

func sameSet(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[string]bool{}
	for _, s := range got {
		seen[s] = true
	}
	for _, s := range want {
		if !seen[s] {
			return false
		}
	}
	return true
}

// TestManifestReferences checks that a manifest's payload comes back
// without its references, that a reference must be a fingerprint, and
// that a long reference list is read whole by pruning.
func TestManifestReferences(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest("m", []byte(`{"a":1}`), "../x"); err == nil {
		t.Fatal("SaveManifest accepted a reference that is not a fingerprint")
	}
	refs := make([]string, 300)
	for i := range refs {
		refs[i] = fmt.Sprintf("%032x", i)
	}
	if err := s.SaveManifest("m", []byte(`{"a":1}`), refs...); err != nil {
		t.Fatal(err)
	}
	payload, err := s.LoadManifest("m")
	if err != nil || string(payload) != `{"a":1}` {
		t.Fatalf("LoadManifest = %s, %v", payload, err)
	}
	s.mu.Lock()
	got := s.manifestRefsLocked()
	s.mu.Unlock()
	if len(got) != len(refs) || got[len(got)-1] != refs[len(refs)-1] {
		t.Fatalf("pruning read %d of %d references", len(got), len(refs))
	}
}

// FuzzDeltaLoad writes each input as the payload of a delta record, in a
// valid envelope so that it gets past the checksum, into a store holding a
// full record and a delta over it, and loads it: the load fails, or it
// yields a generation DecodeGeneration accepted. Nothing may panic. The
// seeds are a valid delta, a delta naming a delta, a run past the end of a
// base list, a base checksum that does not match and a base fingerprint
// with no record.
func FuzzDeltaLoad(f *testing.F) {
	gens := lineage(f, 30, 2)
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	base, err := s.SaveCommit(gens[0].fp, gens[0].m, gens[0].v, nil)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.SaveCommit(gens[1].fp, gens[1].m, gens[1].v, base); err != nil {
		f.Fatal(err)
	}
	delta := func(fp, sum string, bm *frag.Mapping, bv *frag.Views) []byte {
		d, err := modelio.AppendDelta(nil, fp, sum, bm, bv, gens[2].m, gens[2].v, modelio.NoLimit)
		if err != nil {
			f.Fatal(err)
		}
		return d
	}
	valid := delta(base.FP, base.sum, gens[0].m, gens[0].v)
	f.Add(valid)
	rec, err := os.ReadFile(filepath.Join(dir, genFileName(gens[1].fp)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta(gens[1].fp, recordSum(rec), gens[1].m, gens[1].v))
	f.Add(bytes.Replace(valid, []byte(`"types":[[0,`), []byte(`"types":[[29,`), 1))
	f.Add(delta(base.FP, strings.Repeat("0", 64), gens[0].m, gens[0].v))
	f.Add(delta(strings.Repeat("0", 32), base.sum, gens[0].m, gens[0].v))
	const fp = "ffffffffffffffffffffffffffffffff"
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := os.WriteFile(filepath.Join(dir, genFileName(fp)), appendRecord(nil, classDelta, fp, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if m, v, err := s.LoadGeneration(fp); err == nil && (m == nil || v == nil) {
			t.Fatal("accepted a delta with partial state")
		}
	})
}
