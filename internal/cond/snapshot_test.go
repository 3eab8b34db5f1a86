package cond

import (
	"encoding/json"
	"testing"
)

// TestScopeClockEviction regresses the historical scope-cap bug: once the
// scope map filled, scopeStore refused every NEW scope a lemma store
// forever, freezing the lemma working set at whatever arrived first. With
// clock eviction, churning far more scopes than the cap must stay bounded,
// count evictions, and a fresh scope past the cap must still persist and
// reuse lemmas.
func TestScopeClockEviction(t *testing.T) {
	th := satCacheTheory()
	c := NewSatCache()
	c.maxScopes = 8

	for i := 0; i < 64; i++ {
		// Each i is a distinct atom set, hence a distinct solver scope.
		lo := Cmp{Attr: "Age", Op: OpGe, Val: Int(int64(i))}
		hi := Cmp{Attr: "Age", Op: OpLt, Val: Int(int64(i))}
		if !c.Satisfiable(th, NewOr(lo, hi)) {
			t.Fatalf("Age>=%d OR Age<%d should be satisfiable", i, i)
		}
		if n := c.scopeCount.Load(); n > c.maxScopes {
			t.Fatalf("scope map exceeded its cap: %d > %d", n, c.maxScopes)
		}
	}
	if st := c.Stats(); st.ScopeEvictions == 0 {
		t.Fatalf("scope churn past the cap caused no evictions: %+v", st)
	}

	// A brand-new scope, created after sustained churn past the cap, must
	// still get lemma persistence: q1 learns, q2 (same scope, distinct
	// expression) reuses.
	m := Cmp{Attr: "Gender", Op: OpEq, Val: String("M")}
	f := Cmp{Attr: "Gender", Op: OpEq, Val: String("F")}
	contra := NewAnd(m, f)
	q1 := NewOr(contra, Null{Attr: "Salary"})
	q2 := NewOr(contra, NewNot(Null{Attr: "Salary"}))
	base := c.Stats()
	if !c.Satisfiable(th, q1) || !c.Satisfiable(th, q2) {
		t.Fatal("expected both queries satisfiable")
	}
	st := c.Stats()
	if st.LemmasStored <= base.LemmasStored {
		t.Fatalf("fresh scope past the cap stored no lemmas: %+v", st)
	}
	if st.LemmaHits <= base.LemmaHits {
		t.Fatalf("fresh scope past the cap got no lemma hits: %+v", st)
	}
}

// TestSnapshotRoundtrip exports a warmed cache through the JSON form the
// persistent store uses, imports it into a fresh cache, and checks that
// verdicts come back as hits (counted as PersistedHits) and that imported
// lemmas are reused by new same-scope solves.
func TestSnapshotRoundtrip(t *testing.T) {
	th := satCacheTheory()
	c := NewSatCache()

	m := Cmp{Attr: "Gender", Op: OpEq, Val: String("M")}
	f := Cmp{Attr: "Gender", Op: OpEq, Val: String("F")}
	contra := NewAnd(m, f)
	q1 := NewOr(contra, Null{Attr: "Age"})
	q2 := NewOr(contra, NewNot(Null{Attr: "Age"}))
	want1 := c.Satisfiable(th, q1)
	want2 := c.Satisfiable(th, q2)

	snap := c.Export()
	if len(snap.Entries) != 2 {
		t.Fatalf("expected 2 exported verdicts, got %d", len(snap.Entries))
	}
	if got, ok := snap.Entries[CacheKey(th, q1)]; !ok || got != want1 {
		t.Fatalf("q1 verdict missing or wrong in export: %v %v", ok, got)
	}
	if len(snap.Scopes) == 0 {
		t.Fatal("expected exported lemma scopes")
	}

	// Through JSON, exactly as internal/store will persist it.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back SatSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	c2 := NewSatCache()
	c2.Import(&back)
	if got, d := c2.SatisfiableHit(th, q1); d != Cached || got != want1 {
		t.Fatalf("imported verdict for q1 not served from cache: decision=%v got=%v", d, got)
	}
	if got, d := c2.SatisfiableHit(th, q2); d != Cached || got != want2 {
		t.Fatalf("imported verdict for q2 not served from cache: decision=%v got=%v", d, got)
	}
	if st := c2.Stats(); st.PersistedHits != 2 {
		t.Fatalf("persisted hits not counted: %+v", st)
	}

	// q3 shares q1/q2's scope (same atom set, same theory facts) and embeds
	// the contradiction subtree, but is a distinct expression: it misses the
	// verdict cache and must reuse the imported lemmas.
	q3 := NewNot(q1)
	if !c2.Satisfiable(th, q3) {
		t.Fatal("¬q1 should be satisfiable (neither Gender value, Age NOT NULL)")
	}
	if st := c2.Stats(); st.LemmaHits == 0 {
		t.Fatalf("imported lemmas were not reused by a new same-scope solve: %+v", st)
	}
}

// TestExportReproducible: two caches that learned the same lemmas export
// the same snapshot bytes, in whatever order their scope maps range.
func TestExportReproducible(t *testing.T) {
	th := satCacheTheory()
	contra := NewAnd(Cmp{Attr: "Gender", Op: OpEq, Val: String("M")}, Cmp{Attr: "Gender", Op: OpEq, Val: String("F")})
	export := func() []byte {
		c := NewSatCache()
		for i := 0; i < 32; i++ {
			// Each Age bound is a distinct atom set, hence a distinct scope.
			c.Satisfiable(th, NewOr(contra, Cmp{Attr: "Age", Op: OpGe, Val: Int(int64(i))}))
		}
		snap := c.Export()
		if len(snap.Scopes) < 2 {
			t.Fatalf("exported %d lemma scopes, want several", len(snap.Scopes))
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := export()
	for run := 0; run < 3; run++ {
		if again := export(); string(again) != string(first) {
			t.Fatalf("run %d exported different bytes for the same cache content", run+1)
		}
	}
}

// TestSnapshotImportMalformed checks that damaged snapshot records are
// skipped individually without panics or partial corruption.
func TestSnapshotImportMalformed(t *testing.T) {
	th := satCacheTheory()
	c := NewSatCache()
	c.Import(nil) // no-op
	c.Import(&SatSnapshot{
		Entries: map[string]bool{"": true, "plausible-but-unknown-key": false},
		Scopes: []ScopeSnapshot{
			{Key: "", Lemmas: []LemmaSnapshot{{Lits: []LemmaLitSnapshot{{Atom: 0}}}}},
			{Key: "some-scope", Lemmas: []LemmaSnapshot{
				{Lits: nil}, // empty clause
				{Lits: make([]LemmaLitSnapshot, maxLemmaLen+1)}, // oversized
				{Lits: []LemmaLitSnapshot{{Atom: -5}}},          // negative index
				{Lits: []LemmaLitSnapshot{{Atom: 1 << 30}}},     // out-of-range index
			}},
		},
	})
	// The out-of-range atom lemma was stored (its scope key is opaque here)
	// but install-time bounds checks must keep the solver safe; everything
	// still decides correctly.
	m := Cmp{Attr: "Gender", Op: OpEq, Val: String("M")}
	f := Cmp{Attr: "Gender", Op: OpEq, Val: String("F")}
	if c.Satisfiable(th, NewAnd(m, f)) {
		t.Fatal("contradictory pair should be unsatisfiable after malformed import")
	}
	if !c.Satisfiable(th, NewOr(m, f)) {
		t.Fatal("disjunction should be satisfiable after malformed import")
	}
}

// TestContentAddressStability proves cache keys are a function of structure
// alone: after the intern table has been churned (evicting the original
// nodes), a rebuilt structurally-equal expression produces a byte-identical
// cache key — the property that makes persisted verdicts portable.
func TestContentAddressStability(t *testing.T) {
	th := satCacheTheory()
	m := Cmp{Attr: "Gender", Op: OpEq, Val: String("M")}
	f := Cmp{Attr: "Gender", Op: OpEq, Val: String("F")}
	q := NewOr(NewAnd(m, f), Null{Attr: "Age"})
	key := CacheKey(th, q)

	oldCap := internMaxEntries
	internMaxEntries = 64
	defer func() { internMaxEntries = oldCap }()
	for i := 0; i < 1024; i++ {
		NewNot(Cmp{Attr: "Id", Op: OpGe, Val: Int(int64(i))})
	}

	rebuilt := NewOr(NewAnd(m, f), Null{Attr: "Age"})
	if got := CacheKey(th, rebuilt); got != key {
		t.Fatalf("cache key changed across intern-table churn:\n before %q\n after  %q", key, got)
	}
}
