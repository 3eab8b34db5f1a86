package cond

import "sort"

// Snapshot export/import: the portable form of a SatCache that
// internal/store persists to disk. Everything in a snapshot is keyed by
// strings that are stable across processes — verdict keys embed content
// addresses (intern.go) rather than process-local ids, theory fingerprints
// are built from schema facts only, and lemma gate references are content
// addresses. A snapshot produced by one process is therefore directly
// meaningful to another, as long as both run the same key-format version
// (internal/store gates on that).

// SatSnapshot is the portable state of a SatCache.
type SatSnapshot struct {
	// Entries maps verdict keys (expression encoding + theory fingerprint)
	// to satisfiability verdicts.
	Entries map[string]bool `json:"entries,omitempty"`
	// Scopes carries the persisted CDCL lemmas per solver scope.
	Scopes []ScopeSnapshot `json:"scopes,omitempty"`
}

// ScopeSnapshot is one solver scope — a (sorted atom list, theory
// fingerprint) pair — and its persisted lemmas.
type ScopeSnapshot struct {
	Key    string          `json:"key"`
	Lemmas []LemmaSnapshot `json:"lemmas"`
}

// LemmaSnapshot is one persisted clause.
type LemmaSnapshot struct {
	Lits []LemmaLitSnapshot `json:"lits"`
}

// LemmaLitSnapshot is one literal: a gate literal when Gate is a content
// address, an atom literal (index into the scope's atom list) otherwise.
type LemmaLitSnapshot struct {
	Gate string `json:"g,omitempty"`
	Atom int32  `json:"a,omitempty"`
	Neg  bool   `json:"n,omitempty"`
}

// Export captures the cache's verdicts and persisted lemmas in portable
// form, scopes sorted by key so the same cache content always encodes to
// the same bytes. Concurrent use during export is safe; the snapshot is a
// consistent enough view for persistence (individual entries are
// immutable once written, so at worst a racing insert is missed).
func (c *SatCache) Export() *SatSnapshot {
	snap := &SatSnapshot{Entries: make(map[string]bool)}
	c.entries.Range(func(k, v any) bool {
		snap.Entries[k.(string)] = v.(verdict).sat
		return true
	})
	c.scopes.Range(func(k, v any) bool {
		st := v.(*lemmaStore)
		st.mu.Lock()
		if len(st.lemmas) > 0 {
			sc := ScopeSnapshot{Key: k.(string), Lemmas: make([]LemmaSnapshot, len(st.lemmas))}
			for i, lm := range st.lemmas {
				lits := make([]LemmaLitSnapshot, len(lm))
				for j, ll := range lm {
					lits[j] = LemmaLitSnapshot{Gate: ll.gate, Atom: ll.atom, Neg: ll.neg}
				}
				sc.Lemmas[i] = LemmaSnapshot{Lits: lits}
			}
			snap.Scopes = append(snap.Scopes, sc)
		}
		st.mu.Unlock()
		return true
	})
	sort.Slice(snap.Scopes, func(i, j int) bool { return snap.Scopes[i].Key < snap.Scopes[j].Key })
	return snap
}

// Import merges a snapshot into the cache. Imported verdicts are marked
// persisted, so hits on them are observable as PersistedHits; imported
// lemmas land in their scope's store exactly as locally learned ones do.
// Malformed records (empty keys, empty or oversized clauses, negative atom
// indices) are skipped individually — a partially damaged snapshot warms
// what it can and never corrupts the cache. Existing entries win over
// imported ones.
func (c *SatCache) Import(snap *SatSnapshot) {
	if snap == nil {
		return
	}
	for k, sat := range snap.Entries {
		if k == "" {
			continue
		}
		if c.size.Load() >= c.maxEntries {
			break
		}
		if _, loaded := c.entries.LoadOrStore(k, verdict{sat: sat, persisted: true}); !loaded {
			c.size.Add(1)
		}
	}
	for _, sc := range snap.Scopes {
		if sc.Key == "" || len(sc.Lemmas) == 0 {
			continue
		}
		st := c.scopeStore(sc.Key)
		if st == nil {
			continue // scope map full and nothing evictable
		}
		st.mu.Lock()
		for _, lm := range sc.Lemmas {
			if len(lm.Lits) == 0 || len(lm.Lits) > maxLemmaLen || len(st.lemmas) >= maxLemmasPerScope {
				continue
			}
			ls := make([]lemmaLit, len(lm.Lits))
			bad := false
			for i, l := range lm.Lits {
				if l.Gate == "" && l.Atom < 0 {
					bad = true
					break
				}
				ls[i] = lemmaLit{gate: l.Gate, atom: l.Atom, neg: l.Neg}
			}
			if !bad {
				st.addLocked(lemmaKeyOf(ls), ls)
			}
		}
		st.mu.Unlock()
	}
}

// CacheKey returns the canonical verdict key of one Satisfiable query —
// the key SatisfiableHit stores under. Exported so persistence tests can
// assert that keys are byte-identical across a save/restore cycle.
func CacheKey(t Theory, x Expr) string { return cacheKey(t, x) }
