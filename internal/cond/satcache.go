package cond

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/obsv"
)

// SatCache memoizes the theory-level decision procedures (Satisfiable,
// Implies, Disjoint, Tautology, Equivalent). Each verdict is keyed by a
// canonical structural encoding of the query expression together with a
// fingerprint of the theory facts the solver can consult for that
// expression (concrete types, subtype relations, attribute domains,
// nullability, attribute presence). Because the key captures the exact
// dependence set of the decision, a cache may safely outlive the theory it
// was filled against: verdicts are reused across compilations — and across
// full and incremental compilation — exactly when the relevant schema
// facts are unchanged, and miss otherwise.
//
// All derived procedures reduce to Satisfiable before keying, so e.g.
// Implies(a, b), Disjoint(a, ¬b) and Satisfiable(a ∧ ¬b) share one entry.
//
// A query whose atoms are all type atoms of one typed subject never reaches
// the key: it is decided as a set of concrete types (typeset.go), and
// counted apart from hits and misses.
//
// A SatCache is safe for concurrent use. The zero value is not usable;
// construct with NewSatCache.
type SatCache struct {
	entries  sync.Map // string -> verdict
	hits     atomic.Int64
	misses   atomic.Int64
	typeOnly atomic.Int64
	size     atomic.Int64
	// maxEntries bounds memory: once reached, new verdicts are computed but
	// not stored.
	maxEntries int64

	// scopes holds persisted solver lemmas (lemma.go) keyed by solver scope
	// — the sorted atom list plus theory fingerprint. Distinct queries over
	// the same atoms and theory facts solve in the same scope and reuse each
	// other's learned clauses. Bounded by maxScopes with second-chance
	// (clock) eviction, like the intern table: scope churn past the cap
	// ages out cold scopes instead of refusing persistence to new ones.
	scopes         sync.Map // string -> *lemmaStore
	scopeCount     atomic.Int64
	maxScopes      int64
	scopeEvictions atomic.Int64
	lemmaHits      atomic.Int64
	lemmasStored   atomic.Int64
	persistedHits  atomic.Int64

	// scopeClock is the eviction ring of scope keys, swept by a clock hand
	// (see scopeEvict).
	scopeClock struct {
		mu   sync.Mutex
		keys []string
		hand int
	}
}

// SatCacheStats is a snapshot of a cache's counters.
type SatCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int64
	// TypeOnly counts decisions made as sets of concrete types (typeset.go):
	// no key, entry or solver run, so they are neither hits nor misses.
	TypeOnly int64
	// LemmaHits counts persisted lemmas re-installed into cache-miss solver
	// runs; LemmasStored counts clauses persisted by those runs.
	LemmaHits    int64
	LemmasStored int64
	// ScopeEvictions counts lemma scopes aged out of the scope map by the
	// clock sweep once the scope cap is reached.
	ScopeEvictions int64
	// PersistedHits counts cache hits served by verdicts that entered this
	// cache through snapshot Import (a warm start from an on-disk store)
	// rather than being solved in this process.
	PersistedHits int64
	// InternEvictions counts structures aged out of the package-wide
	// hash-consing table (intern.go) since process start.
	InternEvictions int64
}

// defaultSatCacheEntries bounds a cache at roughly a few hundred MB of keys
// in the worst case; real workloads stay far below it.
const defaultSatCacheEntries = 1 << 20

// defaultMaxScopes bounds the lemma-scope map; each scope holds at most
// maxLemmasPerScope clauses.
const defaultMaxScopes = 1 << 16

// verdict is one cached decision. persisted marks entries that arrived via
// snapshot Import (an on-disk warm start) rather than a local solve, so
// hits on them are separately countable.
type verdict struct {
	sat       bool
	persisted bool
}

// NewSatCache returns an empty decision cache.
func NewSatCache() *SatCache {
	return &SatCache{maxEntries: defaultSatCacheEntries, maxScopes: defaultMaxScopes}
}

// Stats returns a snapshot of the hit/miss counters.
func (c *SatCache) Stats() SatCacheStats {
	return SatCacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Entries:         c.size.Load(),
		TypeOnly:        c.typeOnly.Load(),
		LemmaHits:       c.lemmaHits.Load(),
		LemmasStored:    c.lemmasStored.Load(),
		ScopeEvictions:  c.scopeEvictions.Load(),
		PersistedHits:   c.persistedHits.Load(),
		InternEvictions: internEvictions.Load(),
	}
}

// Reset drops every cached verdict and persisted lemma and zeroes the
// counters (the process-wide intern eviction count is not affected).
func (c *SatCache) Reset() {
	c.entries.Range(func(k, _ any) bool {
		c.entries.Delete(k)
		return true
	})
	c.scopes.Range(func(k, _ any) bool {
		c.scopes.Delete(k)
		return true
	})
	c.hits.Store(0)
	c.misses.Store(0)
	c.typeOnly.Store(0)
	c.size.Store(0)
	c.scopeCount.Store(0)
	c.scopeEvictions.Store(0)
	c.lemmaHits.Store(0)
	c.lemmasStored.Store(0)
	c.persistedHits.Store(0)
	c.scopeClock.mu.Lock()
	c.scopeClock.keys = nil
	c.scopeClock.hand = 0
	c.scopeClock.mu.Unlock()
}

// Decision says how a SatCache reached a verdict.
type Decision uint8

const (
	// Solved is a cache miss: a solver run decided, and the cache keeps
	// its verdict.
	Solved Decision = iota
	// Cached is a cache hit.
	Cached
	// TypeOnly is a type-only query decided as a set of concrete types,
	// with no key, cache entry or solver run.
	TypeOnly
)

var mTypeOnly = obsv.Metrics().Counter(obsv.MSatCacheTypeOnly)

// Satisfiable is the memoized form of the package-level Satisfiable.
func (c *SatCache) Satisfiable(t Theory, x Expr) bool {
	v, _ := c.SatisfiableHit(t, x)
	return v
}

// SatisfiableHit reports the verdict and how it was reached.
func (c *SatCache) SatisfiableHit(t Theory, x Expr) (bool, Decision) {
	// Fault-injection hook: lookups cannot propagate an error, so only
	// injected panics and delays take effect here.
	faultinject.At(faultinject.SiteSatCache) //nolint:errcheck
	return c.decide(t, x)
}

// decide is SatisfiableHit after its fault hook.
func (c *SatCache) decide(t Theory, x Expr) (bool, Decision) {
	if s, ok := typeOnlySets(t, x); ok {
		return meets(s[0], s[0], false), c.countTypeOnly()
	}
	atoms := Atoms(x)

	// The theory fingerprint is shared by the verdict key (expr + theory)
	// and the lemma-scope key (atoms + theory); build it once.
	var tb strings.Builder
	encodeTheory(&tb, t, atoms)
	th := tb.String()

	var kb strings.Builder
	encodeExpr(&kb, x)
	kb.WriteByte('#')
	kb.WriteString(th)
	key := kb.String()

	if v, ok := c.entries.Load(key); ok {
		c.hits.Add(1)
		vd := v.(verdict)
		if vd.persisted {
			c.persistedHits.Add(1)
		}
		return vd.sat, Cached
	}
	c.misses.Add(1)

	var sb strings.Builder
	for _, a := range atoms {
		encodeAtomExpr(&sb, a.Expr())
	}
	sb.WriteByte('#')
	sb.WriteString(th)
	store := c.scopeStore(sb.String())

	var stats SolverStats
	v := satisfiableCDCL(t, x, atoms, store, &stats)
	c.lemmaHits.Add(stats.LemmaHits)
	c.lemmasStored.Add(stats.LemmasStored)

	if c.size.Load() < c.maxEntries {
		if _, loaded := c.entries.LoadOrStore(key, verdict{sat: v}); !loaded {
			c.size.Add(1)
		}
	}
	return v, Solved
}

func (c *SatCache) countTypeOnly() Decision {
	c.typeOnly.Add(1)
	mTypeOnly.Add(1)
	return TypeOnly
}

// scopeStore returns the lemma store for a solver scope, creating it if
// absent. Past the scope cap, a second-chance clock sweep (scopeEvict)
// ages out scopes that have not been consulted since the last revolution —
// scope churn keeps persisting into fresh scopes instead of permanently
// refusing every scope after the cap, which froze the lemma working set at
// whatever arrived first.
func (c *SatCache) scopeStore(scopeKey string) *lemmaStore {
	if st, ok := c.scopes.Load(scopeKey); ok {
		ls := st.(*lemmaStore)
		if atomic.LoadUint32(&ls.ref) == 0 {
			atomic.StoreUint32(&ls.ref, 1)
		}
		return ls
	}
	// Reserve a slot before inserting so racing first-time creations cannot
	// push the scope map past maxScopes; release it if we lost the race.
	if c.scopeCount.Add(1) > c.maxScopes {
		c.scopeEvict(scopeEvictBatch)
		if c.scopeCount.Load() > c.maxScopes {
			// The sweep reclaimed nothing (every scope freshly referenced):
			// solve without persistence rather than grow without bound.
			c.scopeCount.Add(-1)
			return nil
		}
	}
	fresh := &lemmaStore{ref: 1} // first revolution's grace
	st, loaded := c.scopes.LoadOrStore(scopeKey, fresh)
	if loaded {
		c.scopeCount.Add(-1)
	} else {
		c.scopeClock.mu.Lock()
		c.scopeClock.keys = append(c.scopeClock.keys, scopeKey)
		c.scopeClock.mu.Unlock()
	}
	return st.(*lemmaStore)
}

// scopeEvictBatch is how many scopes one over-cap insert reclaims,
// amortizing the sweep like the intern table's internEvictBatch.
const scopeEvictBatch = 16

// scopeEvict runs the clock hand until it has reclaimed want scopes or
// proven every resident scope recently referenced. Referenced scopes get
// their second chance (bit cleared, hand moves on); clear ones are evicted
// with their lemmas.
func (c *SatCache) scopeEvict(want int) {
	ck := &c.scopeClock
	ck.mu.Lock()
	defer ck.mu.Unlock()
	budget := 2 * len(ck.keys)
	for want > 0 && len(ck.keys) > 0 && budget > 0 {
		budget--
		if ck.hand >= len(ck.keys) {
			ck.hand = 0
		}
		key := ck.keys[ck.hand]
		e, ok := c.scopes.Load(key)
		if !ok {
			// Stale ring slot (Reset ran); drop it.
			ck.keys[ck.hand] = ck.keys[len(ck.keys)-1]
			ck.keys = ck.keys[:len(ck.keys)-1]
			continue
		}
		ls := e.(*lemmaStore)
		if atomic.LoadUint32(&ls.ref) != 0 {
			atomic.StoreUint32(&ls.ref, 0)
			ck.hand++
			continue
		}
		c.scopes.Delete(key)
		c.scopeCount.Add(-1)
		c.scopeEvictions.Add(1)
		ck.keys[ck.hand] = ck.keys[len(ck.keys)-1]
		ck.keys = ck.keys[:len(ck.keys)-1]
		want--
	}
}

// Implies is the memoized form of the package-level Implies.
func (c *SatCache) Implies(t Theory, a, b Expr) bool {
	v, _ := c.ImpliesHit(t, a, b)
	return v
}

// ImpliesHit reports the verdict and how it was reached. A type-only pair
// is decided before a ∧ ¬b is built, so it interns no node.
func (c *SatCache) ImpliesHit(t Theory, a, b Expr) (bool, Decision) {
	faultinject.At(faultinject.SiteSatCache) //nolint:errcheck
	if s, ok := typeOnlySets(t, a, b); ok {
		return !meets(s[0], s[1], true), c.countTypeOnly()
	}
	sat, d := c.decide(t, NewAnd(a, NewNot(b)))
	return !sat, d
}

// Disjoint is the memoized form of the package-level Disjoint.
func (c *SatCache) Disjoint(t Theory, a, b Expr) bool {
	v, _ := c.DisjointHit(t, a, b)
	return v
}

// DisjointHit reports the verdict and how it was reached, deciding a
// type-only pair as ImpliesHit does.
func (c *SatCache) DisjointHit(t Theory, a, b Expr) (bool, Decision) {
	faultinject.At(faultinject.SiteSatCache) //nolint:errcheck
	if s, ok := typeOnlySets(t, a, b); ok {
		return !meets(s[0], s[1], false), c.countTypeOnly()
	}
	sat, d := c.decide(t, NewAnd(a, b))
	return !sat, d
}

// Tautology is the memoized form of the package-level Tautology.
func (c *SatCache) Tautology(t Theory, x Expr) bool {
	return !c.Satisfiable(t, NewNot(x))
}

// Equivalent is the memoized form of the package-level Equivalent.
func (c *SatCache) Equivalent(t Theory, a, b Expr) bool {
	return c.Implies(t, a, b) && c.Implies(t, b, a)
}

// cacheKey builds the canonical key for one Satisfiable query: the
// structural encoding of the expression followed by the theory fingerprint
// restricted to the expression's atoms.
func cacheKey(t Theory, x Expr) string {
	var b strings.Builder
	encodeExpr(&b, x)
	b.WriteByte('#')
	encodeTheory(&b, t, Atoms(x))
	return b.String()
}

// encStr writes a length-prefixed string, so concatenated fields can never
// be confused with one another.
func encStr(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func encBool(b *strings.Builder, v bool) {
	if v {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
}

func encVal(b *strings.Builder, v Value) {
	switch v.K {
	case KindString:
		b.WriteByte('s')
		encStr(b, v.s)
	case KindInt:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(v.i, 10))
		b.WriteByte(';')
	case KindFloat:
		b.WriteByte('f')
		b.WriteString(strconv.FormatFloat(v.f, 'b', -1, 64))
		b.WriteByte(';')
	case KindBool:
		b.WriteByte('b')
		encBool(b, v.b)
	default:
		b.WriteByte('?')
	}
}

// encodeExpr writes an unambiguous prefix encoding of the expression.
// Composite nodes are hash-consed (see intern.go) and contribute their
// memoized canonical key — an "@ck" content-address reference — so
// encoding is O(1) in the subtree size instead of a full walk, and the
// resulting cache keys are stable across processes.
func encodeExpr(b *strings.Builder, x Expr) {
	switch x.(type) {
	case *Not, *And, *Or:
		b.WriteString(internKeyOf(x))
	default:
		encodeAtomExpr(b, x)
	}
}

// encodeTheory fingerprints every theory fact the solver may consult while
// deciding a query over the given atoms: per-attribute domains and
// nullability, per-subject concrete-type candidates, and for each candidate
// the subtype facts against the query's type atoms and the attribute-
// presence facts against the query's attribute atoms.
func encodeTheory(b *strings.Builder, t Theory, atoms []Atom) {
	// Distinct attributes and subjects, in the deterministic atom order.
	var attrs []string
	seenAttr := map[string]bool{}
	subjSet := map[string]bool{}
	for _, a := range atoms {
		subjSet[a.subject()] = true
		if a.Kind == AtomNull || a.Kind == AtomCmp {
			if !seenAttr[a.Attr] {
				seenAttr[a.Attr] = true
				attrs = append(attrs, a.Attr)
			}
		}
	}
	subjects := make([]string, 0, len(subjSet))
	for s := range subjSet {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)

	for _, attr := range attrs {
		b.WriteByte('D')
		encStr(b, attr)
		dom, known := t.Domain(attr)
		encBool(b, known)
		if known {
			b.WriteByte(byte('0' + int(dom.Kind)))
			b.WriteString(strconv.Itoa(len(dom.Enum)))
			b.WriteByte(':')
			for _, v := range dom.Enum {
				encVal(b, v)
			}
		}
		encBool(b, t.Nullable(attr))
	}
	for _, subj := range subjects {
		b.WriteByte('S')
		encStr(b, subj)
		cts := t.ConcreteTypes(subj)
		b.WriteString(strconv.Itoa(len(cts)))
		b.WriteByte(':')
		for _, ct := range cts {
			encStr(b, ct)
			for _, a := range atoms {
				if a.Kind != AtomType || a.subject() != subj {
					continue
				}
				encBool(b, t.IsSubtype(ct, a.Type))
			}
			for _, attr := range attrs {
				if subjectOfAttr(attr) != subj {
					continue
				}
				encBool(b, t.HasAttr(ct, bareAttr(attr)))
			}
		}
	}
}

// subjectOfAttr is Atom.subject for attribute atoms: the alias prefix of a
// qualified name, "" for bare names.
func subjectOfAttr(attr string) string {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return attr[:i]
	}
	return ""
}
