package cond

import (
	"crypto/sha256"
	"encoding/base64"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ormkit/incmap/internal/obsv"
)

// Hash-consing of composite condition nodes. The New* constructors funnel
// every Not/And/Or through a process-wide intern table keyed by the same
// canonical structural encoding SatCache uses, so structurally identical
// composites share one node. Consequences:
//
//   - sharing subtrees across mapping generations is safe by construction
//     (the nodes are immutable and unique),
//   - == on Expr is O(1) structural equality for interned trees,
//   - SatCache keys composites by their (memoized) canonical encoding
//     instead of re-walking the subtree on every decision, and
//   - the simplifier's rebuild-heavy rewrites reuse existing nodes rather
//     than allocating fresh copies of unchanged subtrees.
//
// The table is bounded and aged: when full, a second-chance (clock) sweep
// evicts composites that have not been re-interned since the last sweep,
// making room for the working set instead of freezing whatever happened to
// arrive first. Every node carries a reference bit that intern hits set and
// the sweep clears; an entry survives one full revolution after its last
// hit. Eviction never invalidates live pointers — a resident node handed
// out earlier stays valid and structurally correct; only future
// constructions of the same structure mint a fresh node. Within one mapping
// generation, nodes reached through the table while resident still compare
// == as before; eviction only weakens == between expressions built far
// apart in time, the same degradation the historical hard cap had.
//
// Every composite also carries a content address (ck): a 128-bit hash of
// its canonical key, itself built from the content addresses of its
// children — a Merkle hash of the structure. Unlike the historical
// sequential intern ids, content addresses are identical for identical
// structures in every process and across eviction/rebuild cycles, which is
// what lets SatCache verdicts and persisted CDCL lemmas (whose keys embed
// these references) survive a process restart (internal/store). Distinct
// structures collide with probability ~2^-64 at a billion nodes — far
// below any hardware error rate — and a collision's blast radius is one
// cache entry, never memory unsafety.

// internMaxEntries bounds the intern table. Keys of resident nodes are
// O(fan-out) because interned children contribute a short "@ck" reference.
// It is a variable only for tests, which shrink it to exercise eviction.
var internMaxEntries = int64(1 << 20)

var (
	internTab       sync.Map // canonical key (string) -> *Not | *And | *Or
	internSize      atomic.Int64
	internEvictions atomic.Int64
	internAged      atomic.Int64
	mInternAged     = obsv.Metrics().Counter(obsv.MInternAged)
)

// internClock is the eviction ring: the keys of resident nodes, swept by a
// clock hand. Order is approximate (removals swap from the tail), which is
// all second chance needs.
var internClock struct {
	mu   sync.Mutex
	keys []string
	hand int
}

// InternStats reports the number of live interned composite nodes.
func InternStats() int64 { return internSize.Load() }

// InternEvictions reports the process-lifetime count of composites evicted
// by the capacity clock (full-table inserts reclaiming room).
func InternEvictions() int64 { return internEvictions.Load() }

// InternAged reports the process-lifetime count of composites reclaimed by
// AgeIntern sweeps (the cond.intern.aged counter).
func InternAged() int64 { return internAged.Load() }

// AgeIntern performs one aging revolution over the intern table: every
// resident composite whose reference bit is still clear — meaning no
// constructor re-interned it since the previous sweep — is evicted, and
// every set bit is cleared so the entry is a candidate next time. Two
// consecutive sweeps with no intervening hits therefore empty the table.
//
// The capacity clock (internEvict) only runs when the table is full, so a
// long-lived multi-tenant daemon whose tenants come and go accumulates one
// idle tenant's working set forever below the cap; callers (mapserved's
// sweep ticker, or an operator via SIGHUP-tuned cadence) invoke AgeIntern
// periodically to return that memory. Eviction never invalidates live
// pointers — nodes handed out earlier stay valid; only future
// constructions of the same structure mint fresh nodes.
//
// Returns how many entries this sweep reclaimed, also accumulated into the
// cond.intern.aged metric.
func AgeIntern() int64 {
	c := &internClock
	c.mu.Lock()
	defer c.mu.Unlock()
	// One revolution from the front of the ring: each of the len(keys)
	// steps keeps or drops one slot, so every resident entry is visited
	// exactly once (want = len(keys) never stops the sweep early). The
	// capacity hand keeps its position.
	i := 0
	aged := sweepClock(&i, len(c.keys), len(c.keys))
	if c.hand >= len(c.keys) {
		c.hand = 0
	}
	if aged > 0 {
		internAged.Add(aged)
		mInternAged.Add(aged)
	}
	return aged
}

// refBitOf returns the node's second-chance bit, nil for non-composites.
func refBitOf(x Expr) *uint32 {
	switch v := x.(type) {
	case *Not:
		return &v.ref
	case *And:
		return &v.ref
	case *Or:
		return &v.ref
	}
	return nil
}

func touchRef(x Expr) {
	if p := refBitOf(x); p != nil && atomic.LoadUint32(p) == 0 {
		atomic.StoreUint32(p, 1)
	}
}

// internEvict runs the capacity clock hand until it has reclaimed want
// entries (or proven the ring empty). Callers hold no locks.
func internEvict(want int) {
	c := &internClock
	c.mu.Lock()
	defer c.mu.Unlock()
	// Two revolutions bound the scan: the first clears every set bit in the
	// worst case, the second must then find victims.
	if n := sweepClock(&c.hand, 2*len(c.keys), want); n > 0 {
		internEvictions.Add(n)
	}
}

// sweepClock is the second-chance sweep both reclaimers share. It moves
// *hand over at most steps ring slots, wrapping at the end, until want
// entries are reclaimed: an entry with its reference bit set gets a second
// chance (the bit is cleared and the hand moves on), a clear entry is
// evicted, and a stale slot is dropped. Evictions and drops swap the tail
// slot into place, so the hand stays put. It returns the number evicted;
// the caller holds internClock.mu.
func sweepClock(hand *int, steps, want int) int64 {
	c := &internClock
	var n int64
	for ; steps > 0 && n < int64(want) && len(c.keys) > 0; steps-- {
		if *hand >= len(c.keys) {
			*hand = 0
		}
		key := c.keys[*hand]
		if e, ok := internTab.Load(key); ok {
			if p := refBitOf(e.(Expr)); p != nil && atomic.LoadUint32(p) != 0 {
				atomic.StoreUint32(p, 0)
				*hand++
				continue
			}
			internTab.Delete(key)
			internSize.Add(-1)
			n++
		}
		c.keys[*hand] = c.keys[len(c.keys)-1]
		c.keys = c.keys[:len(c.keys)-1]
	}
	return n
}

// contentRef hashes a canonical key into its content address: 128 bits of
// SHA-256, base64url. Children contribute their own content addresses to
// the key, so this is a Merkle hash of the whole structure — equal for
// equal structures in every process.
func contentRef(key string) string {
	sum := sha256.Sum256([]byte(key))
	return base64.RawURLEncoding.EncodeToString(sum[:16])
}

// internKeyOf returns the canonical encoding of x as it appears inside a
// parent's intern key: composites contribute their "@ck" content address
// (equal structures hash equal, so this is canonical — and, unlike the
// historical sequential intern ids, stable across processes and across
// eviction/rebuild cycles), atoms their structural encoding.
func internKeyOf(x Expr) string {
	switch v := x.(type) {
	case *Not:
		return "@" + v.ck
	case *And:
		return "@" + v.ck
	case *Or:
		return "@" + v.ck
	}
	var b strings.Builder
	encodeAtomExpr(&b, x)
	return b.String()
}

// encodeAtomExpr writes the unambiguous prefix encoding of a non-composite
// expression (the atom cases of the historical encodeExpr).
func encodeAtomExpr(b *strings.Builder, x Expr) {
	switch v := x.(type) {
	case True:
		b.WriteByte('T')
	case False:
		b.WriteByte('F')
	case TypeIs:
		b.WriteByte('t')
		encBool(b, v.Only)
		encStr(b, v.Var)
		encStr(b, v.Type)
	case Null:
		b.WriteByte('n')
		encStr(b, v.Attr)
	case Cmp:
		b.WriteByte('c')
		b.WriteByte(byte('0' + int(v.Op)))
		encStr(b, v.Attr)
		encVal(b, v.Val)
	default:
		b.WriteByte('?')
	}
}

// intern publishes a fully-built node under its key, or returns the
// already-resident structural twin. Nodes are complete (key, content
// address and atom memo set) before publication, so readers never observe
// partial state. When the table is full a clock sweep (internEvict) ages
// out cold entries to make room; only if that reclaims nothing is the
// fresh node returned un-interned — its content address is still valid
// (it depends only on structure, not residency), so parents embed the
// same "@ck" reference either way.
func intern(key string, mk func() Expr) Expr {
	if e, ok := internTab.Load(key); ok {
		touchRef(e.(Expr))
		return e.(Expr)
	}
	n := mk()
	if over := internSize.Load() - internMaxEntries; over >= 0 {
		// Reclaim the overshoot plus a batch, so steady-state inserts pay
		// for the sweep only once every internEvictBatch entries.
		internEvict(int(over) + internEvictBatch)
		if internSize.Load() >= internMaxEntries {
			return n
		}
	}
	touchRef(n) // fresh entries get a first revolution's grace
	if e, loaded := internTab.LoadOrStore(key, n); loaded {
		return e.(Expr)
	}
	internSize.Add(1)
	internClock.mu.Lock()
	internClock.keys = append(internClock.keys, key)
	internClock.mu.Unlock()
	return n
}

// internEvictBatch is how many entries one full-table insert reclaims;
// batching amortizes the sweep against the insert path.
const internEvictBatch = 64

func internNot(x Expr) Expr {
	var b strings.Builder
	b.WriteByte('!')
	b.WriteString(internKeyOf(x))
	key := b.String()
	return intern(key, func() Expr {
		n := &Not{X: x, key: key, ck: contentRef(key)}
		n.atoms = collectAtoms(n.X)
		return n
	})
}

func internAnd(xs []Expr) Expr {
	key := compositeKey('&', xs)
	return intern(key, func() Expr {
		n := &And{Xs: xs, key: key, ck: contentRef(key)}
		n.atoms = collectAtoms(n)
		return n
	})
}

func internOr(xs []Expr) Expr {
	key := compositeKey('|', xs)
	return intern(key, func() Expr {
		n := &Or{Xs: xs, key: key, ck: contentRef(key)}
		n.atoms = collectAtoms(n)
		return n
	})
}

func compositeKey(tag byte, xs []Expr) string {
	var b strings.Builder
	b.WriteByte(tag)
	b.WriteString(strconv.Itoa(len(xs)))
	b.WriteByte(':')
	for _, x := range xs {
		encStr(&b, internKeyOf(x))
	}
	return b.String()
}
