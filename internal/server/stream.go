package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"github.com/ormkit/incmap/internal/exec"
)

// Streaming data-plane reads. The daemon's GET path used to render a
// tenant's rows by canonically encoding the whole store state in one
// buffer and hashing it; both the encode and the hash held the full
// serialization in memory. The streaming summarizer walks each table
// through the executor's TableStore scans batch-at-a-time and folds rows
// into an order-independent multiset checksum, so the data plane's read
// cost is one batch regardless of tenant size — and the same code path
// serves both map-backed tenant states (via exec.MapStore) and any
// future log-backed store.
//
// The checksum is deterministic across processes and row orderings: two
// stores holding the same multiset of rows per table always hash equal,
// which is the property the rollout soak's restart/rollback comparisons
// rely on. (The value differs from the old whole-encoding hash; nothing
// persists checksums, so only like-for-like comparisons matter.)

// rowDigestSum is a commutative fold of row digests: per-row SHA-256
// truncated to four uint64 lanes, added lane-wise with wraparound.
// Addition (not XOR) keeps duplicate rows visible — a multiset, not a
// set.
type rowDigestSum [4]uint64

func (s *rowDigestSum) add(rowCanonical []byte) {
	d := sha256.Sum256(rowCanonical)
	for i := 0; i < 4; i++ {
		s[i] += binary.BigEndian.Uint64(d[i*8:])
	}
}

// streamSummarize renders a table store for the wire: per-table row
// counts, the total, and the multiset checksum. A scan error degrades to
// an empty checksum (reads never fail), matching the old summarize's
// behaviour on encode errors.
func streamSummarize(ctx context.Context, ts exec.TableStore) (map[string]int, int, string) {
	tables := map[string]int{}
	total := 0
	if ts == nil {
		return tables, total, checksumOf(nil)
	}
	type tableSum struct {
		name  string
		count int
		sum   rowDigestSum
	}
	var sums []tableSum
	var canon []byte // one row's canonical form, reused across rows
	for _, name := range ts.Tables() {
		it, err := ts.Scan(ctx, name, exec.DefaultBatchSize)
		if err != nil {
			return tables, total, ""
		}
		t := tableSum{name: name}
		for {
			rows, ok, err := it.Next()
			if err != nil {
				_ = it.Close()
				return tables, total, ""
			}
			if !ok {
				break
			}
			for _, r := range rows {
				canon = r.AppendCanonical(canon[:0])
				t.sum.add(canon)
			}
			t.count += len(rows)
		}
		_ = it.Close()
		if t.count == 0 {
			continue
		}
		tables[name] = t.count
		total += t.count
		sums = append(sums, t)
	}
	lines := make([]string, len(sums))
	for i, t := range sums {
		lines[i] = fmt.Sprintf("%s:%d:%x%x%x%x", t.name, t.count, t.sum[0], t.sum[1], t.sum[2], t.sum[3])
	}
	return tables, total, checksumOf(lines)
}

// checksumOf hashes the sorted per-table digest lines into the wire
// checksum. The empty store has a well-defined (non-empty) checksum so
// "no data" and "checksum unavailable" stay distinguishable.
func checksumOf(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
