// Package store is the content-addressed persistent compile cache: an
// on-disk directory of compilation artifacts that lets a new process warm
// start instead of recompiling from scratch. Four record classes are kept:
//
//   - full generation records: a (mapping, views) pair keyed by a
//     fingerprint of the mapping's full content plus the format version, so
//     a store entry can never be served to a model it was not compiled
//     from;
//   - delta generation records: a generation under its own fingerprint,
//     written as the entries it changed against a full record it names by
//     fingerprint and checksum, its base (modelio.AppendDelta). A delta
//     never names another delta; loading one reads its base and rebuilds
//     the full payload byte for byte. A session's commits write deltas
//     (SaveCommit) until one would outgrow a quarter of its base, which
//     then writes a full record that becomes the next base (compaction);
//   - SatCache snapshots: solver verdicts and learned CDCL lemmas, whose
//     keys are content-addressed (internal/cond) and therefore portable
//     across processes by construction;
//   - named manifests: opaque payloads such as the serving daemon's tenant
//     table and rollout checkpoints, each with the generation fingerprints
//     it references.
//
// Retention: generation records beyond a cap are pruned oldest first, but
// never one a manifest references, nor the base of a delta that stays.
//
// Durability model: every artifact is one JSON record wrapped in a
// checksummed envelope, written to a temp file in the same directory,
// fsynced, atomically renamed into place, and made durable by an fsync of
// the directory — a crash mid-write leaves either the old record or a stray
// temp file, never a torn visible record. Reads verify the format version,
// the artifact class, the fingerprint and the checksum before decoding the
// payload, and a delta's base must still be the record the delta was
// written against; any mismatch, truncation or decode failure makes the
// load fail cleanly, which callers treat as a cold start. The store never
// makes correctness worse — it can only save work, not change results.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/obsv"
)

// FormatVersion gates every record. Bump it only when what a record's bytes
// mean changes: the envelope, a payload encoding, the condition
// content-address scheme or the SatCache key format. A change to the
// fingerprint's input alone needs no bump: it moves generation addresses,
// records under the old ones are never looked up again (each model cold
// compiles once) and pruning retires them. Records from other versions are
// ignored (cold start), never migrated in place. Version 2 added delta
// generation records, which mean nothing without the record they name, and
// the references manifests carry.
const FormatVersion = 2

// DefaultMaxGenerations bounds how many compiled generations a store keeps;
// older files (by modification time) are pruned on save, except those a
// manifest references and the bases of the deltas kept.
const DefaultMaxGenerations = 32

// Artifact classes.
const (
	classGeneration = "generation"
	classDelta      = "delta"
	classSatCache   = "satcache"
	classManifest   = "manifest"
)

// maxDeltaShare bounds a delta by its base: a commit whose delta would
// exceed 1/maxDeltaShare of its base's payload writes a full record
// instead, which becomes the session's next base (compaction).
const maxDeltaShare = 4

// maxBases bounds the full records a handle keeps for BaseFor, and so the
// generations it holds in memory for that: the last one it wrote or loaded
// outside a session, and the most recently used of those it handed to
// sessions.
const maxBases = 4

// Store is a handle on one cache directory. Safe for concurrent use within
// a process; concurrent writers in different processes are safe against
// corruption (atomic renames) though last-writer-wins per file.
type Store struct {
	dir string
	// MaxGenerations bounds resident generation files; zero means
	// DefaultMaxGenerations.
	MaxGenerations int

	// mu serializes save+prune cycles and guards the maps below.
	mu sync.Mutex
	// sums maps each generation record this handle last wrote or read as a
	// full record, and has not overwritten or pruned since, to its checksum.
	// A Base is current while its entry here is its checksum.
	sums map[string]string
	// bases holds the full records BaseFor hands out, at most maxBases;
	// tick orders their uses for eviction.
	bases map[string]*Base
	tick  int64
	// heads caches what pruning reads at the head of a record file: a
	// delta's base, a manifest's references.
	heads map[string]recordHead

	hits, misses, evictions atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// A Base is a full generation record on disk and the generation it holds,
// for a session's commits to write deltas against (SaveCommit). It stays
// current until this handle overwrites or prunes the record.
type Base struct {
	FP   string
	m    *frag.Mapping
	v    *frag.Views
	sum  string // the record's checksum, which pins the bytes deltas name
	size int    // the record's payload length
	used int64  // when it was last added or adopted
	// adopted marks a base handed to a session: pruning keeps its record
	// while this handle holds it.
	adopted bool
}

// recordHead is what pruning read at the head of one record file, valid
// while the file keeps its size and modification time.
type recordHead struct {
	size, mod int64
	base      string   // a delta's base; empty for any other record
	refs      []string // a manifest's references
}

// Stats is a snapshot of one store's traffic counters. The same counts
// aggregate process-wide in the obsv registry under store.*.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, sums: map[string]string{}, bases: map[string]*Base{}, heads: map[string]recordHead{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns this store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Evictions:    s.evictions.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

func (s *Store) hit()  { s.hits.Add(1); obsv.Add(obsv.MStoreHits, 1) }
func (s *Store) miss() { s.misses.Add(1); obsv.Add(obsv.MStoreMisses, 1) }

// Fingerprint computes the content address of a compiled generation: a
// SHA-256 of the format version, the mapping's compact canonical encoding
// (modelio.AppendMapping, hashed a record at a time by modelio.HashMapping)
// and any extra strings that influenced compilation (e.g. compiler option
// flags). Two processes compiling the same model the same way compute the
// same fingerprint; any model or option change misses.
func Fingerprint(m *frag.Mapping, extras ...string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "incmap-gen:%d:", FormatVersion)
	if err := modelio.HashMapping(h, m); err != nil {
		return "", fmt.Errorf("store: fingerprint: %w", err)
	}
	for _, e := range extras {
		fmt.Fprintf(h, ":%d:%s", len(e), e)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// checksumOf binds the payload to its envelope fields, so a record cannot
// be truncated, bit-flipped, or spliced into another class/fingerprint/
// version without detection.
func checksumOf(version int, class, fp string, payload []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "incmap-store:%d:%s:%s:", version, class, fp)
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// envelopeHead returns the envelope fields that precede a payload, in the
// order a record holds them: the version (with the comma after it), the
// class, the fingerprint (empty when there is none) and the payload key.
// readRecord matches a record against the same fields.
func envelopeHead(class, fp string) [4][]byte {
	var f [4][]byte
	f[0] = strconv.AppendInt([]byte(`{"version":`), FormatVersion, 10)
	f[0] = append(f[0], ',')
	f[1] = appendJSONString([]byte(`"class":`), class)
	if fp != "" {
		f[2] = appendJSONString([]byte(`,"fingerprint":`), fp)
	}
	f[3] = []byte(`,"payload":`)
	return f
}

// The envelope after a payload: its checksum in hex, and the closing brace.
const (
	sumKey    = `,"sha256":"`
	sumSuffix = `"}`
	tailLen   = len(sumKey) + 2*sha256.Size + len(sumSuffix)
)

// newRecord starts a record of class under fp: a buffer holding the
// envelope head, with room for a payload of n bytes and the tail. The
// caller appends the payload and hands the buffer to writeRecord, so a
// record is built in one buffer, without copying its payload. For a
// compact payload the finished record holds the bytes json.Marshal writes
// for it.
func newRecord(class, fp string, n int) []byte {
	head := envelopeHead(class, fp)
	size := n + tailLen
	for _, f := range head {
		size += len(f)
	}
	rec := make([]byte, 0, size)
	for _, f := range head {
		rec = append(rec, f...)
	}
	return rec
}

// appendJSONString appends s as a JSON string. Envelope strings are short,
// so encoding/json escapes them.
func appendJSONString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// headLen is the length of the envelope head of a record of class under
// fp.
func headLen(class, fp string) int {
	n := 0
	for _, f := range envelopeHead(class, fp) {
		n += len(f)
	}
	return n
}

// writeRecord finishes and persists one artifact crash-safely: rec is a
// newRecord of class and fp followed by its payload. A payload that is not
// valid JSON is rejected; otherwise the checksum tail is appended and the
// record goes to a temp file in the target directory, fsync, atomic
// rename, directory fsync. It returns the record's checksum.
func (s *Store) writeRecord(name, class, fp string, rec []byte) (string, error) {
	payload := rec[headLen(class, fp):]
	if !validJSON(payload) {
		return "", fmt.Errorf("store: %s payload is not valid JSON", class)
	}
	sum := checksumOf(FormatVersion, class, fp, payload)
	data := append(rec, sumKey...)
	data = append(data, sum...)
	data = append(data, sumSuffix...)
	if ferr := faultinject.At(faultinject.SiteStoreSave); ferr != nil {
		if !faultinject.IsCorrupt(ferr) {
			return "", fmt.Errorf("store: %w", ferr)
		}
		// Simulated short write: the visible record ends up truncated, as
		// a torn write would leave it, and the write still reports
		// success. The next read rejects it on the checksum and the
		// caller degrades to a cold compile.
		data = data[:len(data)/2]
	}
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	s.bytesWritten.Add(int64(len(data)))
	obsv.Add(obsv.MStoreBytesWritten, int64(len(data)))
	return sum, syncDir(s.dir)
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// readFile reads one record file whole.
func (s *Store) readFile(name string) ([]byte, error) {
	if ferr := faultinject.At(faultinject.SiteStoreLoad); ferr != nil {
		return nil, fmt.Errorf("store: %w", ferr)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.bytesRead.Add(int64(len(data)))
	obsv.Add(obsv.MStoreBytesRead, int64(len(data)))
	return data, nil
}

// readRecord loads and verifies one artifact and returns its payload, a
// sub-slice of the bytes read. Every failure mode — missing file,
// truncation, bit flip, wrong version, wrong class, wrong fingerprint —
// returns an error; callers degrade to a cold start.
func (s *Store) readRecord(name, class, fp string) ([]byte, error) {
	data, err := s.readFile(name)
	if err != nil {
		return nil, err
	}
	payload, err := openRecord(data, class, fp)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	return payload, nil
}

// openRecord matches data against the envelope writeRecord writes around
// a payload for class and fp, byte for byte, and returns the payload once
// its checksum verifies. Every record the store ever wrote has that
// layout; a file with any other is corrupt.
func openRecord(data []byte, class, fp string) ([]byte, error) {
	rest := data
	for i, f := range envelopeHead(class, fp) {
		var ok bool
		if rest, ok = bytes.CutPrefix(rest, f); !ok {
			return nil, envelopeMismatch(i, rest, class)
		}
	}
	if len(rest) < tailLen || !bytes.HasPrefix(rest[len(rest)-tailLen:], []byte(sumKey)) ||
		!bytes.HasSuffix(rest, []byte(sumSuffix)) {
		return nil, errCorrupt
	}
	payload := rest[:len(rest)-tailLen]
	sum := rest[len(rest)-tailLen+len(sumKey) : len(rest)-len(sumSuffix)]
	if string(sum) != checksumOf(FormatVersion, class, fp, payload) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

var errCorrupt = errors.New("corrupt record")

// recordSum returns the checksum of a record openRecord accepted.
func recordSum(data []byte) string {
	return string(data[len(data)-tailLen+len(sumKey) : len(data)-len(sumSuffix)])
}

// envelopeMismatch names what differs where a record departs from the
// envelope at field i of envelopeHead; rest is the record from there on.
func envelopeMismatch(i int, rest []byte, class string) error {
	switch i {
	case 0:
		if digits, ok := bytes.CutPrefix(rest, []byte(`{"version":`)); ok {
			n := 0
			for n < len(digits) && '0' <= digits[n] && digits[n] <= '9' {
				n++
			}
			if v, err := strconv.Atoi(string(digits[:n])); err == nil && v != FormatVersion {
				return fmt.Errorf("format version %d, want %d", v, FormatVersion)
			}
		}
	case 1:
		if bytes.HasPrefix(rest, []byte(`"class":`)) {
			return fmt.Errorf("class mismatch, want %q", class)
		}
	case 2, 3:
		if bytes.HasPrefix(rest, []byte(`,"fingerprint":`)) || bytes.HasPrefix(rest, []byte(`,"payload":`)) {
			return errors.New("fingerprint mismatch")
		}
	}
	return errCorrupt
}

func genFileName(fp string) string { return "gen-" + fp + ".json" }

// validFingerprint reports whether fp can address a generation record: a
// non-empty string of lower-case hex digits, as Fingerprint writes them.
func validFingerprint(fp string) bool {
	if fp == "" || len(fp) > 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		if c := fp[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SaveGeneration persists a compiled (mapping, views) pair under its
// fingerprint as a full record and prunes generations beyond the cap. The
// payload is modelio's generation payload, {"mapping":…,"views":…}, which
// modelio.DecodeGeneration reads. Its length is known from the entry
// records before a byte is written, so the envelope, the payload and the
// checksum go into one buffer of exactly the record's size.
func (s *Store) SaveGeneration(fp string, m *frag.Mapping, v *frag.Views) error {
	_, err := s.saveFull(fp, m, v, false)
	return err
}

// saveFull writes (m, v) under fp as a full record and returns it as a
// base, adopted by a session if adopt is set.
func (s *Store) saveFull(fp string, m *frag.Mapping, v *frag.Views, adopt bool) (*Base, error) {
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	rec := p.AppendTo(newRecord(classGeneration, fp, p.Len()))
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, err := s.writeRecord(genFileName(fp), classGeneration, fp, rec)
	if err != nil {
		return nil, err
	}
	b := s.addBaseLocked(&Base{FP: fp, m: m, v: v, sum: sum, size: p.Len()})
	b.adopted = b.adopted || adopt
	s.pruneGenerationsLocked()
	return b, nil
}

// SaveCommit persists a session's commit, the generation (m, v), under fp
// and returns the session's base after it. Over a current base of another
// fingerprint it writes a delta, unless the delta would exceed
// 1/maxDeltaShare of the base's payload. Otherwise (no base, a base this
// handle has since overwritten or pruned, the base's own fingerprint, or an
// outgrown delta) it writes a full record and returns that as the base. On
// error base is returned unchanged.
func (s *Store) SaveCommit(fp string, m *frag.Mapping, v *frag.Views, base *Base) (*Base, error) {
	if base != nil && base.FP != fp {
		wrote, err := s.saveDelta(fp, m, v, base)
		if wrote || err != nil {
			return base, err
		}
	}
	nb, err := s.saveFull(fp, m, v, true)
	if err != nil {
		return base, err
	}
	return nb, nil
}

// saveDelta writes (m, v) under fp as a delta against base, if base is
// current and the delta stays within its share of it. It reports whether
// it wrote.
func (s *Store) saveDelta(fp string, m *frag.Mapping, v *frag.Views, base *Base) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sums[base.FP] != base.sum {
		return false, nil
	}
	rec, err := modelio.AppendDelta(newRecord(classDelta, fp, 0), base.FP, base.sum, base.m, base.v, m, v, base.size/maxDeltaShare)
	if errors.Is(err, modelio.ErrDeltaOverLimit) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if _, err := s.writeRecord(genFileName(fp), classDelta, fp, rec); err != nil {
		return false, err
	}
	s.dropFullLocked(fp)
	s.pruneGenerationsLocked()
	return true, nil
}

// addBaseLocked records b as the full record under its fingerprint, and
// as a base BaseFor may hand out, evicting the least recently used one
// beyond maxBases. An adopted base of the same bytes stays in place of b;
// addBaseLocked returns the base in effect.
func (s *Store) addBaseLocked(b *Base) *Base {
	s.sums[b.FP] = b.sum
	s.tick++
	if old := s.bases[b.FP]; old != nil && old.adopted && old.sum == b.sum {
		old.used = s.tick
		return old
	}
	b.used = s.tick
	s.bases[b.FP] = b
	var oldest *Base
	for _, c := range s.bases {
		if c != b && !c.adopted {
			delete(s.bases, c.FP)
		} else if oldest == nil || c.used < oldest.used {
			oldest = c
		}
	}
	if len(s.bases) > maxBases {
		delete(s.bases, oldest.FP)
	}
	return b
}

// dropFullLocked forgets the full record under fp: the file now holds
// something else, or nothing.
func (s *Store) dropFullLocked(fp string) {
	delete(s.sums, fp)
	delete(s.bases, fp)
}

// BaseFor returns the base a session opening at the generation (m, v)
// under fp writes its deltas against: the full record of that very
// generation that this handle wrote or loaded, if it is still current, and
// nil otherwise.
func (s *Store) BaseFor(fp string, m *frag.Mapping, v *frag.Views) *Base {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bases[fp]
	if b == nil || b.m != m || b.v != v || s.sums[fp] != b.sum {
		return nil
	}
	s.tick++
	b.used, b.adopted = s.tick, true
	return b
}

// LoadGeneration restores the compiled pair for a fingerprint, from its
// full record or from its delta and the full record that names. The
// decoded mapping passes the full modelio validation and the views are
// re-interned through the cond constructors, so a loaded generation is
// semantically indistinguishable from a freshly compiled one. A full
// record loaded becomes a base BaseFor may hand out.
func (s *Store) LoadGeneration(fp string) (*frag.Mapping, *frag.Views, error) {
	payload, sum, err := s.readGeneration(fp)
	if err != nil {
		s.miss()
		return nil, nil, err
	}
	m, v, err := modelio.DecodeGeneration(payload)
	if err != nil {
		s.miss()
		return nil, nil, fmt.Errorf("store: generation: %w", err)
	}
	s.hit()
	s.mu.Lock()
	if sum != "" {
		s.addBaseLocked(&Base{FP: fp, m: m, v: v, sum: sum, size: len(payload)})
	} else {
		s.dropFullLocked(fp)
	}
	s.mu.Unlock()
	return m, v, nil
}

// HasGeneration reports whether a (verifiable) generation record exists
// for the fingerprint, without decoding the payload: a full record, or a
// delta whose base is still the full record it was written against.
func (s *Store) HasGeneration(fp string) bool {
	_, _, err := s.readGeneration(fp)
	return err == nil
}

// readGeneration reads the record under fp and returns the generation
// payload it holds, rebuilt from its base if it is a delta, with the
// record's checksum if it is a full record.
func (s *Store) readGeneration(fp string) (payload []byte, sum string, err error) {
	name := genFileName(fp)
	data, err := s.readFile(name)
	if err != nil {
		return nil, "", err
	}
	payload, err = openRecord(data, classGeneration, fp)
	if err == nil {
		return payload, recordSum(data), nil
	}
	delta, derr := openRecord(data, classDelta, fp)
	if derr != nil {
		return nil, "", fmt.Errorf("store: %s: %w", name, err)
	}
	bfp, bsum, err := modelio.DeltaBase(delta)
	if err == nil && !validFingerprint(bfp) {
		err = fmt.Errorf("base %q is not a fingerprint", bfp)
	}
	if err != nil {
		return nil, "", fmt.Errorf("store: %s: %w", name, err)
	}
	bdata, err := s.readFile(genFileName(bfp))
	if err != nil {
		return nil, "", fmt.Errorf("store: %s: base: %w", name, err)
	}
	base, err := openRecord(bdata, classGeneration, bfp)
	if err != nil {
		return nil, "", fmt.Errorf("store: %s: base %s is not a full record: %w", name, bfp, err)
	}
	if recordSum(bdata) != bsum {
		return nil, "", fmt.Errorf("store: %s: base %s was rewritten after the delta", name, bfp)
	}
	if payload, err = modelio.ApplyDelta(base, delta); err != nil {
		return nil, "", fmt.Errorf("store: %s: %w", name, err)
	}
	return payload, "", nil
}

// pruneGenerationsLocked deletes the oldest generation files past the cap,
// keeping every generation a manifest references, every base this handle
// handed to a session and still holds, and the base of every delta kept.
func (s *Store) pruneGenerationsLocked() {
	max := s.MaxGenerations
	if max <= 0 {
		max = DefaultMaxGenerations
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "gen-*.json"))
	if err != nil || len(matches) <= max {
		return
	}
	type file struct {
		path, fp  string
		size, mod int64
	}
	files := make([]file, 0, len(matches))
	for _, p := range matches {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		base := filepath.Base(p)
		files = append(files, file{p, base[len("gen-") : len(base)-len(".json")], fi.Size(), fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod > files[j].mod })
	keep := make(map[string]bool, max)
	for i := 0; i < max && i < len(files); i++ {
		keep[files[i].fp] = true
	}
	for _, fp := range s.manifestRefsLocked() {
		keep[fp] = true
	}
	for fp, b := range s.bases {
		if b.adopted {
			keep[fp] = true
		}
	}
	for _, f := range files {
		if keep[f.fp] {
			if h := s.headLocked(f.path, f.size, f.mod, classDelta, f.fp); h.base != "" {
				keep[h.base] = true
			}
		}
	}
	for _, f := range files {
		if keep[f.fp] {
			continue
		}
		if os.Remove(f.path) == nil {
			s.dropFullLocked(f.fp)
			delete(s.heads, f.path)
			s.evictions.Add(1)
			obsv.Add(obsv.MStoreEvictions, 1)
		}
	}
}

// What headLocked reads of a record: enough for the envelope and a
// delta's base and checksum, or a manifest's first hundred references.
const (
	deltaHeadRead    = 512
	manifestHeadRead = 4096
)

// headLocked returns what the head of the record file at path says about
// retention, reading it unless the cache holds it for this size and
// modification time: the base of a delta (class classDelta) or the
// references of a manifest (class classManifest) recorded under fp. A
// file of another class, or one it cannot read, says nothing.
func (s *Store) headLocked(path string, size, mod int64, class, fp string) recordHead {
	if h, ok := s.heads[path]; ok && h.size == size && h.mod == mod {
		return h
	}
	h := recordHead{size: size, mod: mod}
	n := deltaHeadRead
	if class == classManifest {
		n = manifestHeadRead
	}
	data, err := readPrefix(path, n)
	if err == nil && class == classManifest && len(data) == n && size > int64(n) {
		if _, refsDone := manifestRefs(bytes.TrimPrefix(data, newRecord(class, fp, 0))); !refsDone {
			data, err = os.ReadFile(path)
		}
	}
	s.bytesRead.Add(int64(len(data)))
	obsv.Add(obsv.MStoreBytesRead, int64(len(data)))
	if err == nil {
		if rest, ok := bytes.CutPrefix(data, newRecord(class, fp, 0)); ok {
			switch class {
			case classDelta:
				if base, _, err := modelio.DeltaBase(rest); err == nil && validFingerprint(base) {
					h.base = base
				}
			case classManifest:
				h.refs, _ = manifestRefs(rest)
			}
		}
	}
	s.heads[path] = h
	return h
}

// readPrefix reads at most n bytes from the start of the file at path.
func readPrefix(path string, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	k, err := io.ReadFull(f, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil
	}
	return buf[:k], err
}

const satCacheFile = "satcache.json"

// SaveSatCache persists a SatCache snapshot — verdicts plus learned
// lemmas. SatCache keys embed content addresses and schema facts only, so
// no fingerprint is needed: a key is valid exactly for the (expression,
// theory) pair it encodes, whatever model it came from.
func (s *Store) SaveSatCache(c *cond.SatCache) error {
	rec := modelio.AppendSnapshot(newRecord(classSatCache, "", 0), c.Export())
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.writeRecord(satCacheFile, classSatCache, "", rec)
	return err
}

// LoadSatCache merges the persisted snapshot into the given cache.
// Verdicts arriving this way are marked persisted, so warm-start traffic
// is observable via SatCacheStats.PersistedHits.
func (s *Store) LoadSatCache(c *cond.SatCache) error {
	payload, err := s.readRecord(satCacheFile, classSatCache, "")
	if err != nil {
		s.miss()
		return err
	}
	snap, err := modelio.DecodeSnapshot(payload)
	if err != nil {
		s.miss()
		return fmt.Errorf("store: satcache: %w", err)
	}
	c.Import(snap)
	s.hit()
	return nil
}

// manifestFileName maps a manifest name to its record file. Names are
// restricted to a filesystem-safe alphabet by validManifestName.
func manifestFileName(name string) string { return "manifest-" + name + ".json" }

func validManifestName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// SaveManifest persists an opaque named payload — e.g. the serving
// daemon's tenant table — with the same checksummed crash-safe envelope as
// every other artifact. The name keys the record: a manifest can only be
// read back under the name it was saved with. refs are the fingerprints of
// the generations the manifest names; pruning keeps them while the
// manifest exists. The record's payload is {"refs":[…],"manifest":payload}.
func (s *Store) SaveManifest(name string, payload []byte, refs ...string) error {
	if !validManifestName(name) {
		return fmt.Errorf("store: invalid manifest name %q", name)
	}
	n := len(`{"refs":[],"manifest":}`) + len(payload)
	for _, fp := range refs {
		if !validFingerprint(fp) {
			return fmt.Errorf("store: manifest %q references %q, which is not a fingerprint", name, fp)
		}
		n += len(fp) + len(`"",`)
	}
	rec := append(newRecord(classManifest, name, n), `{"refs":[`...)
	for i, fp := range refs {
		if i > 0 {
			rec = append(rec, ',')
		}
		rec = append(rec, '"')
		rec = append(rec, fp...)
		rec = append(rec, '"')
	}
	rec = append(rec, `],"manifest":`...)
	rec = append(append(rec, payload...), '}')
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.writeRecord(manifestFileName(name), classManifest, name, rec)
	return err
}

// LoadManifest restores a named manifest payload. Any damage — truncation,
// checksum mismatch, wrong name — fails the load cleanly; callers treat a
// failed manifest like an empty one.
func (s *Store) LoadManifest(name string) ([]byte, error) {
	if !validManifestName(name) {
		return nil, fmt.Errorf("store: invalid manifest name %q", name)
	}
	payload, err := s.readRecord(manifestFileName(name), classManifest, name)
	if err == nil {
		payload, err = manifestBody(payload)
	}
	if err != nil {
		s.miss()
		return nil, err
	}
	s.hit()
	return payload, nil
}

// manifestBody returns the manifest a manifest record's payload wraps.
func manifestBody(payload []byte) ([]byte, error) {
	if i := bytes.IndexByte(payload, ']'); i >= 0 && bytes.HasPrefix(payload, []byte(`{"refs":[`)) {
		body, ok := bytes.CutPrefix(payload[i+1:], []byte(`,"manifest":`))
		if body, ok2 := bytes.CutSuffix(body, []byte("}")); ok && ok2 {
			return body, nil
		}
	}
	return nil, fmt.Errorf("store: manifest: %w", errCorrupt)
}

// manifestRefs reads the references at the start of a manifest record's
// payload, which may be cut short. It reports whether it read the whole
// list.
func manifestRefs(payload []byte) (refs []string, done bool) {
	rest, ok := bytes.CutPrefix(payload, []byte(`{"refs":[`))
	if !ok {
		return nil, false
	}
	for len(rest) > 0 {
		if rest[0] == ']' {
			return refs, true
		}
		if len(refs) > 0 {
			if rest, ok = bytes.CutPrefix(rest, []byte(",")); !ok {
				return refs, false
			}
		}
		if rest, ok = bytes.CutPrefix(rest, []byte(`"`)); !ok {
			return refs, false
		}
		i := bytes.IndexByte(rest, '"')
		if i < 0 || !validFingerprint(string(rest[:i])) {
			return refs, false
		}
		refs = append(refs, string(rest[:i]))
		rest = rest[i+1:]
	}
	return refs, false
}

// manifestRefsLocked returns the references of every manifest in the
// store.
func (s *Store) manifestRefsLocked() []string {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "manifest-*.json"))
	var refs []string
	for _, p := range matches {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		base := filepath.Base(p)
		name := base[len("manifest-") : len(base)-len(".json")]
		refs = append(refs, s.headLocked(p, fi.Size(), fi.ModTime().UnixNano(), classManifest, name).refs...)
	}
	return refs
}

// DeleteManifest removes a named manifest. Deleting a manifest that does
// not exist is not an error: the rollout engine retires checkpoints with
// best-effort idempotent deletes so a crash between deletes is harmless.
func (s *Store) DeleteManifest(name string) error {
	if !validManifestName(name) {
		return fmt.Errorf("store: invalid manifest name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, manifestFileName(name))
	delete(s.heads, path)
	err := os.Remove(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Generations lists the fingerprints with resident generation files,
// sorted. Mostly for tooling and tests.
func (s *Store) Generations() []string {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "gen-*.json"))
	out := make([]string, 0, len(matches))
	for _, p := range matches {
		base := filepath.Base(p)
		fp := base[len("gen-") : len(base)-len(".json")]
		if _, err := hex.DecodeString(fp); err == nil && fp != "" {
			out = append(out, fp)
		}
	}
	sort.Strings(out)
	return out
}
