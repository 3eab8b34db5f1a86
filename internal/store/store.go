// Package store is the content-addressed persistent compile cache: an
// on-disk directory of compilation artifacts that lets a new process warm
// start instead of recompiling from scratch. Three artifact classes are
// kept:
//
//   - compiled generations: a (mapping, views) pair keyed by a fingerprint
//     of the mapping's full content plus the format version, so a store
//     entry can never be served to a model it was not compiled from;
//   - SatCache snapshots: solver verdicts and learned CDCL lemmas, whose
//     keys are content-addressed (internal/cond) and therefore portable
//     across processes by construction;
//   - named manifests: opaque payloads such as the serving daemon's tenant
//     table and rollout checkpoints.
//
// Durability model: every artifact is one JSON record wrapped in a
// checksummed envelope, written to a temp file in the same directory,
// fsynced, atomically renamed into place, and made durable by an fsync of
// the directory — a crash mid-write leaves either the old record or a stray
// temp file, never a torn visible record. Reads verify the format version,
// the artifact class, the fingerprint and the checksum before decoding the
// payload; any mismatch, truncation or decode failure makes the load fail
// cleanly, which callers treat as a cold start. The store never makes
// correctness worse — it can only save work, not change results.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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
// ignored (cold start), never migrated in place.
const FormatVersion = 1

// DefaultMaxGenerations bounds how many compiled generations a store keeps;
// older files (by modification time) are pruned on save.
const DefaultMaxGenerations = 32

// Artifact classes.
const (
	classGeneration = "generation"
	classSatCache   = "satcache"
	classManifest   = "manifest"
)

// Store is a handle on one cache directory. Safe for concurrent use within
// a process; concurrent writers in different processes are safe against
// corruption (atomic renames) though last-writer-wins per file.
type Store struct {
	dir string
	// MaxGenerations bounds resident generation files; zero means
	// DefaultMaxGenerations.
	MaxGenerations int

	mu sync.Mutex // serializes save+prune cycles

	hits, misses, evictions atomic.Int64
	bytesRead, bytesWritten atomic.Int64
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
	return &Store{dir: dir}, nil
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

// writeRecord finishes and persists one artifact crash-safely: rec is a
// newRecord of class and fp followed by its payload. A payload that is not
// valid JSON is rejected; otherwise the checksum tail is appended and the
// record goes to a temp file in the target directory, fsync, atomic
// rename, directory fsync.
func (s *Store) writeRecord(name, class, fp string, rec []byte) error {
	headLen := 0
	for _, f := range envelopeHead(class, fp) {
		headLen += len(f)
	}
	payload := rec[headLen:]
	if !validJSON(payload) {
		return fmt.Errorf("store: %s payload is not valid JSON", class)
	}
	data := append(rec, sumKey...)
	data = append(data, checksumOf(FormatVersion, class, fp, payload)...)
	data = append(data, sumSuffix...)
	if ferr := faultinject.At(faultinject.SiteStoreSave); ferr != nil {
		if !faultinject.IsCorrupt(ferr) {
			return fmt.Errorf("store: %w", ferr)
		}
		// Simulated short write: the visible record ends up truncated, as
		// a torn write would leave it, and the write still reports
		// success. The next read rejects it on the checksum and the
		// caller degrades to a cold compile.
		data = data[:len(data)/2]
	}
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.bytesWritten.Add(int64(len(data)))
	obsv.Add(obsv.MStoreBytesWritten, int64(len(data)))
	return syncDir(s.dir)
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

// readRecord loads and verifies one artifact and returns its payload, a
// sub-slice of the bytes read. Every failure mode — missing file,
// truncation, bit flip, wrong version, wrong class, wrong fingerprint —
// returns an error; callers degrade to a cold start.
func (s *Store) readRecord(name, class, fp string) ([]byte, error) {
	if ferr := faultinject.At(faultinject.SiteStoreLoad); ferr != nil {
		return nil, fmt.Errorf("store: %w", ferr)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.bytesRead.Add(int64(len(data)))
	obsv.Add(obsv.MStoreBytesRead, int64(len(data)))
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

// SaveGeneration persists a compiled (mapping, views) pair under its
// fingerprint and prunes generations beyond the cap. The payload is
// modelio's generation payload, {"mapping":…,"views":…}, which
// modelio.DecodeGeneration reads. Its length is known from the entry
// records before a byte is written, so the envelope, the payload and the
// checksum go into one buffer of exactly the record's size.
func (s *Store) SaveGeneration(fp string, m *frag.Mapping, v *frag.Views) error {
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	rec := p.AppendTo(newRecord(classGeneration, fp, p.Len()))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeRecord(genFileName(fp), classGeneration, fp, rec); err != nil {
		return err
	}
	s.pruneGenerationsLocked()
	return nil
}

// LoadGeneration restores the compiled pair for a fingerprint. The decoded
// mapping passes the full modelio validation and the views are re-interned
// through the cond constructors, so a loaded generation is semantically
// indistinguishable from a freshly compiled one.
func (s *Store) LoadGeneration(fp string) (*frag.Mapping, *frag.Views, error) {
	payload, err := s.readRecord(genFileName(fp), classGeneration, fp)
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
	return m, v, nil
}

// HasGeneration reports whether a (verifiable) generation record exists
// for the fingerprint, without decoding the payload.
func (s *Store) HasGeneration(fp string) bool {
	_, err := s.readRecord(genFileName(fp), classGeneration, fp)
	return err == nil
}

// pruneGenerationsLocked deletes the oldest generation files past the cap.
func (s *Store) pruneGenerationsLocked() {
	max := s.MaxGenerations
	if max <= 0 {
		max = DefaultMaxGenerations
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "gen-*.json"))
	if err != nil || len(matches) <= max {
		return
	}
	type aged struct {
		path string
		mod  int64
	}
	files := make([]aged, 0, len(matches))
	for _, p := range matches {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		files = append(files, aged{p, fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for i := 0; i < len(files)-max; i++ {
		if os.Remove(files[i].path) == nil {
			s.evictions.Add(1)
			obsv.Add(obsv.MStoreEvictions, 1)
		}
	}
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
	return s.writeRecord(satCacheFile, classSatCache, "", rec)
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
// read back under the name it was saved with.
func (s *Store) SaveManifest(name string, payload []byte) error {
	if !validManifestName(name) {
		return fmt.Errorf("store: invalid manifest name %q", name)
	}
	rec := append(newRecord(classManifest, name, len(payload)), payload...)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeRecord(manifestFileName(name), classManifest, name, rec)
}

// LoadManifest restores a named manifest payload. Any damage — truncation,
// checksum mismatch, wrong name — fails the load cleanly; callers treat a
// failed manifest like an empty one.
func (s *Store) LoadManifest(name string) ([]byte, error) {
	if !validManifestName(name) {
		return nil, fmt.Errorf("store: invalid manifest name %q", name)
	}
	payload, err := s.readRecord(manifestFileName(name), classManifest, name)
	if err != nil {
		s.miss()
		return nil, err
	}
	s.hit()
	return payload, nil
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
	err := os.Remove(filepath.Join(s.dir, manifestFileName(name)))
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
