// Entry records. Every encode assembles its document from one record per
// entry — type, set, association, table, fragment, view — the entry's
// compact encoding, exactly the bytes the document holds for it. A frozen
// generation (frag.Mapping.Freeze, frag.Views.Freeze) keeps its records in
// its memo, built at its first encode. A generation cloned from a frozen
// one finds every entry the two share in that ancestor's records by
// identity, so its encode writes fresh bytes only for the entries its SMO
// created or copied. Shared entries are never written (the copy-on-write
// rule), so a record stays the encoding of its entry; the DeepClone memo
// oracle in internal/difftest checks that on every suite generation and
// every fuzzed SMO step. Unfrozen generations build their records afresh
// on each encode and keep none.

package modelio

import (
	"fmt"
	"hash"
	"slices"
	"sync"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// section holds the records of one list of a document, in document order.
// by indexes them by entry identity for the generations cloned from this
// one and the deltas written against it; it is built at their first
// lookup. keys keep the entries alive, so no other entry can take an
// indexed one's address.
type section[K comparable] struct {
	keys []K
	recs [][]byte

	once sync.Once
	by   map[K]int
}

// index returns the position of entry k in the section.
func (s *section[K]) index(k K) (int, bool) {
	s.once.Do(func() {
		s.by = make(map[K]int, len(s.keys))
		for i, k := range s.keys {
			s.by[k] = i
		}
	})
	i, ok := s.by[k]
	return i, ok
}

// recorder encodes the entries no base record covers into one buffer
// and slices each record out of it once the buffer has stopped growing.
type recorder struct {
	e       encoder
	pending []pendingRecord
	failed  int // index of the entry whose encode failed
}

type pendingRecord struct {
	recs       [][]byte
	i          int
	start, end int
}

// fill gives s the records of keys: each found in base by identity, else
// encoded by enc. It stops at the first failed encode and notes its index.
func fill[K comparable](b *recorder, s *section[K], keys []K, base *section[K], enc func(*encoder, K)) {
	s.keys, s.recs = keys, make([][]byte, len(keys))
	for i, k := range keys {
		if j, ok := base.index(k); ok {
			s.recs[i] = base.recs[j]
			continue
		}
		start := len(b.e.b)
		enc(&b.e, k)
		if b.e.err != nil {
			b.failed = i
			return
		}
		b.pending = append(b.pending, pendingRecord{s.recs, i, start, len(b.e.b)})
	}
}

// finish points the pending records at their bytes.
func (b *recorder) finish() {
	for _, p := range b.pending {
		p.recs[p.i] = b.e.b[p.start:p.end:p.end]
	}
}

// listLen returns the length of the section's list: null when it is
// empty, else [rec,rec,...].
func (s *section[K]) listLen() int {
	if len(s.recs) == 0 {
		return len("null")
	}
	n := len(s.recs) + 1 // brackets and commas
	for _, r := range s.recs {
		n += len(r)
	}
	return n
}

// each emits the section's list a piece at a time.
func (s *section[K]) each(emit func([]byte)) {
	if len(s.recs) == 0 {
		emit(pNull)
		return
	}
	for i, r := range s.recs {
		if i == 0 {
			emit(pOpen)
		} else {
			emit(pComma)
		}
		emit(r)
	}
	emit(pClose)
}

// The mapping document's fixed pieces, in document order.
var (
	pNull   = []byte("null")
	pOpen   = []byte("[")
	pComma  = []byte(",")
	pClose  = []byte("]")
	pTypes  = []byte(`{"client":{"types":`)
	pSets   = []byte(`,"sets":`)
	pAssocs = []byte(`,"associations":`)
	pTables = []byte(`},"store":{"tables":`)
	pFrags  = []byte(`},"fragments":`)
	pEnd    = []byte(`}`)
)

// mappingRecords are the records of a mapping document.
type mappingRecords struct {
	types  section[*edm.EntityType]
	sets   section[*edm.EntitySet]
	assocs section[*edm.Association]
	tables section[*rel.Table]
	frags  section[*frag.Fragment]
	size   int
}

// generation is a frozen-or-not mapping or view set.
type generation interface {
	Frozen() bool
	Memo(build func(base any) (any, error)) (any, error)
	BaseMemo() any
}

// recordsOf returns g's records: its memo when g is frozen, else built
// for this encode from the frozen ancestor's, if any.
func recordsOf[R any](g generation, build func(base *R) (*R, error)) (*R, error) {
	if !g.Frozen() {
		base, _ := g.BaseMemo().(*R)
		return build(base)
	}
	r, err := g.Memo(func(base any) (any, error) {
		b, _ := base.(*R)
		return build(b)
	})
	if err != nil {
		return nil, err
	}
	return r.(*R), nil
}

func mappingRecordsOf(m *frag.Mapping) (*mappingRecords, error) {
	return recordsOf(m, func(base *mappingRecords) (*mappingRecords, error) { return buildMappingRecords(m, base) })
}

func buildMappingRecords(m *frag.Mapping, base *mappingRecords) (*mappingRecords, error) {
	if base == nil {
		base = &mappingRecords{}
	}
	var b recorder
	r := &mappingRecords{}
	fill(&b, &r.types, m.Client.Types(), &base.types, (*encoder).entityType)
	fill(&b, &r.sets, m.Client.Sets(), &base.sets, (*encoder).entitySet)
	fill(&b, &r.assocs, m.Client.Associations(), &base.assocs, (*encoder).association)
	fill(&b, &r.tables, m.Store.Tables(), &base.tables, (*encoder).table)
	fill(&b, &r.frags, m.Frags, &base.frags, (*encoder).fragment)
	if b.e.err != nil {
		return nil, b.e.err
	}
	b.finish()
	r.measure()
	return r, nil
}

// measure sets size from the records.
func (r *mappingRecords) measure() {
	r.size = len(pTypes) + r.types.listLen() + len(pSets) + r.sets.listLen() +
		len(pTables) + r.tables.listLen() + len(pFrags) + r.frags.listLen() + len(pEnd)
	if len(r.assocs.recs) > 0 {
		r.size += len(pAssocs) + r.assocs.listLen()
	}
}

// each emits the mapping document a piece at a time.
func (r *mappingRecords) each(emit func([]byte)) {
	emit(pTypes)
	r.types.each(emit)
	emit(pSets)
	r.sets.each(emit)
	if len(r.assocs.recs) > 0 {
		emit(pAssocs)
		r.assocs.each(emit)
	}
	emit(pTables)
	r.tables.each(emit)
	emit(pFrags)
	r.frags.each(emit)
	emit(pEnd)
}

func (r *mappingRecords) appendTo(dst []byte) []byte {
	dst = slices.Grow(dst, r.size)
	r.each(func(p []byte) { dst = append(dst, p...) })
	return dst
}

// viewRecords are the records of a views document: for each of its three
// maps, the view names in sorted order and the views' records in the same
// order.
type viewRecords struct {
	parts [3]viewPart
	size  int
}

type viewPart struct {
	names []string
	views section[*cqt.View]
}

// The views document's maps, in document order.
var viewParts = [3]struct {
	field string
	views func(*frag.Views) map[string]*cqt.View
}{
	{`"query":{`, func(v *frag.Views) map[string]*cqt.View { return v.Query }},
	{`"assoc":{`, func(v *frag.Views) map[string]*cqt.View { return v.Assoc }},
	{`"update":{`, func(v *frag.Views) map[string]*cqt.View { return v.Update }},
}

func viewRecordsOf(v *frag.Views) (*viewRecords, error) {
	return recordsOf(v, func(base *viewRecords) (*viewRecords, error) { return buildViewRecords(v, base) })
}

func buildViewRecords(v *frag.Views, base *viewRecords) (*viewRecords, error) {
	if base == nil {
		base = &viewRecords{}
	}
	var b recorder
	r := &viewRecords{}
	for p, part := range viewParts {
		m := part.views(v)
		names := appendSortedKeys(make([]string, 0, len(m)), m)
		views := make([]*cqt.View, len(names))
		for i, name := range names {
			views[i] = m[name]
		}
		r.parts[p].names = names
		fill(&b, &r.parts[p].views, views, &base.parts[p].views, (*encoder).view)
		if b.e.err != nil {
			return nil, fmt.Errorf("modelio: view %q: %w", names[b.failed], b.e.err)
		}
	}
	b.finish()
	r.measure()
	return r, nil
}

// measure sets size from the names and records.
func (r *viewRecords) measure() {
	r.size = len("{}")
	present := 0
	for p := range r.parts {
		part := &r.parts[p]
		if len(part.names) == 0 {
			continue
		}
		if present++; present > 1 {
			r.size++ // the comma between maps
		}
		r.size += len(viewParts[p].field) + len("}") + len(part.names) - 1 // field, close, commas
		for i, name := range part.names {
			r.size += quotedLen(name) + len(":") + len(part.views.recs[i])
		}
	}
}

func (r *viewRecords) appendTo(dst []byte) []byte {
	dst = slices.Grow(dst, r.size)
	dst = append(dst, '{')
	first := true
	for p := range r.parts {
		part := &r.parts[p]
		if len(part.names) == 0 {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, viewParts[p].field...)
		for i, name := range part.names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
			dst = append(dst, ':')
			dst = append(dst, part.views.recs[i]...)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// quotedLen is len(appendString(nil, s)), without the append when s needs
// no escape.
func quotedLen(s string) int {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b >= 0x80 || !safeASCII[b] {
			return len(appendString(nil, s))
		}
	}
	return len(s) + 2
}

// HashMapping writes to h the bytes AppendMapping would append for m, a
// record at a time, without assembling the document.
func HashMapping(h hash.Hash, m *frag.Mapping) error {
	r, err := mappingRecordsOf(m)
	if err != nil {
		return err
	}
	r.each(func(p []byte) { h.Write(p) })
	return nil
}

// GenerationPayload is the payload of a store generation record,
// {"mapping":…,"views":…}: the compact mapping and views documents, which
// DecodeGeneration reads back. Its length is known before it is written.
type GenerationPayload struct {
	m *mappingRecords
	v *viewRecords
}

// EncodeGeneration returns the generation payload of m and v.
func EncodeGeneration(m *frag.Mapping, v *frag.Views) (GenerationPayload, error) {
	mr, err := mappingRecordsOf(m)
	if err != nil {
		return GenerationPayload{}, err
	}
	vr, err := viewRecordsOf(v)
	if err != nil {
		return GenerationPayload{}, err
	}
	return GenerationPayload{mr, vr}, nil
}

// Len returns the payload's length in bytes.
func (p GenerationPayload) Len() int {
	return len(`{"mapping":,"views":}`) + p.m.size + p.v.size
}

// AppendTo appends the payload to dst.
func (p GenerationPayload) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, p.Len())
	dst = append(dst, `{"mapping":`...)
	dst = p.m.appendTo(dst)
	dst = append(dst, `,"views":`...)
	dst = p.v.appendTo(dst)
	return append(dst, '}')
}
