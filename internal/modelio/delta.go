// Generation deltas. A delta encodes one generation payload against
// another, its base. For each of the payload's eight lists (the mapping's
// types, sets, associations, tables and fragments, and the view set's
// query, assoc and update maps) it holds, in list order, runs of the
// base's entries to keep and the entries the base lacks. AppendDelta
// builds one from the two generations' entry records (records.go),
// matching entries by identity, so it encodes nothing: its cost is the
// change plus one pointer comparison per entry. ApplyDelta rebuilds, from
// the base's payload, exactly the bytes EncodeGeneration writes for the
// generation the delta encodes.
//
// A delta is the JSON object
//
//	{"base":FP,"sum":SUM,"types":[…],"sets":[…],"associations":[…],
//	 "tables":[…],"fragments":[…],"query":[…],"assoc":[…],"update":[…]}
//
// in which each list element is either a run [start,count] of the base
// list's entries or one new entry: its record in a mapping list,
// {name:record} in a view map. FP and SUM name the base record for the
// store; ApplyDelta does not read them.

package modelio

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/ormkit/incmap/internal/frag"
)

// deltaLists are the payload's lists, in the order a delta holds them:
// the mapping's five, then the view set's three maps (viewParts).
var deltaLists = [8]string{"types", "sets", "associations", "tables", "fragments", "query", "assoc", "update"}

// NoLimit is AppendDelta's limit for a delta of any size.
const NoLimit = -1

// ErrDeltaOverLimit reports that a delta's payload exceeds the limit
// AppendDelta was given.
var ErrDeltaOverLimit = errors.New("modelio: delta over its limit")

// AppendDelta appends to dst the delta that encodes the generation (m, v)
// against the generation (bm, bv), naming the base fp and sum. Once the
// delta's bytes pass limit (NoLimit for none), it stops and returns
// ErrDeltaOverLimit, having appended at most limit bytes plus one list
// element: a caller that would not write such a delta does not build it.
func AppendDelta(dst []byte, fp, sum string, bm *frag.Mapping, bv *frag.Views, m *frag.Mapping, v *frag.Views, limit int) ([]byte, error) {
	bmr, err := mappingRecordsOf(bm)
	if err != nil {
		return dst, err
	}
	bvr, err := viewRecordsOf(bv)
	if err != nil {
		return dst, err
	}
	mr, err := mappingRecordsOf(m)
	if err != nil {
		return dst, err
	}
	vr, err := viewRecordsOf(v)
	if err != nil {
		return dst, err
	}
	d := &deltaBuf{b: dst, end: -1}
	if limit >= 0 {
		d.end = len(dst) + limit
	}
	d.b = append(d.b, `{"base":`...)
	d.b = appendString(d.b, fp)
	d.b = append(d.b, `,"sum":`...)
	d.b = appendString(d.b, sum)
	appendDeltaList(d, 0, &mr.types, &bmr.types, nil, nil)
	appendDeltaList(d, 1, &mr.sets, &bmr.sets, nil, nil)
	appendDeltaList(d, 2, &mr.assocs, &bmr.assocs, nil, nil)
	appendDeltaList(d, 3, &mr.tables, &bmr.tables, nil, nil)
	appendDeltaList(d, 4, &mr.frags, &bmr.frags, nil, nil)
	for p := range vr.parts {
		appendDeltaList(d, 5+p, &vr.parts[p].views, &bvr.parts[p].views, vr.parts[p].names, bvr.parts[p].names)
	}
	d.b = append(d.b, '}')
	if d.over() {
		return d.b, ErrDeltaOverLimit
	}
	return d.b, nil
}

// deltaBuf is a delta being built, and the length past which it is over
// its limit (end < 0: no limit).
type deltaBuf struct {
	b   []byte
	end int
}

func (d *deltaBuf) over() bool { return d.end >= 0 && len(d.b) > d.end }

// appendDeltaList appends list l of a delta: s against base. An entry of
// s that base holds (by identity, and in a view map under the same name)
// joins a run; any other is written out. names and baseNames are the view
// map's names, nil for a mapping list. Once the delta is over its limit,
// it appends nothing more.
func appendDeltaList[K comparable](d *deltaBuf, l int, s, base *section[K], names, baseNames []string) {
	if d.over() {
		return
	}
	dst := append(d.b, ',', '"')
	dst = append(dst, deltaLists[l]...)
	dst = append(dst, `":[`...)
	n := 0 // elements written
	sep := func() {
		if n++; n > 1 {
			dst = append(dst, ',')
		}
	}
	run := func(start, count int) {
		sep()
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(start), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(count), 10)
		dst = append(dst, ']')
	}
	next := 0            // the base entry after the last one kept
	start, count := 0, 0 // the open run
	for i, k := range s.keys {
		j, ok := next, next < len(base.keys) && base.keys[next] == k
		if !ok {
			j, ok = base.index(k)
		}
		if ok && names != nil && baseNames[j] != names[i] {
			ok = false
		}
		if ok && count > 0 && j == start+count {
			count++
			next = j + 1
			continue
		}
		if count > 0 {
			run(start, count)
			count = 0
		}
		if ok {
			start, count, next = j, 1, j+1
			continue
		}
		sep()
		if names == nil {
			dst = append(dst, s.recs[i]...)
		} else {
			dst = append(dst, '{')
			dst = appendString(dst, names[i])
			dst = append(dst, ':')
			dst = append(dst, s.recs[i]...)
			dst = append(dst, '}')
		}
		if d.b = dst; d.over() {
			return
		}
	}
	if count > 0 {
		run(start, count)
	}
	d.b = append(dst, ']')
}

// DeltaBase returns the fingerprint and checksum of the base record a
// delta names. It reads only the delta's first two fields, so a prefix of
// the delta that holds them is enough.
func DeltaBase(delta []byte) (fp, sum string, err error) {
	d := decoder{data: delta}
	fp, sum = d.deltaHead()
	return fp, sum, d.err
}

// ApplyDelta rebuilds the generation payload that delta encodes against
// base, the payload of the full record it names: the bytes
// EncodeGeneration wrote for the generation. A base or delta laid out
// otherwise than EncodeGeneration and AppendDelta write them, and a run
// outside its base list, is an error. A list keeps each base entry at most
// once, as AppendDelta writes it, which bounds the result by the two
// inputs.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	lists, err := splitGeneration(base)
	if err != nil {
		return nil, fmt.Errorf("modelio: delta base: %w", err)
	}
	d := decoder{data: delta}
	d.deltaHead()
	var out [8]entryList
	for l := range out {
		d.expect(`,"` + deltaLists[l] + `":`)
		out[l] = d.deltaList(&lists[l], l >= 5)
	}
	d.expect("}")
	if err := d.end(); err != nil {
		return nil, fmt.Errorf("modelio: delta: %w", err)
	}
	mr := &mappingRecords{}
	mr.types.recs, mr.sets.recs, mr.assocs.recs = out[0].recs, out[1].recs, out[2].recs
	mr.tables.recs, mr.frags.recs = out[3].recs, out[4].recs
	mr.measure()
	vr := &viewRecords{}
	for p := range vr.parts {
		vr.parts[p].names, vr.parts[p].views.recs = out[5+p].names, out[5+p].recs
	}
	vr.measure()
	return GenerationPayload{mr, vr}.AppendTo(nil), nil
}

// entryList is one list of a generation payload: its entries' records
// and, for a view map, their names.
type entryList struct {
	names []string
	recs  [][]byte
}

// expect consumes lit, failing the decode if anything else comes next.
func (d *decoder) expect(lit string) {
	if d.err == nil && !d.literal(lit) {
		d.syntax("where the layout wants " + lit)
	}
}

// deltaHead reads a delta's opening brace and its base's fingerprint and
// checksum.
func (d *decoder) deltaHead() (fp, sum string) {
	d.expect(`{"base":`)
	fp = d.str()
	d.expect(`,"sum":`)
	sum = d.str()
	return fp, sum
}

// deltaList reads one list of a delta and returns the entries it encodes
// against base.
func (d *decoder) deltaList(base *entryList, named bool) entryList {
	var out entryList
	kept := 0
	if !d.array() {
		return out
	}
	for n := 0; d.element(&n); {
		switch d.peek() {
		case '[':
			d.open()
			start := d.count()
			d.expect(",")
			count := d.count()
			d.expect("]")
			d.depth--
			if d.err != nil {
				return entryList{}
			}
			if count < 1 || start > len(base.recs)-count || kept > len(base.recs)-count {
				d.fail(fmt.Errorf("modelio: delta run [%d,%d] outside a base list of %d entries (%d kept)", start, count, len(base.recs), kept))
				return entryList{}
			}
			kept += count
			out.recs = append(out.recs, base.recs[start:start+count]...)
			if named {
				out.names = append(out.names, base.names[start:start+count]...)
			}
		case '{':
			if !named {
				s := d.raw()
				out.recs = append(out.recs, d.data[s.start:s.end])
				continue
			}
			d.open()
			m := 0
			if !d.member(&m) {
				d.fail(errors.New("modelio: delta view entry without a view"))
				return entryList{}
			}
			name := string(d.key)
			s := d.raw()
			if d.member(&m) {
				d.fail(fmt.Errorf("modelio: delta view entry %q holds more than one view", name))
				return entryList{}
			}
			out.names = append(out.names, name)
			out.recs = append(out.recs, d.data[s.start:s.end])
		default:
			d.mismatch("a run or an entry")
		}
	}
	return out
}

// count reads a number that is a non-negative int.
func (d *decoder) count() int {
	if d.err != nil {
		return 0
	}
	d.peek()
	b := d.number()
	n, err := strconv.Atoi(string(b))
	if d.err == nil && (err != nil || n < 0) {
		d.fail(fmt.Errorf("modelio: offset %d: %s is not a count", d.pos, b))
	}
	return n
}

// splitGeneration reads a generation payload laid out as EncodeGeneration
// writes it and returns its lists' entries, sub-slices of data.
func splitGeneration(data []byte) ([8]entryList, error) {
	var lists [8]entryList
	d := decoder{data: data}
	d.expect(`{"mapping":`)
	d.expect(string(pTypes))
	lists[0] = d.recordList()
	d.expect(string(pSets))
	lists[1] = d.recordList()
	if d.err == nil && d.literal(string(pAssocs)) {
		lists[2] = d.recordList()
	}
	d.expect(string(pTables))
	lists[3] = d.recordList()
	d.expect(string(pFrags))
	lists[4] = d.recordList()
	d.expect(string(pEnd))
	d.expect(`,"views":{`)
	sep := ""
	for p, part := range viewParts {
		field := sep + part.field[:len(part.field)-1] // the map's key, without its opening brace
		if d.err != nil || !d.literal(field) {
			continue
		}
		sep = ","
		if !d.object() {
			continue
		}
		l := &lists[5+p]
		for n := 0; d.member(&n); {
			l.names = append(l.names, string(d.key))
			s := d.raw()
			l.recs = append(l.recs, d.data[s.start:s.end])
		}
	}
	d.expect("}}")
	return lists, d.end()
}

// recordList reads a mapping list: null, or an array of records.
func (d *decoder) recordList() entryList {
	var out entryList
	if !d.array() {
		return out
	}
	for n := 0; d.element(&n); {
		if d.peek() != '{' {
			d.mismatch("a record")
			break
		}
		s := d.raw()
		out.recs = append(out.recs, d.data[s.start:s.end])
	}
	return out
}
