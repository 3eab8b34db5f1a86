// Compact encoders. AppendMapping and AppendViews write, straight from the
// frag/edm/rel/cqt/cond trees, exactly the bytes json.Marshal produces for
// the document forms (Document, ViewsDoc): the same field order, the same
// omitted fields, nil slices and maps as null, map keys sorted, and strings
// escaped as json.Marshal escapes them. No document tree is built and no
// reflection runs: an encode assembles the document from its entries'
// records (records.go), encoding only the entries that have none. The
// doc-tree encoders in the package tests are the byte-identity oracle;
// AppendSnapshot's is json.Marshal itself.

package modelio

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// AppendMapping appends the compact JSON document of m to dst, assembled
// from m's entry records (records.go). On error dst is returned unchanged.
func AppendMapping(dst []byte, m *frag.Mapping) ([]byte, error) {
	r, err := mappingRecordsOf(m)
	if err != nil {
		return dst, err
	}
	return r.appendTo(dst), nil
}

// AppendViews appends the compact structural JSON of a compiled view set to
// dst, assembled from its entry records. On error dst is returned
// unchanged.
func AppendViews(dst []byte, v *frag.Views) ([]byte, error) {
	r, err := viewRecordsOf(v)
	if err != nil {
		return dst, err
	}
	return r.appendTo(dst), nil
}

// encoder appends JSON to b. The first error sticks; callers check it once
// at the end.
type encoder struct {
	b    []byte
	err  error
	keys []string // scratch for sorting the keys of one leaf map
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// The mapping document's entries. Each writes the one object the document
// holds for its entry, which is the entry's record.

func (e *encoder) entityType(t *edm.EntityType) {
	e.raw(`{"name":`)
	e.str(t.Name)
	e.optStr(`,"base":`, t.Base)
	if t.Abstract {
		e.raw(`,"abstract":true`)
	}
	if len(t.Attrs) > 0 {
		e.raw(`,"attrs":`)
		for j, a := range t.Attrs {
			e.raw(listSep(j))
			e.attr(a.Name, a.Type, a.Nullable, a.Enum)
		}
		e.raw("]")
	}
	if len(t.Key) > 0 {
		e.raw(`,"key":`)
		e.strs(t.Key)
	}
	e.raw("}")
}

func (e *encoder) entitySet(s *edm.EntitySet) {
	e.raw(`{"name":`)
	e.str(s.Name)
	e.raw(`,"type":`)
	e.str(s.Type)
	e.raw("}")
}

func (e *encoder) association(a *edm.Association) {
	e.raw(`{"name":`)
	e.str(a.Name)
	e.raw(`,"end1":{"type":`)
	e.str(a.End1.Type)
	e.raw(`,"mult":`)
	e.str(multName(a.End1.Mult))
	e.raw(`},"end2":{"type":`)
	e.str(a.End2.Type)
	e.raw(`,"mult":`)
	e.str(multName(a.End2.Mult))
	e.raw("}}")
}

func (e *encoder) table(t *rel.Table) {
	e.raw(`{"name":`)
	e.str(t.Name)
	e.raw(`,"cols":`)
	if len(t.Cols) == 0 {
		e.raw("null")
	} else {
		for j, c := range t.Cols {
			e.raw(listSep(j))
			e.attr(c.Name, c.Type, c.Nullable, c.Enum)
		}
		e.raw("]")
	}
	e.raw(`,"key":`)
	e.strs(t.Key)
	if len(t.FKs) > 0 {
		e.raw(`,"fks":`)
		for j, fk := range t.FKs {
			e.raw(listSep(j))
			e.raw(`{"name":`)
			e.str(fk.Name)
			e.raw(`,"cols":`)
			e.strs(fk.Cols)
			e.raw(`,"refTable":`)
			e.str(fk.RefTable)
			e.raw(`,"refCols":`)
			e.strs(fk.RefCols)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw("}")
}

func (e *encoder) fragment(f *frag.Fragment) {
	e.raw(`{"id":`)
	e.str(f.ID)
	e.optStr(`,"set":`, f.Set)
	e.optStr(`,"assoc":`, f.Assoc)
	e.raw(`,"clientCond":`)
	e.str(f.ClientCond.String())
	e.raw(`,"attrs":`)
	e.strs(f.Attrs)
	e.raw(`,"table":`)
	e.str(f.Table)
	e.raw(`,"storeCond":`)
	e.str(f.StoreCond.String())
	e.raw(`,"colOf":`)
	e.strMap(f.ColOf)
	e.raw("}")
}

// attr encodes an attribute or column (AttrDoc). Enum values are read as
// the declared kind, as decode reads them back; an undeclared kind encodes
// each value as null.
func (e *encoder) attr(name string, k cond.Kind, nullable bool, enum []cond.Value) {
	e.raw(`{"name":`)
	e.str(name)
	e.raw(`,"type":`)
	e.str(kindName(k))
	if nullable {
		e.raw(`,"nullable":true`)
	}
	if len(enum) > 0 {
		e.raw(`,"enum":`)
		for i, v := range enum {
			e.raw(listSep(i))
			switch k {
			case cond.KindString:
				e.str(v.Str())
			case cond.KindInt:
				e.b = strconv.AppendInt(e.b, v.IntVal(), 10)
			case cond.KindFloat:
				e.float(v.FloatVal())
			case cond.KindBool:
				e.b = strconv.AppendBool(e.b, v.BoolVal())
			default:
				e.raw("null")
			}
		}
		e.raw("]")
	}
	e.raw("}")
}

func (e *encoder) view(v *cqt.View) {
	if v == nil {
		e.fail(fmt.Errorf("nil view"))
		return
	}
	e.raw(`{"q":`)
	e.query(v.Q)
	if len(v.Cases) > 0 {
		e.raw(`,"cases":`)
		for i, c := range v.Cases {
			e.raw(listSep(i))
			e.raw(`{"when":`)
			e.cond(c.When)
			e.raw(`,"type":`)
			e.str(c.Type)
			if len(c.Attrs) > 0 {
				e.raw(`,"attrs":`)
				e.strMap(c.Attrs)
			}
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw("}")
}

// query encodes a relational query tree node (QDoc).
func (e *encoder) query(x cqt.Expr) {
	switch q := x.(type) {
	case cqt.ScanTable:
		e.scan("scantable", q.Table)
	case cqt.ScanSet:
		e.scan("scanset", q.Set)
	case cqt.ScanAssoc:
		e.scan("scanassoc", q.Assoc)
	case cqt.Select:
		e.raw(`{"op":"select","in":`)
		e.query(q.In)
		e.raw(`,"cond":`)
		e.cond(q.Cond)
		e.raw("}")
	case cqt.Project:
		e.raw(`{"op":"project","in":`)
		e.query(q.In)
		if len(q.Cols) > 0 {
			e.raw(`,"cols":`)
			for i, pc := range q.Cols {
				e.raw(listSep(i))
				e.raw(`{"as":`)
				e.str(pc.As)
				if pc.Lit != nil {
					e.raw(`,"lit":`)
					e.literal(pc.Lit)
				} else {
					e.optStr(`,"src":`, pc.Src)
				}
				e.raw("}")
			}
			e.raw("]")
		}
		e.raw("}")
	case cqt.Join:
		e.raw(`{"op":"join","kind":`)
		e.str(joinKindName(q.Kind))
		e.raw(`,"l":`)
		e.query(q.L)
		e.raw(`,"r":`)
		e.query(q.R)
		if len(q.On) > 0 {
			e.raw(`,"on":`)
			for i, p := range q.On {
				e.raw(listSep(i))
				e.raw("[")
				e.str(p[0])
				e.raw(",")
				e.str(p[1])
				e.raw("]")
			}
			e.raw("]")
		}
		e.raw("}")
	case cqt.UnionAll:
		e.raw(`{"op":"unionall"`)
		if len(q.Inputs) > 0 {
			e.raw(`,"inputs":`)
			for i, in := range q.Inputs {
				e.raw(listSep(i))
				e.query(in)
			}
			e.raw("]")
		}
		e.raw("}")
	default:
		e.fail(fmt.Errorf("unknown query node %T", x))
	}
}

func (e *encoder) scan(op, name string) {
	e.raw(`{"op":"`)
	e.raw(op)
	e.raw(`"`)
	e.optStr(`,"name":`, name)
	e.raw("}")
}

// literal encodes a constant projection source (LiteralDoc).
func (e *encoder) literal(l *cqt.Literal) {
	e.raw("{")
	if l.Null {
		e.raw(`"null":true,`)
	}
	e.raw(`"kind":`)
	e.str(kindName(l.Kind))
	if !l.Null {
		e.raw(`,"val":`)
		e.value(l.Val)
	}
	e.raw("}")
}

// cond encodes a condition in its structural form (CondDoc).
func (e *encoder) cond(x cond.Expr) {
	switch c := x.(type) {
	case nil:
		e.fail(fmt.Errorf("nil condition"))
	case cond.True:
		e.raw(`{"op":"true"}`)
	case cond.False:
		e.raw(`{"op":"false"}`)
	case cond.TypeIs:
		e.raw(`{"op":"typeis"`)
		e.optStr(`,"var":`, c.Var)
		e.optStr(`,"type":`, c.Type)
		if c.Only {
			e.raw(`,"only":true`)
		}
		e.raw("}")
	case cond.Null:
		e.raw(`{"op":"null"`)
		e.optStr(`,"attr":`, c.Attr)
		e.raw("}")
	case cond.Cmp:
		e.raw(`{"op":"cmp"`)
		e.optStr(`,"attr":`, c.Attr)
		e.raw(`,"cmp":`)
		e.str(cmpOpName(c.Op))
		e.raw(`,"kind":`)
		e.str(kindName(c.Val.K))
		e.raw(`,"val":`)
		e.value(c.Val)
		e.raw("}")
	case *cond.Not:
		e.raw(`{"op":"not","kids":[`)
		e.cond(c.X)
		e.raw("]}")
	case *cond.And:
		e.kids(`{"op":"and"`, c.Xs)
	case *cond.Or:
		e.kids(`{"op":"or"`, c.Xs)
	default:
		e.fail(fmt.Errorf("unknown condition node %T", x))
	}
}

func (e *encoder) kids(open string, xs []cond.Expr) {
	e.raw(open)
	if len(xs) > 0 {
		e.raw(`,"kids":`)
		for i, x := range xs {
			e.raw(listSep(i))
			e.cond(x)
		}
		e.raw("]")
	}
	e.raw("}")
}

// value encodes a typed value bare; its kind travels alongside it.
func (e *encoder) value(v cond.Value) {
	switch v.K {
	case cond.KindString:
		e.str(v.Str())
	case cond.KindInt:
		e.b = strconv.AppendInt(e.b, v.IntVal(), 10)
	case cond.KindFloat:
		e.float(v.FloatVal())
	case cond.KindBool:
		e.b = strconv.AppendBool(e.b, v.BoolVal())
	default:
		e.fail(fmt.Errorf("unknown value kind %v", v.K))
	}
}

// float delegates to encoding/json, which owns the number format and
// rejects NaN and the infinities. Floats are rare in models.
func (e *encoder) float(f float64) {
	b, err := json.Marshal(f)
	if err != nil {
		e.fail(err)
		return
	}
	e.b = append(e.b, b...)
}

// strs encodes a string slice; nil is null, empty is [].
func (e *encoder) strs(ss []string) {
	if ss == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, s := range ss {
		if i > 0 {
			e.raw(",")
		}
		e.str(s)
	}
	e.raw("]")
}

// strMap encodes a string map with its keys sorted; nil is null.
func (e *encoder) strMap(m map[string]string) {
	if m == nil {
		e.raw("null")
		return
	}
	e.keys = appendSortedKeys(e.keys[:0], m)
	e.raw("{")
	for i, k := range e.keys {
		if i > 0 {
			e.raw(",")
		}
		e.str(k)
		e.raw(":")
		e.str(m[k])
	}
	e.raw("}")
}

func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// listSep returns what precedes element i of a JSON array: the opening
// bracket before the first element, a comma before the others.
func listSep(i int) string {
	if i == 0 {
		return "["
	}
	return ","
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) str(s string) { e.b = appendString(e.b, s) }

// optStr writes an omitempty string field: key and value, unless the value
// is empty.
func (e *encoder) optStr(key, s string) {
	if s != "" {
		e.raw(key)
		e.str(s)
	}
}

const hexDigits = "0123456789abcdef"

// safeASCII marks the ASCII bytes json.Marshal copies into a string
// verbatim: the printable ones other than the quote, the backslash and the
// HTML-sensitive <, > and &.
var safeASCII = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// appendString appends s as a JSON string escaped as json.Marshal escapes
// it: the short forms \" \\ \b \f \n \r \t, \u00XX for the other control
// bytes and for <, > and &, \ufffd for each byte of invalid UTF-8, and
// \u2028 and \u2029 for the two line separators.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeASCII[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendSnapshot appends the JSON of a SatCache snapshot to dst: the bytes
// json.Marshal writes for it, which DecodeSnapshot reads back. Verdict
// keys are sorted; empty fields are omitted as the struct tags say.
func AppendSnapshot(dst []byte, s *cond.SatSnapshot) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	if len(s.Entries) > 0 {
		dst = append(dst, `"entries":{`...)
		for i, k := range appendSortedKeys(make([]string, 0, len(s.Entries)), s.Entries) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendBool(dst, s.Entries[k])
		}
		dst = append(dst, '}')
	}
	if len(s.Scopes) > 0 {
		if len(s.Entries) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"scopes":`...)
		for i, sc := range s.Scopes {
			dst = append(dst, listSep(i)...)
			dst = append(dst, `{"key":`...)
			dst = appendString(dst, sc.Key)
			dst = append(dst, `,"lemmas":`...)
			dst = appendLemmas(dst, sc.Lemmas)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendLemmas(dst []byte, lemmas []cond.LemmaSnapshot) []byte {
	if lemmas == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, lm := range lemmas {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"lits":`...)
		if lm.Lits == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, l := range lm.Lits {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendLemmaLit(dst, l)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func appendLemmaLit(dst []byte, l cond.LemmaLitSnapshot) []byte {
	sep := byte('{')
	if l.Gate != "" {
		dst = append(dst, sep, '"', 'g', '"', ':')
		dst = appendString(dst, l.Gate)
		sep = ','
	}
	if l.Atom != 0 {
		dst = append(dst, sep, '"', 'a', '"', ':')
		dst = strconv.AppendInt(dst, int64(l.Atom), 10)
		sep = ','
	}
	if l.Neg {
		dst = append(dst, sep)
		dst = append(dst, `"n":true`...)
		sep = ','
	}
	if sep == '{' {
		dst = append(dst, '{')
	}
	return append(dst, '}')
}
