// One-pass decoders, the mirror of append.go. Decode, DecodeViews,
// DecodeGeneration and DecodeSnapshot read JSON straight into the edm, rel,
// frag, cqt and cond trees: no document tree is built and no reflection
// runs. Every node still goes through the schema mutators and validators,
// esql.ParseCond, CheckWellFormed and the cond constructors, so a decoded
// generation is what the document forms (kept in the package tests as the
// oracle) produced.
//
// The accepted language is encoding/json's for the document forms with
// unknown fields disallowed, and null reading as a field's zero value. The
// decoders are stricter in only these ways: a key must equal its field name
// exactly (encoding/json folds case); no key repeats within an object,
// map-shaped objects included (encoding/json keeps the last); nothing but
// whitespace may follow the document; a join's "on" pair holds exactly two
// strings (encoding/json truncates or zero-fills a [2]string); and a query
// or condition node that does not build fails the decode even in a field
// its op ignores (encoding/json's document form never looked there).

package modelio

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/esql"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// Decode reads a mapping document and validates it. It consumes the whole
// reader: anything but whitespace after the document is an error.
func Decode(r io.Reader) (*frag.Mapping, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	d := decoder{data: data}
	m := d.mapping()
	if err := d.end(); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeViews reads a compiled view set, rebuilding every condition through
// the cond constructors so loaded views satisfy the same interning
// invariants as compiled ones. Like Decode, it consumes the whole reader and
// rejects anything but whitespace after the document.
func DecodeViews(r io.Reader) (*frag.Views, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("modelio: views: %w", err)
	}
	d := decoder{data: data}
	v := d.views()
	if err := d.end(); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeGeneration reads a compiled generation as the store writes it: an
// object holding a mapping document under "mapping" and a views document
// under "views", both required.
func DecodeGeneration(data []byte) (*frag.Mapping, *frag.Views, error) {
	d := decoder{data: data}
	var m *frag.Mapping
	var v *frag.Views
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(generationFields, &seen) {
			case "mapping":
				m = d.mapping()
			case "views":
				v = d.views()
			}
		}
	}
	if d.err == nil && (m == nil || v == nil) {
		d.fail(errors.New("modelio: generation lacks its mapping or its views"))
	}
	if err := d.end(); err != nil {
		return nil, nil, err
	}
	return m, v, nil
}

// DecodeSnapshot reads a SatCache snapshot (cond.SatSnapshot) as
// json.Marshal writes it.
func DecodeSnapshot(data []byte) (*cond.SatSnapshot, error) {
	d := decoder{data: data}
	snap := &cond.SatSnapshot{}
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(snapshotFields, &seen) {
			case "entries":
				snap.Entries = d.entries()
			case "scopes":
				snap.Scopes = d.scopes()
			}
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return snap, nil
}

// The field names of each object kind, as the document forms tag them.
var (
	generationFields = []string{"mapping", "views"}
	documentFields   = []string{"client", "store", "fragments"}
	clientFields     = []string{"types", "sets", "associations"}
	typeFields       = []string{"name", "base", "abstract", "attrs", "key"}
	attrFields       = []string{"name", "type", "nullable", "enum"}
	setFields        = []string{"name", "type"}
	assocFields      = []string{"name", "end1", "end2"}
	endFields        = []string{"type", "mult"}
	storeFields      = []string{"tables"}
	tableFields      = []string{"name", "cols", "key", "fks"}
	fkFields         = []string{"name", "cols", "refTable", "refCols"}
	fragmentFields   = []string{"id", "set", "assoc", "clientCond", "attrs", "table", "storeCond", "colOf"}
	viewsFields      = []string{"query", "assoc", "update"}
	viewFields       = []string{"q", "cases"}
	caseFields       = []string{"when", "type", "attrs"}
	queryFields      = []string{"op", "name", "in", "cond", "cols", "kind", "l", "r", "on", "inputs"}
	projColFields    = []string{"as", "src", "lit"}
	literalFields    = []string{"null", "kind", "val"}
	condFields       = []string{"op", "var", "type", "only", "attr", "cmp", "kind", "val", "kids"}
	snapshotFields   = []string{"entries", "scopes"}
	scopeFields      = []string{"key", "lemmas"}
	lemmaFields      = []string{"lits"}
	lemmaLitFields   = []string{"g", "a", "n"}
)

// The values of the enumerated string fields; oneOf returns these
// constants, so the usual values cost no allocation.
var (
	kindNames  = []string{"string", "int", "float", "bool"}
	multNames  = []string{"1", "0..1", "*"}
	queryOps   = []string{"scantable", "scanset", "scanassoc", "select", "project", "join", "unionall"}
	joinKinds  = []string{"inner", "left", "full"}
	condOps    = []string{"true", "false", "typeis", "null", "cmp", "not", "and", "or"}
	cmpSymbols = []string{"=", "<>", "<", "<=", ">", ">="}
)

var (
	errMissingQuery = errors.New("missing query node")
	errMissingCond  = errors.New("missing condition node")
)

// maxDepth is encoding/json's nesting limit: a document nested deeper
// fails, whatever it holds.
const maxDepth = 10000

// decoder reads one JSON document held in memory. The first error sticks:
// every read after it returns a zero value and every loop ends, so callers
// check d.err once, where they build.
type decoder struct {
	data  []byte
	pos   int
	depth int
	err   error
	key   []byte // the key of the member being read
	buf   []byte // the last string read that needed unescaping
	// part and name locate the view being read, for its errors.
	part, name string
}

// fail records err as the decode's error unless one is recorded already;
// a nil err changes nothing.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) syntax(msg string) {
	if d.pos >= len(d.data) {
		d.fail(errors.New("modelio: unexpected end of JSON input"))
		return
	}
	d.fail(fmt.Errorf("modelio: offset %d: invalid character %q %s", d.pos, d.data[d.pos], msg))
}

// mismatch fails the decode at a value that is not of the wanted type.
func (d *decoder) mismatch(want string) { d.syntax("where the document wants " + want) }

// end checks that nothing but whitespace follows the document and returns
// the decode's first error.
func (d *decoder) end() error {
	if d.err == nil {
		if d.peek(); d.pos < len(d.data) {
			d.syntax("after top-level value")
		}
	}
	return d.err
}

// peek skips whitespace and returns the next byte, 0 at the end of input.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos] // compact documents hold no whitespace
	}
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit (true, false or null) if it comes next.
func (d *decoder) literal(lit string) bool {
	d.peek()
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *decoder) open() {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.fail(fmt.Errorf("modelio: offset %d: exceeded max depth", d.pos))
	}
}

// object opens an object. It reports false at null, every field's zero
// value, and on error.
func (d *decoder) object() bool {
	switch d.peek() {
	case '{':
		d.open()
		return d.err == nil
	case 'n':
		if d.literal("null") {
			return false
		}
	}
	d.mismatch("an object")
	return false
}

// array opens an array. It reports false at null and on error.
func (d *decoder) array() bool {
	switch d.peek() {
	case '[':
		d.open()
		return d.err == nil
	case 'n':
		if d.literal("null") {
			return false
		}
	}
	d.mismatch("an array")
	return false
}

// member moves to the next member of the object being read and reads its
// key into d.key and the colon after it. It reports false once it has read
// the closing brace, and on error. n counts the members read so far.
func (d *decoder) member(n *int) bool {
	if d.err != nil {
		return false
	}
	c := d.peek()
	if c == '}' {
		d.pos++
		d.depth--
		return false
	}
	if *n > 0 {
		if c != ',' {
			d.syntax("after object member")
			return false
		}
		d.pos++
		c = d.peek()
	}
	if c != '"' {
		d.syntax("looking for an object key")
		return false
	}
	d.key = d.string()
	if d.peek() != ':' {
		d.syntax("after object key")
		return false
	}
	d.pos++
	*n++
	return d.err == nil
}

// element moves to the next element of the array being read. It reports
// false once it has read the closing bracket, and on error. n counts the
// elements read so far.
func (d *decoder) element(n *int) bool {
	if d.err != nil {
		return false
	}
	c := d.peek()
	if c == ']' {
		d.pos++
		d.depth--
		return false
	}
	if *n > 0 {
		if c != ',' {
			d.syntax("after array element")
			return false
		}
		d.pos++
	}
	*n++
	return true
}

// field returns the member key as the one of names it equals. A key equal
// to none of them, or to one this object already had (seen marks them by
// position in names), fails the decode.
func (d *decoder) field(names []string, seen *uint32) string {
	for i, name := range names {
		if string(d.key) == name {
			if *seen&(1<<i) != 0 {
				d.fail(fmt.Errorf("modelio: offset %d: repeated field %q", d.pos, name))
				return ""
			}
			*seen |= 1 << i
			return name
		}
	}
	d.fail(fmt.Errorf("modelio: offset %d: unknown field %q", d.pos, d.key))
	return ""
}

// newKey returns the member key as a map key, failing the decode if the
// map already holds it.
func newKey[V any](d *decoder, m map[string]V) string {
	if _, dup := m[string(d.key)]; dup {
		d.fail(fmt.Errorf("modelio: offset %d: repeated key %q", d.pos, d.key))
		return ""
	}
	return string(d.key)
}

// string reads a string literal, which must come next, and returns its
// unescaped bytes: a sub-slice of the input, or d.buf when the literal
// holds escapes or non-ASCII bytes. Either is valid until the next string
// is read.
func (d *decoder) string() []byte {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unescape(start, i)
		}
	}
	d.pos = len(d.data)
	d.syntax("")
	return nil
}

// unescape finishes a string literal whose plain prefix ends at i,
// unescaping it as encoding/json does: an invalid UTF-8 byte and a lone
// surrogate each become U+FFFD.
func (d *decoder) unescape(start, i int) []byte {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.buf = b
			return b
		case c == '\\':
			if i+1 >= len(d.data) {
				i++
				continue
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i+2:])
				if r < 0 {
					d.pos = i + 2
					d.syntax("in \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := u4(d.data[i:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i + 1
				d.syntax("in string escape code")
				return nil
			}
			i += 2
		case c < ' ':
			d.pos = i
			d.syntax("in string literal")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(d.data)
	d.syntax("")
	return nil
}

// hex4 returns the value of the four hex digits that begin s, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// u4 returns the code unit of the \uXXXX escape that begins s, or -1.
func u4(s []byte) rune {
	if len(s) < 2 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// text reads a string field's unescaped bytes, valid until the next string
// is read. null reads as empty.
func (d *decoder) text() []byte {
	switch d.peek() {
	case '"':
		return d.string()
	case 'n':
		if d.literal("null") {
			return nil
		}
	}
	d.mismatch("a string")
	return nil
}

// str reads a string field.
func (d *decoder) str() string { return string(d.text()) }

// oneOf reads a string field whose usual values are names, returning the
// matching constant.
func (d *decoder) oneOf(names []string) string {
	b := d.text()
	for _, name := range names {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}

// boolean reads a bool field; null reads as false.
func (d *decoder) boolean() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"), d.literal("null"):
		return false
	}
	d.mismatch("a boolean")
	return false
}

// number reads a number literal, checked against the JSON grammar.
func (d *decoder) number() []byte {
	start := d.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case !digits():
		d.pos = i
		d.syntax("in numeric literal")
		return nil
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			d.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			d.syntax("in exponent of numeric literal")
			return nil
		}
	}
	d.pos = i
	return d.data[start:i]
}

func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// skip reads any value, checking only its syntax.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.open()
		for n := 0; d.member(&n); {
			d.skip()
		}
	case c == '[':
		d.open()
		for n := 0; d.element(&n); {
			d.skip()
		}
	case c == '"':
		d.string()
	case isNumberStart(c):
		d.number()
	case d.literal("true"), d.literal("false"), d.literal("null"):
	default:
		d.syntax("looking for beginning of value")
	}
}

// span is the extent of a value kept raw until a sibling field says how to
// read it. The zero span is a value missing from its object.
type span struct{ start, end int }

// raw reads any value and returns its extent.
func (d *decoder) raw() span {
	d.peek()
	start := d.pos
	d.skip()
	return span{start, d.pos}
}

// value reads the raw value at s as a value of kind k, as encoding/json
// read a json.RawMessage into k's Go type: null is the zero value, an int
// is a number without fraction or exponent that fits int64, a float any
// number that fits float64. A missing value is an error.
func (d *decoder) value(k cond.Kind, s span) (cond.Value, error) {
	raw := d.data[s.start:s.end]
	if len(raw) == 0 {
		return cond.Value{}, errors.New("missing value")
	}
	null := string(raw) == "null"
	switch k {
	case cond.KindString:
		if null {
			return cond.String(""), nil
		}
		if raw[0] == '"' {
			at := d.pos
			d.pos = s.start
			str := string(d.string())
			d.pos = at
			return cond.String(str), nil
		}
	case cond.KindInt:
		if null {
			return cond.Int(0), nil
		}
		if isNumberStart(raw[0]) {
			if i, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
				return cond.Int(i), nil
			}
		}
	case cond.KindFloat:
		if null {
			return cond.Float(0), nil
		}
		if isNumberStart(raw[0]) {
			if f, err := strconv.ParseFloat(string(raw), 64); err == nil {
				return cond.Float(f), nil
			}
		}
	case cond.KindBool:
		switch string(raw) {
		case "true":
			return cond.Bool(true), nil
		case "false", "null":
			return cond.Bool(false), nil
		}
	}
	return cond.Value{}, fmt.Errorf("cannot read %s as a %s value", raw, kindName(k))
}

// strs reads a string array: null is nil, [] is empty and not nil.
func (d *decoder) strs() []string {
	if !d.array() {
		return nil
	}
	out := []string{}
	for n := 0; d.element(&n); {
		out = append(out, d.str())
	}
	return out
}

// strMap reads an object of strings: null is nil.
func (d *decoder) strMap() map[string]string {
	if !d.object() {
		return nil
	}
	out := map[string]string{}
	for n := 0; d.member(&n); {
		k := newKey(d, out)
		out[k] = d.str()
	}
	return out
}

// Mapping documents. Every field of a mapping document is used, so every
// error ends the decode.

// mapping reads a mapping document, building it through the schema
// mutators and esql.ParseCond, and validates it once read: the client
// schema's Validate, the store schema's Validate, then CheckWellFormed.
func (d *decoder) mapping() *frag.Mapping {
	c, s := edm.NewSchema(), rel.NewSchema()
	var frags []*frag.Fragment
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(documentFields, &seen) {
			case "client":
				d.client(c)
			case "store":
				d.store(s)
			case "fragments":
				frags = d.fragments()
			}
		}
	}
	if d.err != nil {
		return nil
	}
	m := &frag.Mapping{Client: c, Store: s, Frags: frags}
	for _, check := range []func() error{c.Validate, s.Validate, m.CheckWellFormed} {
		if err := check(); err != nil {
			d.fail(err)
			return nil
		}
	}
	return m
}

// client reads a client schema into c. Types are added as they are read;
// sets and associations name types, so they are added once the whole
// object is read.
func (d *decoder) client(c *edm.Schema) {
	if !d.object() {
		return
	}
	var sets []edm.EntitySet
	var assocs []edm.Association
	var seen uint32
	for n := 0; d.member(&n); {
		switch d.field(clientFields, &seen) {
		case "types":
			if d.array() {
				for n := 0; d.element(&n); {
					if t, ok := d.entityType(); ok {
						d.fail(c.AddType(t))
					}
				}
			}
		case "sets":
			if d.array() {
				for n := 0; d.element(&n); {
					sets = append(sets, d.entitySet())
				}
			}
		case "associations":
			if d.array() {
				for n := 0; d.element(&n); {
					assocs = append(assocs, d.association())
				}
			}
		}
	}
	for _, set := range sets {
		d.fail(c.AddSet(set))
	}
	for _, a := range assocs {
		d.fail(c.AddAssociation(a))
	}
}

// entityType reads an entity type (TypeDoc); ok is false on error.
func (d *decoder) entityType() (t edm.EntityType, ok bool) {
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(typeFields, &seen) {
			case "name":
				t.Name = d.str()
			case "base":
				t.Base = d.str()
			case "abstract":
				t.Abstract = d.boolean()
			case "attrs":
				if d.array() {
					for n := 0; d.element(&n); {
						name, k, nullable, enum := d.attr()
						t.Attrs = append(t.Attrs, edm.Attribute{Name: name, Type: k, Nullable: nullable, Enum: enum})
					}
				}
			case "key":
				t.Key = d.strs()
			}
		}
	}
	return t, d.err == nil
}

// attr reads an attribute or a column (AttrDoc). Enum values are kept raw
// until the whole object is read, since they are read as its kind.
func (d *decoder) attr() (name string, k cond.Kind, nullable bool, enum []cond.Value) {
	var kind string
	var raws []span
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(attrFields, &seen) {
			case "name":
				name = d.str()
			case "type":
				kind = d.oneOf(kindNames)
			case "nullable":
				nullable = d.boolean()
			case "enum":
				if d.array() {
					for n := 0; d.element(&n); {
						raws = append(raws, d.raw())
					}
				}
			}
		}
	}
	if d.err != nil {
		return
	}
	k, err := kindOf(kind)
	if err != nil {
		d.fail(err)
		return
	}
	enum = make([]cond.Value, 0, len(raws))
	for _, raw := range raws {
		v, err := d.value(k, raw)
		if err != nil {
			d.fail(fmt.Errorf("modelio: attribute %q enum: %w", name, err))
			return
		}
		enum = append(enum, v)
	}
	return name, k, nullable, enum
}

// entitySet reads an entity set (SetDoc).
func (d *decoder) entitySet() (s edm.EntitySet) {
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(setFields, &seen) {
			case "name":
				s.Name = d.str()
			case "type":
				s.Type = d.str()
			}
		}
	}
	return s
}

// association reads an association (AssocDoc). Both multiplicities are
// checked once the object is read, so a missing end fails like an unknown
// multiplicity.
func (d *decoder) association() (a edm.Association) {
	var mult1, mult2 string
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(assocFields, &seen) {
			case "name":
				a.Name = d.str()
			case "end1":
				a.End1.Type, mult1 = d.assocEnd()
			case "end2":
				a.End2.Type, mult2 = d.assocEnd()
			}
		}
	}
	if d.err == nil {
		var err1, err2 error
		a.End1.Mult, err1 = multOf(mult1)
		a.End2.Mult, err2 = multOf(mult2)
		d.fail(errors.Join(err1, err2))
	}
	return a
}

// assocEnd reads an association end (EndDoc).
func (d *decoder) assocEnd() (typ, mult string) {
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(endFields, &seen) {
			case "type":
				typ = d.str()
			case "mult":
				mult = d.oneOf(multNames)
			}
		}
	}
	return typ, mult
}

// store reads a store schema into s, adding each table as it is read.
func (d *decoder) store(s *rel.Schema) {
	if !d.object() {
		return
	}
	var seen uint32
	for n := 0; d.member(&n); {
		if d.field(storeFields, &seen) == "tables" && d.array() {
			for n := 0; d.element(&n); {
				if t, ok := d.table(); ok {
					d.fail(s.AddTable(t))
				}
			}
		}
	}
}

// table reads a table (TableDoc); ok is false on error.
func (d *decoder) table() (t rel.Table, ok bool) {
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(tableFields, &seen) {
			case "name":
				t.Name = d.str()
			case "cols":
				if d.array() {
					for n := 0; d.element(&n); {
						name, k, nullable, enum := d.attr()
						t.Cols = append(t.Cols, rel.Column{Name: name, Type: k, Nullable: nullable, Enum: enum})
					}
				}
			case "key":
				t.Key = d.strs()
			case "fks":
				if d.array() {
					for n := 0; d.element(&n); {
						t.FKs = append(t.FKs, d.foreignKey())
					}
				}
			}
		}
	}
	return t, d.err == nil
}

// foreignKey reads a foreign key (FKDoc).
func (d *decoder) foreignKey() (fk rel.ForeignKey) {
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(fkFields, &seen) {
			case "name":
				fk.Name = d.str()
			case "cols":
				fk.Cols = d.strs()
			case "refTable":
				fk.RefTable = d.str()
			case "refCols":
				fk.RefCols = d.strs()
			}
		}
	}
	return fk
}

// fragments reads the fragment list, parsing each fragment's conditions.
func (d *decoder) fragments() []*frag.Fragment {
	var out []*frag.Fragment
	if !d.array() {
		return nil
	}
	for n := 0; d.element(&n); {
		var f frag.Fragment
		var clientCond, storeCond string
		if d.object() {
			var seen uint32
			for n := 0; d.member(&n); {
				switch d.field(fragmentFields, &seen) {
				case "id":
					f.ID = d.str()
				case "set":
					f.Set = d.str()
				case "assoc":
					f.Assoc = d.str()
				case "clientCond":
					clientCond = d.str()
				case "attrs":
					f.Attrs = d.strs()
				case "table":
					f.Table = d.str()
				case "storeCond":
					storeCond = d.str()
				case "colOf":
					f.ColOf = d.strMap()
				}
			}
		}
		if d.err != nil {
			return nil
		}
		var err error
		if f.ClientCond, err = esql.ParseCond(clientCond); err != nil {
			d.fail(fmt.Errorf("modelio: fragment %s client condition: %w", f.ID, err))
			return nil
		}
		if f.StoreCond, err = esql.ParseCond(storeCond); err != nil {
			d.fail(fmt.Errorf("modelio: fragment %s store condition: %w", f.ID, err))
			return nil
		}
		out = append(out, &f)
	}
	return out
}

// Views documents. A query or condition node reads every field, as the
// document form did, but uses only those its op names. A node that does
// not build fails the decode wherever it sits, in a field its op ignores
// too (the fifth tightening), so the node readers fail the decode's sticky
// error directly. A node in an ignored field is checked but not built:
// when its parent's op is known before the field, as in every document
// the encoders write, keep is false for it and its conditions are not
// interned.

// views reads a compiled view set (ViewsDoc); null is an empty set.
func (d *decoder) views() *frag.Views {
	out := frag.NewViews()
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(viewsFields, &seen) {
			case "query":
				d.viewMap("query", out.Query, out.SetQuery)
			case "assoc":
				d.viewMap("assoc", out.Assoc, out.SetAssoc)
			case "update":
				d.viewMap("update", out.Update, out.SetUpdate)
			}
		}
	}
	if d.err != nil {
		return nil
	}
	return out
}

// viewMap reads one map of named views, adding each through set.
func (d *decoder) viewMap(part string, views map[string]*cqt.View, set func(string, *cqt.View)) {
	if !d.object() {
		return
	}
	for n := 0; d.member(&n); {
		d.part, d.name = part, newKey(d, views)
		v := d.view()
		if d.err != nil {
			return
		}
		set(d.name, v)
	}
}

// invalid fails the decode at a node of the view being read that does not
// build.
func (d *decoder) invalid(err error) {
	d.fail(fmt.Errorf("modelio: %s view %q: %w", d.part, d.name, err))
}

// view reads one view (ViewDoc).
func (d *decoder) view() *cqt.View {
	var v cqt.View
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(viewFields, &seen) {
			case "q":
				v.Q = d.query(true)
			case "cases":
				if d.array() {
					for n := 0; d.element(&n); {
						v.Cases = append(v.Cases, d.viewCase())
					}
				}
			}
		}
	}
	if v.Q == nil {
		d.invalid(errors.New("missing query tree"))
	}
	return &v
}

// viewCase reads one constructor branch (CaseDoc).
func (d *decoder) viewCase() (c cqt.Case) {
	if d.object() {
		var seen uint32
		for n := 0; d.member(&n); {
			switch d.field(caseFields, &seen) {
			case "when":
				c.When = d.cond(true)
			case "type":
				c.Type = d.str()
			case "attrs":
				c.Attrs = d.strMap()
			}
		}
	}
	if c.When == nil {
		d.invalid(errMissingCond)
	}
	if c.Attrs == nil {
		c.Attrs = map[string]string{}
	}
	return c
}

// query reads a query tree node (QDoc) and builds it. A null node is nil.
func (d *decoder) query(keep bool) cqt.Expr {
	if !d.object() {
		return nil
	}
	var (
		seen           uint32
		op, name, kind string
		in, l, r       cqt.Expr
		where          cond.Expr
		cols           []cqt.ProjCol
		on             [][2]string
		inputs         []cqt.Expr
	)
	// A node in a field its op, when read first, ignores is not kept.
	uses := func(ops ...string) bool { return keep && (op == "" || slices.Contains(ops, op)) }
	for n := 0; d.member(&n); {
		switch d.field(queryFields, &seen) {
		case "op":
			op = d.oneOf(queryOps)
		case "name":
			name = d.str()
		case "in":
			in = d.query(uses("select", "project"))
		case "cond":
			where = d.cond(uses("select"))
		case "cols":
			cols = d.projCols()
		case "kind":
			kind = d.oneOf(joinKinds)
		case "l":
			l = d.query(uses("join"))
		case "r":
			r = d.query(uses("join"))
		case "on":
			on = d.joinOn()
		case "inputs":
			inputs = d.queries(uses("unionall"))
		}
	}
	if d.err != nil {
		return nil
	}
	switch op {
	case "scantable":
		return cqt.ScanTable{Table: name}
	case "scanset":
		return cqt.ScanSet{Set: name}
	case "scanassoc":
		return cqt.ScanAssoc{Assoc: name}
	case "select":
		if in != nil && where != nil {
			return cqt.Select{In: in, Cond: where}
		}
		if in != nil {
			d.invalid(errMissingCond)
			return nil
		}
	case "project":
		if in != nil {
			if cols == nil {
				cols = []cqt.ProjCol{}
			}
			return cqt.Project{In: in, Cols: cols}
		}
	case "join":
		jk, err := joinKindOf(kind)
		if err != nil {
			d.invalid(err)
			return nil
		}
		if l != nil && r != nil {
			return cqt.Join{Kind: jk, L: l, R: r, On: on}
		}
	case "unionall":
		if inputs == nil {
			inputs = []cqt.Expr{}
		}
		return cqt.UnionAll{Inputs: inputs}
	default:
		d.invalid(fmt.Errorf("unknown query op %q", op))
		return nil
	}
	d.invalid(errMissingQuery)
	return nil
}

// queries reads a union's inputs; every one must be a node.
func (d *decoder) queries(keep bool) []cqt.Expr {
	if !d.array() {
		return nil
	}
	out := []cqt.Expr{}
	for n := 0; d.element(&n); {
		x := d.query(keep)
		if x == nil {
			d.invalid(errMissingQuery)
		}
		out = append(out, x)
	}
	return out
}

// joinOn reads a join's column pairs; a pair must hold exactly two
// strings, though null reads as a pair of empty names.
func (d *decoder) joinOn() [][2]string {
	if !d.array() {
		return nil
	}
	out := [][2]string{}
	for n := 0; d.element(&n); {
		var pair [2]string
		if d.array() {
			i := 0
			for m := 0; d.element(&m); i++ {
				if i == len(pair) {
					d.fail(fmt.Errorf("modelio: offset %d: join pair holds more than two columns", d.pos))
					break
				}
				pair[i] = d.str()
			}
			if d.err == nil && i != len(pair) {
				d.fail(fmt.Errorf("modelio: offset %d: join pair holds %d columns, want 2", d.pos, i))
			}
		}
		out = append(out, pair)
	}
	return out
}

// projCols reads a projection's output columns.
func (d *decoder) projCols() []cqt.ProjCol {
	if !d.array() {
		return nil
	}
	out := []cqt.ProjCol{}
	for n := 0; d.element(&n); {
		var pc cqt.ProjCol
		if d.object() {
			var seen uint32
			for n := 0; d.member(&n); {
				switch d.field(projColFields, &seen) {
				case "as":
					pc.As = d.str()
				case "src":
					pc.Src = d.str()
				case "lit":
					pc.Lit = d.constant()
				}
			}
		}
		if pc.Lit != nil {
			pc.Src = ""
		}
		out = append(out, pc)
	}
	return out
}

// constant reads a constant projection source (LiteralDoc); null is none.
// The kind is checked even for a typed NULL, whose value is not read.
func (d *decoder) constant() *cqt.Literal {
	if !d.object() {
		return nil
	}
	var (
		seen uint32
		null bool
		kind string
		val  span
	)
	for n := 0; d.member(&n); {
		switch d.field(literalFields, &seen) {
		case "null":
			null = d.boolean()
		case "kind":
			kind = d.oneOf(kindNames)
		case "val":
			val = d.raw()
		}
	}
	if d.err != nil {
		return nil
	}
	k, err := kindOf(kind)
	if err != nil {
		d.invalid(err)
		return nil
	}
	if null {
		return cqt.NullOf(k)
	}
	v, err := d.value(k, val)
	if err != nil {
		d.invalid(err)
		return nil
	}
	return cqt.Const(v)
}

// cond reads a condition node (CondDoc) and rebuilds it through the cond
// constructors: the result is interned, so == works against freshly
// compiled expressions, and its cache keys match the ones the original
// process computed. Unless keep is set, a composite node is checked but
// not built: it reads as True, and nothing is interned. A null node is
// nil.
func (d *decoder) cond(keep bool) cond.Expr {
	if !d.object() {
		return nil
	}
	var (
		seen                        uint32
		op, v, typ, attr, cmp, kind string
		only                        bool
		val                         span
		kids                        []cond.Expr
	)
	for n := 0; d.member(&n); {
		switch d.field(condFields, &seen) {
		case "op":
			op = d.oneOf(condOps)
		case "var":
			v = d.str()
		case "type":
			typ = d.str()
		case "only":
			only = d.boolean()
		case "attr":
			attr = d.str()
		case "cmp":
			cmp = d.oneOf(cmpSymbols)
		case "kind":
			kind = d.oneOf(kindNames)
		case "val":
			val = d.raw()
		case "kids":
			kids = d.conds(keep && (op == "" || op == "not" || op == "and" || op == "or"))
		}
	}
	if d.err != nil {
		return nil
	}
	switch op {
	case "true":
		return cond.True{}
	case "false":
		return cond.False{}
	case "typeis":
		return cond.TypeIs{Var: v, Type: typ, Only: only}
	case "null":
		return cond.Null{Attr: attr}
	case "cmp":
		o, oerr := cmpOpOf(cmp)
		k, kerr := kindOf(kind)
		x, err := d.value(k, val)
		if err := errors.Join(oerr, kerr, err); err != nil {
			d.invalid(err)
			return nil
		}
		return cond.Cmp{Attr: attr, Op: o, Val: x}
	case "not":
		if len(kids) != 1 {
			d.invalid(fmt.Errorf("not node wants 1 child, has %d", len(kids)))
			return nil
		}
		if !keep {
			return cond.True{}
		}
		return cond.NewNot(kids[0])
	case "and", "or":
		switch {
		case !keep:
			return cond.True{}
		case op == "and":
			return cond.NewAnd(kids...)
		}
		return cond.NewOr(kids...)
	}
	d.invalid(fmt.Errorf("unknown condition op %q", op))
	return nil
}

// conds reads a node's children; every one must be a node.
func (d *decoder) conds(keep bool) []cond.Expr {
	if !d.array() {
		return nil
	}
	var out []cond.Expr
	for n := 0; d.element(&n); {
		x := d.cond(keep)
		if x == nil {
			d.invalid(errMissingCond)
		}
		out = append(out, x)
	}
	return out
}

// SatCache snapshots.

// entries reads a snapshot's verdicts.
func (d *decoder) entries() map[string]bool {
	if !d.object() {
		return nil
	}
	out := map[string]bool{}
	for n := 0; d.member(&n); {
		k := newKey(d, out)
		out[k] = d.boolean()
	}
	return out
}

// scopes reads a snapshot's lemma scopes.
func (d *decoder) scopes() []cond.ScopeSnapshot {
	if !d.array() {
		return nil
	}
	out := []cond.ScopeSnapshot{}
	for n := 0; d.element(&n); {
		var sc cond.ScopeSnapshot
		if d.object() {
			var seen uint32
			for n := 0; d.member(&n); {
				switch d.field(scopeFields, &seen) {
				case "key":
					sc.Key = d.str()
				case "lemmas":
					sc.Lemmas = d.lemmas()
				}
			}
		}
		out = append(out, sc)
	}
	return out
}

// lemmas reads one scope's clauses.
func (d *decoder) lemmas() []cond.LemmaSnapshot {
	if !d.array() {
		return nil
	}
	out := []cond.LemmaSnapshot{}
	for n := 0; d.element(&n); {
		var lm cond.LemmaSnapshot
		if d.object() {
			var seen uint32
			for n := 0; d.member(&n); {
				if d.field(lemmaFields, &seen) == "lits" {
					lm.Lits = d.lemmaLits()
				}
			}
		}
		out = append(out, lm)
	}
	return out
}

// lemmaLits reads one clause's literals.
func (d *decoder) lemmaLits() []cond.LemmaLitSnapshot {
	if !d.array() {
		return nil
	}
	out := []cond.LemmaLitSnapshot{}
	for n := 0; d.element(&n); {
		var l cond.LemmaLitSnapshot
		if d.object() {
			var seen uint32
			for n := 0; d.member(&n); {
				switch d.field(lemmaLitFields, &seen) {
				case "g":
					l.Gate = d.str()
				case "a":
					l.Atom = d.int32()
				case "n":
					l.Neg = d.boolean()
				}
			}
		}
		out = append(out, l)
	}
	return out
}

// int32 reads an int32 field as encoding/json does: a number without
// fraction or exponent, in range; null is 0.
func (d *decoder) int32() int32 {
	if d.literal("null") {
		return 0
	}
	if !isNumberStart(d.peek()) {
		d.mismatch("a number")
		return 0
	}
	at := d.pos
	lit := d.number()
	if d.err != nil {
		return 0
	}
	i, err := strconv.ParseInt(string(lit), 10, 32)
	if err != nil {
		d.fail(fmt.Errorf("modelio: offset %d: cannot read %s as an int32", at, lit))
		return 0
	}
	return int32(i)
}
