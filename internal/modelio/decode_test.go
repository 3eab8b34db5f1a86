package modelio_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/workload"
)

// decodeMapping runs the one-pass decoder and the oracle over one mapping
// document and checks they agree: both accept and build the same tree,
// compared through its compact encoding, or both reject. It returns the
// decoded mapping, nil when both rejected.
func decodeMapping(t *testing.T, what string, doc []byte) *frag.Mapping {
	t.Helper()
	got, err := modelio.Decode(bytes.NewReader(doc))
	want, oerr := modelio.OracleDecode(doc)
	if (err != nil) != (oerr != nil) {
		t.Fatalf("%s: Decode error %v, oracle error %v", what, err, oerr)
	}
	if err != nil {
		return nil
	}
	sameBytes(t, what+": decoded mapping", mustAppendMapping(t, got), mustAppendMapping(t, want))
	return got
}

// decodeViews is decodeMapping for a views document; the decoded
// conditions must also be re-interned to the oracle's nodes.
func decodeViews(t *testing.T, what string, doc []byte) *frag.Views {
	t.Helper()
	got, err := modelio.DecodeViews(bytes.NewReader(doc))
	want, oerr := modelio.OracleDecodeViews(doc)
	if (err != nil) != (oerr != nil) {
		t.Fatalf("%s: DecodeViews error %v, oracle error %v", what, err, oerr)
	}
	if err != nil {
		return nil
	}
	sameBytes(t, what+": decoded views", mustAppendViews(t, got), mustAppendViews(t, want))
	modelio.CheckReinterned(t, want, got)
	return got
}

func mustAppendMapping(t *testing.T, m *frag.Mapping) []byte {
	t.Helper()
	b, err := modelio.AppendMapping(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustAppendViews(t *testing.T, v *frag.Views) []byte {
	t.Helper()
	b, err := modelio.AppendViews(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkDecoders holds the decoders to the oracle on one generation: the
// mapping document compact and indented, the views document compact and
// with EncodeViews' newline, each with its members in reverse order, and
// the store's generation payload. Every form must decode to the original.
func checkDecoders(t *testing.T, name string, m *frag.Mapping, v *frag.Views) {
	t.Helper()
	mb, vb := mustAppendMapping(t, m), mustAppendViews(t, v)
	var indented, line bytes.Buffer
	if err := modelio.Encode(&indented, m); err != nil {
		t.Fatal(err)
	}
	if err := modelio.EncodeViews(&line, v); err != nil {
		t.Fatal(err)
	}
	for form, doc := range map[string][]byte{
		"compact":  mb,
		"indented": indented.Bytes(),
		"reversed": reverseMembers(t, mb),
	} {
		got := decodeMapping(t, name+" mapping "+form, doc)
		if got == nil {
			t.Fatalf("%s: %s mapping document rejected", name, form)
		}
		sameBytes(t, name+" mapping "+form+" roundtrip", mustAppendMapping(t, got), mb)
	}
	for form, doc := range map[string][]byte{
		"compact":  vb,
		"line":     line.Bytes(),
		"reversed": reverseMembers(t, vb),
	} {
		got := decodeViews(t, name+" views "+form, doc)
		if got == nil {
			t.Fatalf("%s: %s views document rejected", name, form)
		}
		sameBytes(t, name+" views "+form+" roundtrip", mustAppendViews(t, got), vb)
		modelio.CheckReinterned(t, v, got)
	}
	gm, gv, err := modelio.DecodeGeneration(append(append(append(append([]byte(`{"mapping":`), mb...), `,"views":`...), vb...), '}'))
	if err != nil {
		t.Fatalf("%s: DecodeGeneration: %v", name, err)
	}
	sameBytes(t, name+" generation mapping", mustAppendMapping(t, gm), mb)
	sameBytes(t, name+" generation views", mustAppendViews(t, gv), vb)
}

// reverseMembers rewrites a JSON document with the members of every object
// in reverse order, so a node's op comes after the fields it governs.
func reverseMembers(t *testing.T, doc []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	var walk func(raw json.RawMessage)
	walk = func(raw json.RawMessage) {
		raw = bytes.TrimSpace(raw)
		switch raw[0] {
		case '{':
			var keys []string
			var vals []json.RawMessage
			dec := json.NewDecoder(bytes.NewReader(raw))
			if _, err := dec.Token(); err != nil {
				t.Fatal(err)
			}
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				var v json.RawMessage
				if err := dec.Decode(&v); err != nil {
					t.Fatal(err)
				}
				keys, vals = append(keys, k.(string)), append(vals, v)
			}
			out.WriteByte('{')
			for i := len(keys) - 1; i >= 0; i-- {
				kb, _ := json.Marshal(keys[i])
				out.Write(kb)
				out.WriteByte(':')
				walk(vals[i])
				if i > 0 {
					out.WriteByte(',')
				}
			}
			out.WriteByte('}')
		case '[':
			var elems []json.RawMessage
			if err := json.Unmarshal(raw, &elems); err != nil {
				t.Fatal(err)
			}
			out.WriteByte('[')
			for i, e := range elems {
				if i > 0 {
					out.WriteByte(',')
				}
				walk(e)
			}
			out.WriteByte(']')
		default:
			out.Write(raw)
		}
	}
	walk(doc)
	return out.Bytes()
}

// edgeMapping is a small valid mapping document in which the fields take
// unusual forms: null for optional fields, enum values of every kind
// including null, empty versus missing arrays, and enum strings spelled
// with every string escape.
const edgeMapping = `{
  "client": {
    "types": [
      {"name": "Person", "base": null, "abstract": null, "attrs": [
        {"name": "Id", "type": "int", "nullable": null, "enum": null},
        {"name": "S", "type": "string", "nullable": true, "enum": ["a\"b\\c\/d\b\f\n\r\t", "é😀", "\ud800x\udc00", null]},
        {"name": "I", "type": "int", "nullable": true, "enum": [-0, 9007199254740993, null]},
        {"name": "F", "type": "float", "nullable": true, "enum": [1e3, -0.5, 1E-2, 0, null]},
        {"name": "B", "type": "bool", "nullable": true, "enum": [true, false, null]}
      ], "key": ["Id"]},
      {"name": "Emp", "base": "Person", "abstract": false, "attrs": [], "key": []}
    ],
    "sets": [{"name": "People", "type": "Person"}],
    "associations": [{"name": "Boss", "end1": {"type": "Emp", "mult": "*"}, "end2": {"type": "Person", "mult": "0..1"}}]
  },
  "store": {"tables": [
    {"name": "T", "cols": [
      {"name": "Id", "type": "int"},
      {"name": "S", "type": "string", "nullable": true, "enum": ["x", null]},
      {"name": "I", "type": "int", "nullable": true},
      {"name": "F", "type": "float", "nullable": true},
      {"name": "B", "type": "bool", "nullable": true},
      {"name": "Boss", "type": "int", "nullable": true}
    ], "key": ["Id"], "fks": [{"name": "fk", "cols": ["Boss"], "refTable": "T", "refCols": ["Id"]}]},
    {"name": "U", "cols": [{"name": "Id", "type": "int"}], "key": ["Id"], "fks": null}
  ]},
  "fragments": [
    {"id": "f", "set": "People", "assoc": null, "clientCond": "TRUE", "attrs": ["Id", "S", "I", "F", "B"], "table": "T", "storeCond": "TRUE",
     "colOf": {"Id": "Id", "S": "S", "I": "I", "F": "F", "B": "B"}},
    {"id": "g", "assoc": "Boss", "clientCond": "TRUE", "attrs": ["Emp_Id", "Person_Id"], "table": "T", "storeCond": "Boss IS NOT NULL",
     "colOf": {"Emp_Id": "Id", "Person_Id": "Boss"}}
  ]
}`

// edgeViews is a views document covering every query and condition node,
// every literal kind, typed NULLs, outer joins, union-all, null for every
// field, fields an op ignores (holding nodes that build, which the decoder
// checks but does not keep, and values it does not read) and every string
// escape.
const edgeViews = `{
  "query": {
    "V\/A": {"q": {"op": "project", "in": {"op": "select",
        "in": {"op": "join", "kind": "full",
          "l": {"op": "scantable", "n\u0061me": "T", "in": {"op": "scanset", "name": "X", "cond": {"op": "or", "kids": [{"op": "true"}]}}, "cond": null, "cols": null, "kind": "sideways", "l": null, "r": null, "on": null, "inputs": null},
          "r": {"op": "unionall", "inputs": [{"op": "scanset", "name": "S\"\\\b\f\n\r\t"}, {"op": "scanassoc", "name": "😀\ud800"}]},
          "on": [["a", "b"], null, [null, "c"]]},
        "cond": {"op": "and", "kids": [
          {"op": "cmp", "attr": "s", "cmp": "=", "kind": "string", "val": "x\u0000y"},
          {"op": "cmp", "attr": "i", "cmp": "<>", "kind": "int", "val": -12},
          {"op": "cmp", "attr": "f", "cmp": "<", "kind": "float", "val": 2.5e-3},
          {"op": "cmp", "attr": "b", "cmp": ">=", "kind": "bool", "val": true},
          {"op": "cmp", "attr": "n", "cmp": "<=", "kind": "int", "val": null},
          {"op": "not", "kids": [{"op": "null", "attr": "s"}]},
          {"op": "or", "kids": [{"op": "typeis", "var": "x", "type": "T", "only": true}, {"op": "typeis", "type": "U", "only": null}, {"op": "false"}]},
          {"op": "typeis", "type": "W", "kids": [{"op": "and", "kids": [{"op": "false"}]}], "val": {"any": ["json", 1]}},
          {"\u006fp": "true", "var": null, "type": null, "attr": null, "cmp": null, "kind": null}
        ]}},
      "cols": [
        {"as": "a", "src": "x"},
        {"as": "s", "lit": {"kind": "string", "val": "é"}},
        {"as": "i", "lit": {"kind": "int", "val": 7}},
        {"as": "f", "lit": {"kind": "float", "val": 1e300}},
        {"as": "b", "lit": {"kind": "bool", "val": false}},
        {"as": "z", "lit": {"kind": "int", "val": null}},
        {"as": "n", "src": "ignored", "lit": {"null": true, "kind": "float", "val": {"ignored": [1, 2]}}},
        {"as": "m", "lit": null},
        null
      ]},
      "cases": [
        {"when": {"op": "typeis", "var": "x", "type": "T"}, "type": "T", "attrs": {"a": "x", "b": null}},
        {"when": {"op": "true"}, "type": "U", "attrs": null},
        {"when": {"op": "false"}, "type": "W"}
      ]},
    "E": {"q": {"op": "join", "kind": "left", "l": {"op": "scanset", "name": "S"}, "r": {"op": "scantable", "name": "T"}, "on": []}, "cases": []}
  },
  "assoc": {"A": {"q": {"op": "select", "in": {"op": "scanassoc", "name": "A"}, "cond": {"op": "or"}}, "cases": null}},
  "update": {"T": {"q": {"op": "project", "in": {"op": "scanset", "name": "S"}, "cols": []}}, "U": {"q": {"op": "unionall"}}}
}`

// TestDecodeMatchesOracleOnEdgeShapes decodes hand-written documents that
// the encoders never write but the oracle accepts, each with its members
// in document order and in reverse, and checks the decoders agree.
func TestDecodeMatchesOracleOnEdgeShapes(t *testing.T) {
	for _, doc := range []string{edgeMapping, "null", `{}`, `{"client":null,"store":null,"fragments":null}`, " {\"client\":{}} \n\t\r"} {
		for form, b := range map[string][]byte{"ordered": []byte(doc), "reversed": reverseMembers(t, []byte(doc))} {
			if decodeMapping(t, form+" "+doc[:min(len(doc), 20)], b) == nil {
				t.Errorf("%s mapping %.40q rejected", form, doc)
			}
		}
	}
	for _, doc := range []string{edgeViews, "null", `{}`, `{"query":null,"assoc":{},"update":null}`} {
		for form, b := range map[string][]byte{"ordered": []byte(doc), "reversed": reverseMembers(t, []byte(doc))} {
			if decodeViews(t, form+" "+doc[:min(len(doc), 20)], b) == nil {
				t.Errorf("%s views %.40q rejected", form, doc)
			}
		}
	}
	v, err := modelio.DecodeViews(strings.NewReader(edgeViews))
	if err != nil {
		t.Fatal(err)
	}
	and := v.Query["V/A"].Q.(cqt.Project).In.(cqt.Select).Cond.(*cond.And)
	for _, want := range []cond.Expr{
		cond.Cmp{Attr: "s", Op: cond.OpEq, Val: cond.String("x\x00y")},
		cond.Cmp{Attr: "n", Op: cond.OpLe, Val: cond.Int(0)},
		cond.TypeIs{Type: "W"},
	} {
		found := false
		for _, x := range and.Xs {
			found = found || x == want
		}
		if !found {
			t.Errorf("decoded condition lacks %v: %v", want, and)
		}
	}

	// Documents both sides reject, shape by shape.
	for _, doc := range []string{
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"cmp","attr":"a","cmp":"=","kind":"int","val":1e3}}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"cmp","attr":"a","cmp":"=","kind":"int","val":1.0}}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"cmp","attr":"a","cmp":"=","kind":"int"}}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"cmp","attr":"a","cmp":"=","kind":"float","val":1e400}}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"not","kids":[{"op":"true"},{"op":"true"}]}}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"and","kids":[null]}}}}}`,
		`{"query":{"V":{"q":{"op":"unionall","inputs":[null]}}}}`,
		`{"query":{"V":{"q":{"op":"project","in":{"op":"scanset"},"cols":[{"as":"x","lit":{"kind":"int","val":"7"}}]}}}}`,
		`{"query":{"V":{"q":{"op":"project","in":{"op":"scanset"},"cols":[{"as":"x","lit":{"null":true,"kind":"date"}}]}}}}`,
		`{"query":{"V":{"q":{"op":"scanset"},"cases":[null]}}}`,
		`{"query":{"V":{"q":{"op":"scanset"},"cases":[{"when":{"op":"typeis","kids":[5]}}]}}}`,
		`{"query":{"V":null}}`,
		`{"query":{"V":{"q":{"op":"scanset","name":5}}}}`,
		`{"query":{"V":{"q":{"op":"scanset","on":{}}}}}`,
		`{"query":{"V":{"q":{"op":"scanset","on":[[1,2]]}}}}`,
		"{\"query\":{\"V\":{\"q\":{\"op\":\"scanset\",\"name\":\"a\x01\"}}}}",
		`{"query":{"V":{"q":{"op":"scanset","name":"\x"}}}}`,
		`{"query":{"V":{"q":{"op":"scanset","name":"\u12"}}}}`,
		`{"query":{"V":{"q":{"op":"scanset"},"cases":[{"when":{"op":"true","val":01}}]}}}`,
		`{"query":{"V":{"q":{"op":"scanset"},"cases":[{"when":{"op":"true","val":[1,]}}]}}}`,
	} {
		if got := decodeViews(t, doc[:min(len(doc), 60)], []byte(doc)); got != nil {
			t.Errorf("views %.80q accepted", doc)
		}
	}
	// encoding/json's nesting limit: a condition nested just inside it
	// decodes, one nested a level deeper fails on both sides.
	accepted := 0
	for nots := 4996; nots <= 4998; nots++ {
		doc := `{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":` +
			strings.Repeat(`{"op":"not","kids":[`, nots) + `{"op":"true"}` + strings.Repeat(`]}`, nots) + `}}}}`
		if decodeViews(t, fmt.Sprintf("%d nested nots", nots), []byte(doc)) != nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == 3 {
		t.Errorf("%d of 3 nestings around the depth limit decoded; the limit was not exercised", accepted)
	}

	for _, doc := range []string{
		strings.Replace(edgeMapping, `"mult": "*"`, `"mult": "**"`, 1),
		strings.Replace(edgeMapping, `[-0, 9007199254740993, null]`, `[1.5]`, 1),
		strings.Replace(edgeMapping, `[true, false, null]`, `["true"]`, 1),
		strings.Replace(edgeMapping, `"end2": {"type": "Person", "mult": "0..1"}`, `"end2": null`, 1),
		strings.Replace(edgeMapping, `"storeCond": "Boss IS NOT NULL"`, `"storeCond": "Boss >"`, 1),
		`{"client":{"types":[null]}}`,
		`{"fragments":[null]}`,
		`[]`,
		``,
		` `,
	} {
		if got := decodeMapping(t, doc[:min(len(doc), 60)], []byte(doc)); got != nil {
			t.Errorf("mapping %.80q accepted", doc)
		}
	}
}

// TestDecodeSnapshotMatchesOracle exports the SatCache of a customer-60
// compile and checks DecodeSnapshot against the oracle on it and on edge
// shapes.
func TestDecodeSnapshotMatchesOracle(t *testing.T) {
	exported, err := json.Marshal(compiledSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		string(exported),
		"null", `{}`, `{"entries":null,"scopes":null}`, `{"entries":{},"scopes":[]}`,
		`{"scopes":[null,{"key":"k","lemmas":[null,{"lits":null},{"lits":[null,{"g":"xé","a":null,"n":null},{"a":-2147483648,"n":true},{"a":2147483647}]}]}],"entries":{"a":true,"b":false,"c":null,"":true}}`,
	} {
		got, err := modelio.DecodeSnapshot([]byte(doc))
		want, oerr := modelio.OracleDecodeSnapshot([]byte(doc))
		if err != nil || oerr != nil {
			t.Fatalf("snapshot %.60q: DecodeSnapshot error %v, oracle error %v", doc, err, oerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %.60q decodes differently from the oracle", doc)
		}
	}
	for _, doc := range []string{
		`{"scopes":[{"lemmas":[{"lits":[{"a":2147483648}]}]}]}`,
		`{"scopes":[{"lemmas":[{"lits":[{"a":1.0}]}]}]}`,
		`{"scopes":[{"lemmas":[{"lits":[{"a":"1"}]}]}]}`,
		`{"entries":{"k":1}}`,
		`{"entries":[]}`,
		``,
	} {
		if _, err := modelio.DecodeSnapshot([]byte(doc)); err == nil {
			t.Errorf("snapshot %q accepted", doc)
		}
		if _, err := modelio.OracleDecodeSnapshot([]byte(doc)); err == nil {
			t.Errorf("oracle accepted snapshot %q", doc)
		}
	}
}

// TestDecodeTightenings pins each way the decoders are stricter than the
// oracle: the oracle accepts every document here and the decoders reject
// it.
func TestDecodeTightenings(t *testing.T) {
	view := func(q string) string { return `{"query":{"V":{"q":` + q + `}}}` }
	const scan = `{"op":"scanset","name":"S"}`
	for _, tc := range []struct {
		name, kind, doc string
	}{
		{"case-folded key", "mapping", `{"Client":{}}`},
		{"case-folded key", "mapping", `{"client":{"types":[{"NAME":"A","attrs":[{"name":"Id","type":"int"}],"key":["Id"]}]}}`},
		{"case-folded key", "views", `{"Query":{}}`},
		{"case-folded key", "views", view(`{"OP":"scanset","name":"S"}`)},
		{"case-folded key", "snapshot", `{"Entries":{"k":true}}`},
		{"case-folded key", "snapshot", `{"scopes":[{"key":"k","lemmas":[{"lits":[{"G":"x"}]}]}]}`},
		{"repeated key", "mapping", `{"client":{},"client":{}}`},
		{"repeated key", "mapping", `{"client":{"types":[{"name":"A","name":"A","attrs":[{"name":"Id","type":"int"}],"key":["Id"]}],"sets":[{"name":"As","type":"A"}]},` +
			`"store":{"tables":[{"name":"T","cols":[{"name":"Id","type":"int"}],"key":["Id"]}]},` +
			`"fragments":[{"id":"f","set":"As","clientCond":"TRUE","attrs":["Id"],"table":"T","storeCond":"TRUE","colOf":{"Id":"Id"}}]}`},
		{"repeated colOf key", "mapping", `{"client":{"types":[{"name":"A","attrs":[{"name":"Id","type":"int"}],"key":["Id"]}],"sets":[{"name":"As","type":"A"}]},` +
			`"store":{"tables":[{"name":"T","cols":[{"name":"Id","type":"int"}],"key":["Id"]}]},` +
			`"fragments":[{"id":"f","set":"As","clientCond":"TRUE","attrs":["Id"],"table":"T","storeCond":"TRUE","colOf":{"Id":"X","Id":"Id"}}]}`},
		{"repeated key", "views", `{"query":{},"query":{}}`},
		{"repeated key", "views", view(`{"op":"scanset","op":"scanset"}`)},
		{"repeated view name", "views", `{"query":{"V":{"q":` + scan + `},"V":{"q":` + scan + `}}}`},
		{"repeated case attrs key", "views", view(scan + `,"cases":[{"when":{"op":"true"},"type":"T","attrs":{"a":"x","a":"y"}}]`)},
		{"repeated key in an ignored field", "views", view(`{"op":"scanset","name":"S","in":{"op":"x","op":"y"}}`)},
		{"unbuildable node in an ignored field", "views", view(`{"op":"scanset","name":"S","in":{"op":"warp"}}`)},
		{"unbuildable node in an ignored field", "views", view(`{"op":"scantable","name":"T","cond":{"op":"not"}}`)},
		{"unbuildable node in an ignored field", "views", view(`{"op":"scanassoc","name":"A","l":{"op":"select","in":{"op":"scanset","name":"S"}}}`)},
		{"unbuildable node in an ignored field", "views", view(`{"op":"select","in":` + scan + `,"cond":{"op":"true"},"inputs":[null]}`)},
		{"unbuildable node in an ignored field", "views", view(`{"op":"select","in":` + scan + `,"cond":{"op":"null","attr":"a","kids":[{"op":"cmp","cmp":"=","kind":"int","val":"7"}]}}`)},
		{"unbuildable node in an ignored field", "views", view(`{"op":"unionall","cols":[{"as":"x","lit":{"kind":"date"}}]}`)},
		{"repeated entries key", "snapshot", `{"entries":{"k":true,"k":false}}`},
		{"repeated key", "snapshot", `{"scopes":[],"scopes":[]}`},
		{"trailing bytes", "mapping", `{}]]] not json`},
		{"trailing bytes", "mapping", `null x`},
		{"trailing bytes", "views", `{}{}`},
		{"trailing bytes", "snapshot", `{} 1`},
		{"short join pair", "views", view(`{"op":"join","kind":"inner","l":` + scan + `,"r":` + scan + `,"on":[["a"]]}`)},
		{"long join pair", "views", view(`{"op":"join","kind":"inner","l":` + scan + `,"r":` + scan + `,"on":[["a","b","c"]]}`)},
		{"empty join pair", "views", view(`{"op":"scanset","name":"S","on":[[]]}`)},
	} {
		t.Run(tc.name+"/"+tc.kind, func(t *testing.T) {
			if err := decodeKind(tc.kind, []byte(tc.doc)); err == nil {
				t.Errorf("decoder accepted %s", tc.doc)
			}
			if err := oracleKind(tc.kind, []byte(tc.doc)); err != nil {
				t.Errorf("oracle rejected %s: %v; not a tightening", tc.doc, err)
			}
			if !tightened([]byte(tc.doc)) {
				t.Errorf("FuzzDecoders' judge does not see the tightening in %s", tc.doc)
			}
		})
	}
}

// TestDecodeRejectsTrailingBytes checks that nothing but whitespace may
// follow a document: encoding/json's stream decoder stopped after the
// first value and ignored the rest.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	var mb bytes.Buffer
	if err := modelio.Encode(&mb, workload.PaperFull()); err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.Decode(bytes.NewReader(append(mb.Bytes(), " \t\r\n"...))); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	if _, err := modelio.Decode(bytes.NewReader(append(mb.Bytes(), "]]] not json"...))); err == nil {
		t.Error("Decode accepted a mapping document followed by ]]] not json")
	}
	vb, err := modelio.AppendViews(nil, compiledViews(t, workload.PaperFull()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.DecodeViews(bytes.NewReader(append(vb, "]]] not json"...))); err == nil {
		t.Error("DecodeViews accepted a views document followed by ]]] not json")
	}
}

// TestDecodeViewsRejectsUnknownFields checks that a misspelled field fails
// a views document instead of silently changing a view's meaning: the
// stream decoder without DisallowUnknownFields read this view as
// TypeIs{Only: false} with an empty attribute map.
func TestDecodeViewsRejectsUnknownFields(t *testing.T) {
	doc := `{"query":{"V":{"q":{"op":"scanset","name":"S"},"cases":[{"when":{"op":"typeis","var":"x","type":"T","onyl":true},"type":"T","atrs":{"a":"b"}}]}}}`
	if _, err := modelio.DecodeViews(strings.NewReader(doc)); err == nil {
		t.Error("DecodeViews accepted misspelled fields")
	}
	if _, err := modelio.DecodeSnapshot([]byte(`{"entries":{"k":true},"scopez":[]}`)); err == nil {
		t.Error("DecodeSnapshot accepted a misspelled field")
	}
}

func compiledViews(t *testing.T, m *frag.Mapping) *frag.Views {
	t.Helper()
	v, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return v
}

// decodeKind decodes a document of one kind: mapping, views or snapshot.
func decodeKind(kind string, doc []byte) error {
	var err error
	switch kind {
	case "mapping":
		_, err = modelio.Decode(bytes.NewReader(doc))
	case "views":
		_, err = modelio.DecodeViews(bytes.NewReader(doc))
	default:
		_, err = modelio.DecodeSnapshot(doc)
	}
	return err
}

// oracleKind is decodeKind through the oracle.
func oracleKind(kind string, doc []byte) error {
	var err error
	switch kind {
	case "mapping":
		_, err = modelio.OracleDecode(doc)
	case "views":
		_, err = modelio.OracleDecodeViews(doc)
	default:
		_, err = modelio.OracleDecodeSnapshot(doc)
	}
	return err
}

// docKinds are the document kinds FuzzDecoders picks from.
var docKinds = [...]string{"mapping", "views", "snapshot"}

// FuzzDecoders feeds arbitrary bytes to the decoder of one document kind
// and to its oracle. Nothing may panic; a document the decoder accepts,
// the oracle accepts too and builds into the same tree, compared through
// its encoding; and a document the oracle accepts that holds none of the
// decoders' tightenings, the decoder accepts.
func FuzzDecoders(f *testing.F) {
	// Seeds stay small: the fuzzer minimizes every new input it keeps, at a
	// cost that grows with the square of the input's length. The committed
	// corpus adds the other node kinds.
	f.Add(uint8(0), []byte(`{"client":{"types":[{"name":"A","attrs":[{"name":"Id","type":"int","enum":[1]}],"key":["Id"]}],"sets":[{"name":"As","type":"A"}]},`+
		`"store":{"tables":[{"name":"T","cols":[{"name":"Id","type":"int"}],"key":["Id"]}]},`+
		`"fragments":[{"id":"f","set":"As","clientCond":"TRUE","attrs":["Id"],"table":"T","storeCond":"TRUE","colOf":{"Id":"Id"}}]}`))
	f.Add(uint8(1), []byte(`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"cmp","attr":"a","cmp":"=","kind":"int","val":1}},`+
		`"cases":[{"when":{"op":"typeis","var":"x","type":"T"},"type":"T","attrs":{"a":"b"}}]}}}`))
	f.Add(uint8(2), []byte(`{"entries":{"k":true,"j":false},"scopes":[{"key":"s","lemmas":[{"lits":[{"g":"x","n":true},{"a":3}]}]}]}`))
	f.Fuzz(func(t *testing.T, kind uint8, doc []byte) {
		switch k := docKinds[int(kind)%len(docKinds)]; k {
		case "mapping":
			got, err := modelio.Decode(bytes.NewReader(doc))
			want, oerr := modelio.OracleDecode(doc)
			agree(t, k, doc, err, oerr)
			if err == nil {
				sameBytes(t, "decoded mapping", mustAppendMapping(t, got), mustAppendMapping(t, want))
			}
		case "views":
			got, err := modelio.DecodeViews(bytes.NewReader(doc))
			want, oerr := modelio.OracleDecodeViews(doc)
			agree(t, k, doc, err, oerr)
			if err == nil {
				sameBytes(t, "decoded views", mustAppendViews(t, got), mustAppendViews(t, want))
				modelio.CheckReinterned(t, want, got)
			}
		case "snapshot":
			got, err := modelio.DecodeSnapshot(doc)
			want, oerr := modelio.OracleDecodeSnapshot(doc)
			agree(t, k, doc, err, oerr)
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatal("decoded snapshot differs from the oracle's")
			}
		}
	})
}

// agree checks one document's decode outcomes against the accepted
// language: the decoder accepts only what the oracle accepts, and rejects
// an oracle-accepted document only for a tightening.
func agree(t *testing.T, kind string, doc []byte, err, oerr error) {
	t.Helper()
	if err == nil && oerr != nil {
		t.Fatalf("%s: decoder accepted what the oracle rejects (%v)", kind, oerr)
	}
	if err != nil && oerr == nil && !tightened(doc) {
		t.Fatalf("%s: decoder rejected an oracle-accepted document holding no tightening: %v", kind, err)
	}
}

// allFields is every field name of the three document kinds.
var allFields = strings.Fields(`client store fragments types sets associations name base abstract attrs
	key type nullable enum end1 end2 mult tables cols fks refTable refCols id set assoc clientCond
	table storeCond colOf query update q cases when op in cond kind l r on inputs as src lit null
	val var only attr cmp kids entries scopes lemmas lits g a n`)

// tightened reports whether an oracle-accepted document holds one of the
// decoders' tightenings, judged through encoding/json alone: anything but
// whitespace after the first value, a key repeated within an object, a
// key that equals a field name only when case is folded, a join pair of
// other than two elements, or a node field its op ignores holding anything
// but null or an empty list. Map keys count too, so a map key that folds
// to a field name is a (false) positive; that only skips the check.
func tightened(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		return false
	}
	if len(bytes.Trim(doc[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	var walk func(raw json.RawMessage, key string) bool
	walk = func(raw json.RawMessage, key string) bool {
		raw = bytes.TrimLeft(raw, " \t\r\n")
		switch raw[0] {
		case '{':
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.Token()
			seen := map[string]bool{}
			for dec.More() {
				tok, _ := dec.Token()
				k := tok.(string)
				if seen[k] || folded(k) {
					return true
				}
				seen[k] = true
				var v json.RawMessage
				if dec.Decode(&v) != nil || walk(v, k) {
					return true
				}
			}
			var members map[string]json.RawMessage
			if json.Unmarshal(raw, &members) == nil && ignoresNode(members) {
				return true
			}
		case '[':
			var elems []json.RawMessage
			json.Unmarshal(raw, &elems)
			for _, e := range elems {
				var pair []json.RawMessage
				if key == "on" && json.Unmarshal(e, &pair) == nil && pair != nil && len(pair) != 2 {
					return true
				}
				if walk(e, "") {
					return true
				}
			}
		}
		return false
	}
	return walk(first, "")
}

// nodeFieldUsers maps each field of a query or condition node that holds
// nodes to the ops that use it.
var nodeFieldUsers = map[string][]string{
	"in": {"select", "project"}, "cond": {"select"}, "cols": {"project"},
	"l": {"join"}, "r": {"join"}, "inputs": {"unionall"}, "kids": {"not", "and", "or"},
}

// ignoresNode reports whether an object, read as a query or condition
// node, has a node field its op ignores that holds anything but null or an
// empty list: the decoders check that content builds, the oracle never
// looks at it.
func ignoresNode(members map[string]json.RawMessage) bool {
	var op string
	if json.Unmarshal(members["op"], &op) != nil {
		return false
	}
	for field, users := range nodeFieldUsers {
		raw, ok := members[field]
		if !ok || slices.Contains(users, op) {
			continue
		}
		var list []json.RawMessage
		if json.Unmarshal(raw, &list) != nil || len(list) > 0 {
			return true
		}
	}
	return false
}

// folded reports whether k matches a field name only under case folding.
func folded(k string) bool {
	for _, f := range allFields {
		if k == f {
			return false
		}
	}
	for _, f := range allFields {
		if strings.EqualFold(k, f) {
			return true
		}
	}
	return false
}

// TestDecodeDoesNotInternIgnoredNodes checks that a condition in a field
// its node's op ignores is checked but not built: decoding it leaves the
// cond intern table as it was, while the same condition where it is used
// is interned.
func TestDecodeDoesNotInternIgnoredNodes(t *testing.T) {
	and := `{"op":"and","kids":[{"op":"null","attr":"IgnoredA"},{"op":"not","kids":[{"op":"null","attr":"IgnoredB"}]}]}`
	before := cond.InternStats()
	if _, err := modelio.DecodeViews(strings.NewReader(`{"query":{"V":{"q":{"op":"scanset","name":"S","cond":` + and + `}}}}`)); err != nil {
		t.Fatal(err)
	}
	if got := cond.InternStats(); got != before {
		t.Fatalf("decoding an ignored condition interned %d nodes", got-before)
	}
	if _, err := modelio.DecodeViews(strings.NewReader(`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":` + and + `}}}}`)); err != nil {
		t.Fatal(err)
	}
	if got := cond.InternStats(); got != before+2 {
		t.Fatalf("decoding a used condition interned %d nodes, want its and and not nodes", got-before)
	}
}
