package store

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/workload"
)

// validCases are documents at the edges of the JSON grammar, each judged
// by json.Valid, the oracle.
var validCases = []string{
	``, ` `, `null`, ` null `, "\t\r\n1\n", `nul`, `nulll`, `true`, `tru`, `false`, `falsy`,
	`0`, `-0`, `01`, `-`, `-a`, `1.`, `1.5`, `.5`, `1e`, `1e+`, `1e-7`, `1E+07`, `-0.0e0`, `2.e3`,
	`123456789012345678901234567890`, `1 2`, `[1 2]`, `1,`,
	`""`, `"`, `"abc`, `"\"`, `"\\"`, `"\/"`, `"\b\f\n\r\t"`, `"\a"`, `"é"`, `"\u00G9"`,
	`"\u12"`, `"\uD800"`, "\"\x00\"", "\"\x1f\"", "\"\x7f\"", "\"\xff\xfe\"", "\"é€😀\"",
	"\"tab\there\"", `"12345678\"`, `"1234567\"1234567"`, `"12345678901234567890"`,
	`[]`, `[`, `]`, `[,]`, `[1,]`, `[,1]`, `[1,2,3]`, `[[[]]]`, `[[[]]`, `[] []`, `[ ]`, "[\n1\n,\n2\n]",
	`{}`, `{`, `}`, `{"a"}`, `{"a":}`, `{"a":1}`, `{"a":1,}`, `{,"a":1}`, `{"a":1 "b":2}`, `{"a" : 1 , "b" : [ ] }`,
	`{1:2}`, `{"a":1}}`, `{"a":{"b":{"c":[1,{"d":null}]}}}`, `{"a":[}`, `[{]`, `{"a":1]`, `[1}`,
	"{\"a\":\"\x01\"}", `{"A":true}`, `{"a":1}x`, `x`, "\x00", `[true,false,null]`, `[True]`,
}

func TestValidJSONMatchesOracle(t *testing.T) {
	for _, c := range validCases {
		if got, want := validJSON([]byte(c)), json.Valid([]byte(c)); got != want {
			t.Errorf("validJSON(%q) = %v, json.Valid says %v", c, got, want)
		}
	}
}

// TestValidJSONDepthLimit pins the nesting limit: 10,000 open arrays and
// objects are accepted, the 10,001st is not, as in encoding/json.
func TestValidJSONDepthLimit(t *testing.T) {
	for _, n := range []int{9999, 10000, 10001} {
		for _, open := range []string{"[", `{"k":`} {
			closer := "]"
			if open != "[" {
				closer = "}"
			}
			doc := []byte(strings.Repeat(open, n) + "0" + strings.Repeat(closer, n))
			if got, want := validJSON(doc), json.Valid(doc); got != want || want != (n <= 10000) {
				t.Errorf("depth %d of %q: validJSON %v, json.Valid %v", n, open, got, want)
			}
		}
	}
}

// TestValidJSONOnGenerationPayload checks a compiled generation's payload
// and every truncation of its head.
func TestValidJSONOnGenerationPayload(t *testing.T) {
	m, v := compiledPair(t, workload.PaperFull())
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		t.Fatal(err)
	}
	payload := p.AppendTo(nil)
	if !validJSON(payload) {
		t.Fatal("validJSON rejects a generation payload")
	}
	for n := 0; n < len(payload); n += 7 {
		if got, want := validJSON(payload[:n]), json.Valid(payload[:n]); got != want {
			t.Fatalf("payload[:%d]: validJSON %v, json.Valid %v", n, got, want)
		}
	}
}

// FuzzValidJSON is the validator's differential fuzz: on every input it
// must agree with json.Valid.
func FuzzValidJSON(f *testing.F) {
	for _, c := range validCases {
		f.Add([]byte(c))
	}
	f.Add([]byte(`{"mapping":{"client":{"types":[{"name":"A","attrs":[{"name":"Id","type":"int"}],"key":["Id"]}]}},"views":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := validJSON(data), json.Valid(data); got != want {
			t.Fatalf("validJSON(%q) = %v, json.Valid says %v", data, got, want)
		}
	})
}

// BenchmarkValidJSON times the validator and json.Valid on the chain-1002
// generation payload.
func BenchmarkValidJSON(b *testing.B) {
	m, v := compiledPair(b, workload.Chain(1002))
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		b.Fatal(err)
	}
	payload := p.AppendTo(nil)
	for name, valid := range map[string]func([]byte) bool{"validJSON": validJSON, "json.Valid": json.Valid} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if !valid(payload) {
					b.Fatal("payload rejected")
				}
			}
		})
	}
}
