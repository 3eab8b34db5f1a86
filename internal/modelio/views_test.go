package modelio

import (
	"bytes"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/workload"
)

func compiledViews(t *testing.T, m *frag.Mapping) *frag.Views {
	t.Helper()
	views, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return views
}

// viewConds collects every condition of a view — Select nodes of the query
// tree plus constructor case guards — in deterministic traversal order.
func viewConds(v *cqt.View) []cond.Expr {
	var out []cond.Expr
	cqt.AnyCond(v.Q, func(c cond.Expr) bool {
		out = append(out, c)
		return false
	})
	for _, c := range v.Cases {
		out = append(out, c.When)
	}
	return out
}

// TestViewsRoundtrip encodes compiled views, decodes them, and checks the
// decode is byte-faithful (re-encode equality) and semantically intact
// (data roundtrips through the decoded views).
func TestViewsRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *frag.Mapping
	}{
		{"paperFull", workload.PaperFull()},
		{"partitioned", workload.PartitionedAgeModel()},
		{"hubrim", workload.HubRim(workload.HubRimOptions{N: 2, M: 3, TPH: true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := compiledViews(t, tc.m)
			var buf bytes.Buffer
			if err := EncodeViews(&buf, views); err != nil {
				t.Fatalf("encode: %v", err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			back, err := DecodeViews(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var again bytes.Buffer
			if err := EncodeViews(&again, back); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(first, again.Bytes()) {
				t.Error("encode/decode/encode drift")
			}
			if len(back.Query) != len(views.Query) || len(back.Assoc) != len(views.Assoc) || len(back.Update) != len(views.Update) {
				t.Fatalf("view counts drifted: %d/%d/%d vs %d/%d/%d",
					len(back.Query), len(back.Assoc), len(back.Update),
					len(views.Query), len(views.Assoc), len(views.Update))
			}
		})
	}
}

// TestViewsRoundtripSemantics runs a full data roundtrip through decoded
// views: the serialized artifact must be a drop-in replacement for the
// compiled one.
func TestViewsRoundtripSemantics(t *testing.T) {
	m := workload.PaperFull()
	views := compiledViews(t, m)
	var buf bytes.Buffer
	if err := EncodeViews(&buf, views); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeViews(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := orm.Roundtrip(m, back, workload.PaperClientState()); err != nil {
		t.Fatalf("data roundtrip through decoded views: %v", err)
	}
}

// TestViewsReinternIdentity is the load-path half of the hash-consing
// invariant: decoding funnels every composite condition back through the
// cond constructors, so a decoded condition must be pointer-equal (==) to
// the still-resident original — x == Load(Save(x)) — and must produce
// byte-identical SatCache keys. This is what lets a warm-started process
// mix loaded views with freshly compiled ones.
func TestViewsReinternIdentity(t *testing.T) {
	m := workload.PaperFull()
	views := compiledViews(t, m)
	data, err := AppendViews(nil, views)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeViews(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if CheckReinterned(t, views, back) == 0 {
		t.Fatal("no conditions compared; fixture too trivial")
	}
}

// CheckReinterned checks that every condition of the decoded view set back
// is pointer-equal to the condition at the same place in views and has the
// same SatCache key, and returns how many it compared. It is exported for
// the oracle tests in package modelio_test.
func CheckReinterned(t testing.TB, views, back *frag.Views) int {
	t.Helper()
	th := &cond.MapTheory{}
	checked := 0
	check := func(name string, a, b *cqt.View) {
		if b == nil {
			t.Fatalf("%s: view lost in decode", name)
		}
		ca, cb := viewConds(a), viewConds(b)
		if len(ca) != len(cb) {
			t.Fatalf("%s: condition count drifted: %d vs %d", name, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%s: condition %d not re-interned to the original node:\n  %s\n  %s",
					name, i, ca[i], cb[i])
			}
			if ka, kb := cond.CacheKey(th, ca[i]), cond.CacheKey(th, cb[i]); ka != kb {
				t.Fatalf("%s: cache key drifted for condition %d", name, i)
			}
			checked++
		}
	}
	for name, v := range views.Query {
		check("query "+name, v, back.Query[name])
	}
	for name, v := range views.Assoc {
		check("assoc "+name, v, back.Assoc[name])
	}
	for name, v := range views.Update {
		check("update "+name, v, back.Update[name])
	}
	return checked
}

// TestViewsDecodeRejectsGarbage checks structurally invalid documents fail
// loudly (the store turns these errors into silent cold starts).
func TestViewsDecodeRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"{",
		`{"query":{"V":{}}}`,
		`{"query":{"V":{"q":{"op":"warp"}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"}}}}}`,
		`{"query":{"V":{"q":{"op":"select","in":{"op":"scanset","name":"S"},"cond":{"op":"cmp","attr":"a","cmp":"??","kind":"int","val":1}}}}}`,
		`{"update":{"T":{"q":{"op":"join","kind":"sideways","l":{"op":"scantable","name":"T"},"r":{"op":"scantable","name":"T"}}}}}`,
	} {
		if _, err := DecodeViews(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("DecodeViews(%q) accepted", in)
		}
	}
}
