package modelio_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/workload"
)

// smallCustomer scales the customer model down to test size; the suite
// targets below exist at this size.
var smallCustomer = workload.CustomerOptions{
	Types: 60, Hierarchies: 8, LargestTPH: 25, Associations: 8, SharedTableFKs: 2,
}

const chainSize = 40

// builderModels builds one model per workload builder, at test sizes.
func builderModels(t *testing.T) map[string]*frag.Mapping {
	t.Helper()
	out := map[string]*frag.Mapping{}
	for name, build := range map[string]func() (*frag.Mapping, error){
		"paperInitial": workload.PaperInitialE,
		"paperFull":    workload.PaperFullE,
		"chain":        func() (*frag.Mapping, error) { return workload.ChainE(chainSize) },
		"hubrim-tph":   func() (*frag.Mapping, error) { return workload.HubRimE(workload.HubRimOptions{N: 2, M: 3, TPH: true}) },
		"hubrim-tpt":   func() (*frag.Mapping, error) { return workload.HubRimE(workload.HubRimOptions{N: 2, M: 3}) },
		"customer":     func() (*frag.Mapping, error) { return workload.CustomerE(smallCustomer) },
	} {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	return out
}

// checkEncoders holds every encoder to the doc-tree oracle on one
// generation: AppendMapping and AppendViews against json.Marshal of the
// document forms, Encode and EncodeViews against a json.Encoder over them.
// Then it holds the decoders to theirs on every form of the encodings
// (checkDecoders). It returns the compact encodings.
func checkEncoders(t *testing.T, name string, m *frag.Mapping, v *frag.Views) (mapping, views []byte) {
	t.Helper()
	mapping, views = checkOracleBytes(t, name, m, v)
	checkDecoders(t, name, m, v)
	return mapping, views
}

// checkOracleBytes is checkEncoders without the decode.
func checkOracleBytes(t *testing.T, name string, m *frag.Mapping, v *frag.Views) (mapping, views []byte) {
	t.Helper()
	doc, err := modelio.ToDocument(m)
	if err != nil {
		t.Fatalf("%s: oracle mapping: %v", name, err)
	}
	want, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err = modelio.AppendMapping([]byte("prefix"), m)
	if err != nil {
		t.Fatalf("%s: AppendMapping: %v", name, err)
	}
	if !bytes.HasPrefix(mapping, []byte("prefix")) {
		t.Fatalf("%s: AppendMapping dropped dst", name)
	}
	mapping = mapping[len("prefix"):]
	sameBytes(t, name+": AppendMapping", mapping, want)

	var wantIndented bytes.Buffer
	enc := json.NewEncoder(&wantIndented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	var gotIndented bytes.Buffer
	if err := modelio.Encode(&gotIndented, m); err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	sameBytes(t, name+": Encode", gotIndented.Bytes(), wantIndented.Bytes())

	vdoc, err := modelio.ViewsToDoc(v)
	if err != nil {
		t.Fatalf("%s: oracle views: %v", name, err)
	}
	if want, err = json.Marshal(vdoc); err != nil {
		t.Fatal(err)
	}
	if views, err = modelio.AppendViews(nil, v); err != nil {
		t.Fatalf("%s: AppendViews: %v", name, err)
	}
	sameBytes(t, name+": AppendViews", views, want)

	var wantLine, gotLine bytes.Buffer
	if err := json.NewEncoder(&wantLine).Encode(vdoc); err != nil {
		t.Fatal(err)
	}
	if err := modelio.EncodeViews(&gotLine, v); err != nil {
		t.Fatalf("%s: EncodeViews: %v", name, err)
	}
	sameBytes(t, name+": EncodeViews", gotLine.Bytes(), wantLine.Bytes())
	return mapping, views
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	t.Fatalf("%s differs from the oracle at byte %d (len %d, want %d):\n got  %q\n want %q",
		what, i, len(got), len(want), got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

func TestAppendMatchesOracleOnBuilderModels(t *testing.T) {
	for name, m := range builderModels(t) {
		t.Run(name, func(t *testing.T) {
			v, err := compiler.New().Compile(m)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			checkEncoders(t, name, m, v)
		})
	}
}

// TestAppendMatchesOracleOnEdgeShapes covers shapes that no valid model
// holds but an unvalidated one can: empty schemas and view sets, empty
// versus nil slices and maps, childless nodes, empty names and an
// undeclared kind. Encoding errors must match the oracle's too.
func TestAppendMatchesOracleOnEdgeShapes(t *testing.T) {
	checkOracleBytes(t, "empty", &frag.Mapping{Client: edm.NewSchema(), Store: rel.NewSchema()}, frag.NewViews())

	m := workload.PaperInitial()
	ty := m.Client.Types()[0]
	ty.Key = []string{}
	ty.Attrs = append(ty.Attrs, edm.Attribute{Name: "k", Type: cond.Kind(9), Enum: []cond.Value{cond.Int(1)}})
	tab := m.Store.Tables()[0]
	tab.Key = []string{}
	tab.FKs = []rel.ForeignKey{{Name: "fk", Cols: []string{}, RefTable: tab.Name}}
	if err := m.Store.AddTable(rel.Table{Name: "NoCols", Key: []string{"Id"}, Cols: []rel.Column{{Name: "Id"}}}); err != nil {
		t.Fatal(err)
	}
	m.Store.Table("NoCols").Cols = nil
	m.Frags = append(m.Frags,
		&frag.Fragment{ID: "empty", Attrs: []string{}, ColOf: map[string]string{}, ClientCond: cond.True{}, StoreCond: cond.False{}},
		&frag.Fragment{ID: "nil", ClientCond: cond.True{}, StoreCond: cond.True{}},
	)
	v := frag.NewViews()
	v.SetQuery("", &cqt.View{
		Q: cqt.Select{
			In: cqt.UnionAll{Inputs: []cqt.Expr{
				cqt.Project{In: cqt.ScanSet{}},
				cqt.Project{In: cqt.ScanAssoc{}, Cols: []cqt.ProjCol{{As: ""}, cqt.LitAs(cqt.NullOf(cond.Kind(9)), "n")}},
				cqt.Join{Kind: cqt.Inner, L: cqt.ScanTable{}, R: cqt.UnionAll{}},
			}},
			Cond: &cond.Or{Xs: []cond.Expr{&cond.And{}, cond.TypeIs{}, cond.Null{}, cond.Cmp{}}},
		},
		Cases: []cqt.Case{{When: cond.False{}, Attrs: map[string]string{}}},
	})
	v.SetUpdate("T", &cqt.View{Q: cqt.ScanTable{Table: "T"}, Cases: []cqt.Case{}})
	checkOracleBytes(t, "unvalidated", m, v)

	for name, bad := range map[string]*cqt.View{
		"value kind": {Q: cqt.Project{In: cqt.ScanSet{Set: "S"}, Cols: []cqt.ProjCol{cqt.LitAs(cqt.Const(cond.Value{K: cond.Kind(9)}), "x")}}},
		"nil cond":   {Q: cqt.Select{In: cqt.ScanSet{Set: "S"}}},
		"nil query":  {},
		"NaN":        {Q: cqt.Select{In: cqt.ScanSet{Set: "S"}, Cond: cond.Cmp{Attr: "x", Val: cond.Float(math.NaN())}}},
	} {
		bv := frag.NewViews()
		bv.SetAssoc("A", bad)
		if _, err := modelio.ViewsToDoc(bv); err == nil {
			t.Fatalf("%s: oracle accepted the view", name)
		}
		if out, err := modelio.AppendViews([]byte("dst"), bv); err == nil || string(out) != "dst" {
			t.Errorf("%s: AppendViews returned %q, %v; want dst unchanged and an error", name, out, err)
		}
	}
	// The oracle panics on a nil view; the encoder reports it.
	nv := frag.NewViews()
	nv.SetQuery("V", nil)
	if _, err := modelio.AppendViews(nil, nv); err == nil {
		t.Error("AppendViews accepted a nil view")
	}
}

// TestAppendMatchesOracleOnSuiteGenerations runs the nine Figure 9/10
// suite operations on the chain and customer models and checks the
// encoders and decoders on every generation they produce. Between them the
// generations carry every shape the encoders write; the test checks each
// shape occurred. The base and every generation are frozen, as a session
// freezes them, so each generation encodes from the base's entry records,
// and the memo oracle (difftest.CheckMemo) holds it to its deep copy. Each
// generation, written as a delta against the base, must rebuild its own
// payload byte for byte (checkDelta).
func TestAppendMatchesOracleOnSuiteGenerations(t *testing.T) {
	entity := func(i int) string { return fmt.Sprintf("Entity%d", i) }
	mid := chainSize / 2
	models := builderModels(t)
	var all [][]byte
	for _, tc := range []struct {
		name    string
		m       *frag.Mapping
		targets experiments.SuiteTargets
	}{
		{"chain", models["chain"], experiments.SuiteTargets{
			TPTParent: entity(mid), TPCParent: entity(mid + 1), TPHParent: entity(mid + 2),
			FKEnd1: entity(1 + chainSize/5), FKEnd2: entity(1 + 2*chainSize/5),
			JTEnd1: entity(1 + 3*chainSize/5), JTEnd2: entity(1 + 4*chainSize/5),
			PropType: entity(mid),
		}},
		{"customer", models["customer"], experiments.SuiteTargets{
			TPTParent: "H1T1", TPCParent: "H3T0", TPHParent: "H0T2",
			FKEnd1: "H1T0", FKEnd2: "H5T0", JTEnd1: "H3T0", JTEnd2: "H7T0",
			PropType: "H1T1",
		}},
	} {
		base := tc.m
		views, err := compiler.New().Compile(base)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		base.Freeze()
		views.Freeze()
		if err := difftest.CheckMemo(base, views); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		generations := 0
		for _, op := range experiments.Suite(tc.targets) {
			m := base.Clone()
			smo, err := op.Make(m)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, op.Name, err)
			}
			m2, v2, err := core.NewIncremental().Apply(m, views, smo)
			if err != nil {
				t.Logf("%s %s rejected, no generation: %v", tc.name, op.Name, err)
				continue
			}
			m2.Freeze()
			v2.Freeze()
			if err := difftest.CheckMemo(m2, v2); err != nil {
				t.Fatalf("%s %s: %v", tc.name, op.Name, err)
			}
			checkDelta(t, tc.name+" "+op.Name, base, views, m2, v2)
			mb, vb := checkEncoders(t, tc.name+" "+op.Name, m2, v2)
			all = append(all, mb, vb)
			generations++
		}
		if generations < 8 {
			t.Fatalf("%s: only %d suite operations produced a generation", tc.name, generations)
		}
	}
	joined := bytes.Join(all, nil)
	for _, shape := range []string{
		`"enum":[`,                  // TPH discriminator domains
		`"lit":{"null":true,`,       // typed-NULL projections
		`"lit":{"kind":`,            // constant projections
		`"associations":[`,          // association ends
		`"assoc":{`,                 // association query views
		`"op":"join","kind":"left"`, // outer joins
		`"on":[[`,                   // join column pairs
		`"op":"unionall","inputs":[`,
		`"op":"typeis"`,
		`"op":"not","kids":[`,
		`"colOf":{`,
	} {
		if !bytes.Contains(joined, []byte(shape)) {
			t.Errorf("no generation encoded %s", shape)
		}
	}
}

// fuzzModel builds a small well-formed generation whose names, enum values
// and string literals come from the fuzzer, and whose int, float and bool
// enum values and literals do too. Fixed prefixes keep the names distinct
// and non-empty, so the mapping decodes whatever the strings hold.
func fuzzModel(t *testing.T, name, enum, lit string, i int64, x float64, b bool) (*frag.Mapping, *frag.Views) {
	t.Helper()
	root, sub, set, table := "T"+name, "U"+name, "S"+name, "R"+name
	c := edm.NewSchema()
	for _, et := range []edm.EntityType{
		{Name: root, Abstract: b, Key: []string{"Id"}, Attrs: []edm.Attribute{
			{Name: "Id", Type: cond.KindInt},
			{Name: "A" + name, Type: cond.KindString, Nullable: true, Enum: []cond.Value{cond.String(enum), cond.String(lit)}},
			{Name: "F", Type: cond.KindFloat, Enum: []cond.Value{cond.Float(x)}},
			{Name: "I", Type: cond.KindInt, Enum: []cond.Value{cond.Int(i)}},
			{Name: "B", Type: cond.KindBool, Enum: []cond.Value{cond.Bool(b)}},
		}},
		{Name: sub, Base: root, Attrs: []edm.Attribute{{Name: "D", Type: cond.KindString, Nullable: true}}},
	} {
		if err := c.AddType(et); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddSet(edm.EntitySet{Name: set, Type: root}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAssociation(edm.Association{Name: "X" + name,
		End1: edm.End{Type: root, Mult: edm.Many}, End2: edm.End{Type: sub, Mult: edm.ZeroOne}}); err != nil {
		t.Fatal(err)
	}
	s := rel.NewSchema()
	if err := s.AddTable(rel.Table{Name: table, Key: []string{"Id"},
		Cols: []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: "C" + name, Type: cond.KindString, Nullable: true, Enum: []cond.Value{cond.String(enum)}},
			{Name: "F", Type: cond.KindFloat},
			{Name: "I", Type: cond.KindInt},
			{Name: "B", Type: cond.KindBool},
		},
		FKs: []rel.ForeignKey{{Name: "K" + name, Cols: []string{"Id"}, RefTable: table, RefCols: []string{"Id"}}},
	}); err != nil {
		t.Fatal(err)
	}
	m := &frag.Mapping{Client: c, Store: s, Frags: []*frag.Fragment{{
		ID: "f" + name, Set: set, ClientCond: cond.True{}, StoreCond: cond.True{}, Table: table,
		Attrs: []string{"Id", "A" + name, "F", "I", "B"},
		ColOf: map[string]string{"Id": "Id", "A" + name: "C" + name, "F": "F", "I": "I", "B": "B"},
	}}}

	where := cond.NewAnd(
		cond.Cmp{Attr: name, Op: cond.OpEq, Val: cond.String(lit)},
		cond.Cmp{Attr: "i", Op: cond.OpLt, Val: cond.Int(i)},
		cond.Cmp{Attr: "x", Op: cond.OpGe, Val: cond.Float(x)},
		cond.Cmp{Attr: "b", Op: cond.OpNe, Val: cond.Bool(b)},
		cond.NotNull(enum),
		cond.TypeIs{Var: name, Type: lit, Only: b},
	)
	q := cqt.Project{
		In: cqt.Select{In: cqt.Join{Kind: cqt.FullOuter,
			L:  cqt.ScanTable{Table: name},
			R:  cqt.UnionAll{Inputs: []cqt.Expr{cqt.ScanSet{Set: enum}, cqt.ScanAssoc{Assoc: lit}}},
			On: [][2]string{{name, lit}},
		}, Cond: where},
		Cols: []cqt.ProjCol{
			cqt.ColAs(name, lit),
			cqt.LitAs(cqt.Const(cond.String(enum)), "s"),
			cqt.LitAs(cqt.Const(cond.Int(i)), "i"),
			cqt.LitAs(cqt.Const(cond.Float(x)), "x"),
			cqt.LitAs(cqt.Const(cond.Bool(b)), "b"),
			cqt.LitAs(cqt.NullOf(cond.KindFloat), "n"),
		},
	}
	v := frag.NewViews()
	v.SetQuery(name, &cqt.View{Q: q, Cases: []cqt.Case{{
		When:  cond.NewOr(cond.TypeIs{Type: name}, cond.Null{Attr: lit}),
		Type:  name,
		Attrs: map[string]string{name: lit, enum: "c"},
	}}})
	v.SetAssoc(lit, &cqt.View{Q: cqt.ScanAssoc{Assoc: lit}})
	v.SetUpdate(enum, &cqt.View{Q: cqt.ScanTable{Table: enum}})
	return m, v
}

// jsonKey is the string a JSON decoder reads back for s as json.Marshal
// writes it: each byte of invalid UTF-8 becomes U+FFFD.
func jsonKey(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	var back string
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	return back
}

// FuzzEncoders puts arbitrary strings — invalid UTF-8, U+2028 and U+2029,
// <, > and &, control bytes — into names, enum values and string literals,
// and arbitrary numbers and booleans into the typed values. The compact
// encoders must write what encoding/json writes, fail exactly when it
// fails (NaN and the infinities), and their output must decode back to a
// generation that re-encodes to a fixed point, to the same bytes when
// every string was valid UTF-8. The one exception is a name and an enum
// value that differ only in invalid UTF-8: as keys of one case's attribute
// map they decode alike, and the views decoder must reject the repeat.
// compiledSnapshot returns the SatCache snapshot of a smallCustomer
// compile. The chain's decisions are type-only or attribute-free and leave
// no lemma scope; the customer model's association and TPT decisions leave
// both verdicts and scopes.
func compiledSnapshot(t *testing.T) *cond.SatSnapshot {
	t.Helper()
	m, err := workload.CustomerE(smallCustomer)
	if err != nil {
		t.Fatal(err)
	}
	c := cond.NewSatCache()
	if _, err := (&compiler.Compiler{Opts: compiler.Options{SatCache: c}}).Compile(m); err != nil {
		t.Fatal(err)
	}
	snap := c.Export()
	if len(snap.Entries) == 0 || len(snap.Scopes) == 0 {
		t.Fatalf("customer compile left %d verdicts and %d lemma scopes; want both", len(snap.Entries), len(snap.Scopes))
	}
	return snap
}

// TestAppendSnapshotMatchesMarshal holds AppendSnapshot to json.Marshal on
// a customer-60 compile's SatCache snapshot and on edge shapes: empty and
// nil fields, nil lemmas and literals, gate and atom literals, and keys
// that need escaping.
func TestAppendSnapshotMatchesMarshal(t *testing.T) {
	compiled := compiledSnapshot(t)
	lits := []cond.LemmaLitSnapshot{{}, {Gate: "g<1>&\u2028"}, {Atom: 3}, {Atom: -2147483648, Neg: true}, {Gate: "x", Atom: 1, Neg: true}, {Neg: true}, {Gate: "\xff\x00"}}
	for i, snap := range []*cond.SatSnapshot{
		compiled,
		nil,
		{},
		{Entries: map[string]bool{}, Scopes: []cond.ScopeSnapshot{}},
		{Entries: map[string]bool{"b": false, "a": true, "": true, "<k>&\"\u2029": false, "é\xfe": true}},
		{Scopes: []cond.ScopeSnapshot{{}, {Key: "k", Lemmas: []cond.LemmaSnapshot{}}, {Key: "l", Lemmas: []cond.LemmaSnapshot{{}, {Lits: []cond.LemmaLitSnapshot{}}, {Lits: lits}}}}},
		{Entries: map[string]bool{"z": true}, Scopes: []cond.ScopeSnapshot{{Key: "s", Lemmas: []cond.LemmaSnapshot{{Lits: lits[1:3]}}}}},
	} {
		want, err := modelio.OracleEncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, fmt.Sprintf("snapshot %d", i), modelio.AppendSnapshot(nil, snap), want)
		if got := modelio.AppendSnapshot([]byte("dst"), snap); string(got[:3]) != "dst" {
			t.Fatalf("snapshot %d: AppendSnapshot dropped dst", i)
		}
	}
}

func FuzzEncoders(f *testing.F) {
	f.Add("Entity", "M", "F", int64(7), 1.5, true)
	f.Add("a<b>&c", "\u2028\u2029", "\b\f\n\r\t\x00\x1f\x7f", int64(-1<<63), 1e-300, false)
	f.Add("\xff\xfe", "caf\xc3", "'q\"\\", int64(1<<53+1), 1e21, true)
	f.Add("", "", "", int64(0), 1e-7, false)
	f.Add("\xff", "\xfe", "x", int64(1), 2.5, false)
	f.Add("\xff", "\ufffd", "x", int64(1), 2.5, true)
	f.Fuzz(func(t *testing.T, name, enum, lit string, i int64, x float64, b bool) {
		m, v := fuzzModel(t, name, enum, lit, i, x, b)

		snap := &cond.SatSnapshot{
			Entries: map[string]bool{name: b, enum: !b},
			Scopes: []cond.ScopeSnapshot{
				{Key: lit, Lemmas: []cond.LemmaSnapshot{
					{Lits: []cond.LemmaLitSnapshot{{Gate: name, Atom: int32(i), Neg: b}, {Atom: int32(i >> 32)}, {}}},
					{},
				}},
				{Key: enum},
			},
		}
		wantS, err := modelio.OracleEncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "AppendSnapshot", modelio.AppendSnapshot(nil, snap), wantS)

		doc, oerr := modelio.ToDocument(m)
		var want []byte
		if oerr == nil {
			want, oerr = json.Marshal(doc)
		}
		got, err := modelio.AppendMapping(nil, m)
		if (err != nil) != (oerr != nil) {
			t.Fatalf("AppendMapping error %v, oracle error %v", err, oerr)
		}
		vdoc, voerr := modelio.ViewsToDoc(v)
		var wantV []byte
		if voerr == nil {
			wantV, voerr = json.Marshal(vdoc)
		}
		gotV, verr := modelio.AppendViews(nil, v)
		if (verr != nil) != (voerr != nil) {
			t.Fatalf("AppendViews error %v, oracle error %v", verr, voerr)
		}
		if err != nil || verr != nil {
			return
		}
		sameBytes(t, "AppendMapping", got, want)
		sameBytes(t, "AppendViews", gotV, wantV)

		valid := utf8.ValidString(name) && utf8.ValidString(enum) && utf8.ValidString(lit)
		m2, err := modelio.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("Decode(AppendMapping): %v", err)
		}
		again, err := modelio.AppendMapping(nil, m2)
		if err != nil {
			t.Fatal(err)
		}
		if valid {
			sameBytes(t, "mapping re-encode", again, got)
		} else if m3, err := modelio.Decode(bytes.NewReader(again)); err != nil {
			t.Fatalf("Decode of the re-encoded mapping: %v", err)
		} else if third, _ := modelio.AppendMapping(nil, m3); !bytes.Equal(third, again) {
			t.Fatal("mapping re-encode is not a fixed point")
		}

		v2, err := modelio.DecodeViews(bytes.NewReader(gotV))
		if name != enum && jsonKey(name) == jsonKey(enum) {
			// The case's two attribute keys differ only in invalid UTF-8,
			// so both decode to one key, repeated in the object: the
			// decoder rejects it where encoding/json kept the last value.
			if err == nil || !strings.Contains(err.Error(), "repeated key") {
				t.Fatalf("DecodeViews of a case whose attribute keys decode alike: %v, want a repeated-key error", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("DecodeViews(AppendViews): %v", err)
		}
		againV, err := modelio.AppendViews(nil, v2)
		if err != nil {
			t.Fatal(err)
		}
		if valid {
			sameBytes(t, "views re-encode", againV, gotV)
		} else if v3, err := modelio.DecodeViews(bytes.NewReader(againV)); err != nil {
			t.Fatalf("DecodeViews of the re-encoded views: %v", err)
		} else if third, _ := modelio.AppendViews(nil, v3); !bytes.Equal(third, againV) {
			t.Fatal("views re-encode is not a fixed point")
		}
	})
}
