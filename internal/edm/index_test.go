package edm_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/workload"
)

// attrPool is the small name pool fuzzed attributes draw from, so sibling
// subtypes often declare the same name and mutators often collide.
var attrPool = []string{"A", "B", "C", "Dept"}

// dump renders a schema's entries, the state every read derives from.
func dump(s *edm.Schema) string {
	var b strings.Builder
	for _, t := range s.Types() {
		fmt.Fprintf(&b, "%+v\n", *t)
	}
	for _, e := range s.Sets() {
		fmt.Fprintf(&b, "%+v\n", *e)
	}
	for _, a := range s.Associations() {
		fmt.Fprintf(&b, "%+v\n", *a)
	}
	return b.String()
}

// applySchemaOps runs one fuzz input: each three bytes are a mutator (or a
// clone) and its two arguments. After every step the schema being mutated
// is read in full and checked against the scan oracle, and every schema a
// clone was taken from, or that was cloned and then left alone, must still
// read exactly as it did when the two parted.
func applySchemaOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) > 3*48 {
		ops = ops[:3*48]
	}
	s := edm.NewSchema()
	type frozen struct {
		s    *edm.Schema
		dump string
	}
	var parted []frozen
	for i := 0; i+2 < len(ops); i += 3 {
		k, a, b := ops[i], ops[i+1], ops[i+2]
		names := make([]string, 0, len(s.Types()))
		for _, t := range s.Types() {
			names = append(names, t.Name)
		}
		pick := func(x byte) string {
			if len(names) == 0 {
				return "T0"
			}
			return names[int(x)%len(names)]
		}
		attr := func(x byte) edm.Attribute {
			return edm.Attribute{
				Name: attrPool[int(x)%len(attrPool)], Type: cond.Kind(int(x/4) % 3),
				Nullable: x&0x10 != 0,
			}
		}
		var err error
		step := fmt.Sprintf("step %d (op %d %d %d)", i/3, k%8, a, b)
		switch k % 8 {
		case 0:
			et := edm.EntityType{Name: fmt.Sprintf("T%d", i/3), Abstract: b&0x80 != 0}
			if a%3 == 0 || len(names) == 0 {
				et.Attrs = []edm.Attribute{{Name: fmt.Sprintf("K%d", i/3), Type: cond.KindInt}}
				et.Key = []string{et.Attrs[0].Name}
			} else {
				et.Base = pick(a)
			}
			if b&0x40 != 0 {
				et.Attrs = append(et.Attrs, attr(b))
			}
			err = s.AddType(et)
		case 1:
			err = s.AddAttr(pick(a), attr(b))
		case 2:
			err = s.AddSet(edm.EntitySet{Name: fmt.Sprintf("S%d", a%4), Type: pick(b)})
		case 3:
			err = s.AddAssociation(edm.Association{
				Name: fmt.Sprintf("R%d", a%4),
				End1: edm.End{Type: pick(a / 4), Mult: edm.Many},
				End2: edm.End{Type: pick(b), Mult: edm.Mult(b % 3)},
			})
		case 4:
			err = s.RemoveAssociation(fmt.Sprintf("R%d", a%4))
		case 5:
			err = s.RemoveType(pick(a))
		case 6:
			err = s.RerootType(pick(a), pick(b))
		case 7:
			// Read the source first, so the clone is taken from a
			// schema whose index is built.
			_ = s.Descendants(pick(a))
			c := s.Clone()
			if b&2 != 0 {
				c = s.DeepClone()
			}
			if b&1 == 0 {
				s, c = c, s
			}
			parted = append(parted, frozen{c, dump(c)})
		}
		_ = err // rejected mutations must leave the schema readable too
		if cerr := difftest.CheckSchemaIndex(s); cerr != nil {
			t.Fatalf("%s: %v", step, cerr)
		}
		for _, p := range parted {
			if d := dump(p.s); d != p.dump {
				t.Fatalf("%s changed a schema it shares entries with:\nwas:\n%s\nnow:\n%s", step, p.dump, d)
			}
			if cerr := difftest.CheckSchemaIndex(p.s); cerr != nil {
				t.Fatalf("%s: parted schema: %v", step, cerr)
			}
		}
	}
}

// FuzzSchemaIndex drives every schema mutator, and Clone, in random
// sequences and holds each read to the scan oracle in internal/difftest.
// A mutator that fails to drop the index shows up as a stale answer on
// the next read; a clone that shares state with its source shows up as a
// changed source.
func FuzzSchemaIndex(f *testing.F) {
	// The in-code seeds mirror testdata/fuzz/FuzzSchemaIndex: a hierarchy
	// with sibling attributes, a reroot under a later base, removals,
	// clone/mutate interleavings and an abstract type among concrete ones.
	f.Add([]byte{0, 0, 0x40, 0, 1, 0x41, 0, 1, 0x41, 2, 0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0x40, 2, 0, 0, 2, 1, 1, 6, 0, 2, 7, 0, 1, 5, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0xc3, 0, 2, 0x42, 2, 0, 0, 3, 4, 1, 7, 0, 0, 4, 0, 0, 5, 2, 0, 1, 0, 0x11})
	f.Add([]byte{0, 0, 0, 0, 3, 0, 7, 1, 2, 6, 0, 1, 1, 1, 0x50, 7, 0, 3, 0, 1, 0x40, 6, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0x80}) // an abstract subtype declared after a concrete sibling
	f.Fuzz(func(t *testing.T, ops []byte) {
		applySchemaOps(t, ops)
	})
}

// TestSchemaIndexConcurrentFirstReads makes the first reads of fresh clones
// from eight goroutines at once: racing index builds must give every
// reader the same answers (run under -race in CI).
func TestSchemaIndexConcurrentFirstReads(t *testing.T) {
	m, err := workload.CustomerE(workload.CustomerOptions{
		Types: 60, Hierarchies: 8, LargestTPH: 25, Associations: 8, SharedTableFKs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(s *edm.Schema) string {
		var b strings.Builder
		for _, ty := range s.Types() {
			fmt.Fprintln(&b, ty.Name, s.RootOf(ty.Name), s.Ancestors(ty.Name), s.Descendants(ty.Name),
				s.ConcreteIn(ty.Name), s.AttrNames(ty.Name), s.KeyOf(ty.Name), s.IsSubtype(ty.Name, "H0T0"),
				s.SetFor(ty.Name) != nil, cqt.SetCols(s, &edm.EntitySet{Type: ty.Name}))
		}
		return b.String()
	}
	want := read(m.Client.DeepClone())
	for round := 0; round < 4; round++ {
		c := m.Client.Clone()
		got := make([]string, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = read(c)
			}()
		}
		wg.Wait()
		for g, r := range got {
			if r != want {
				t.Fatalf("round %d reader %d disagrees with a sequential read", round, g)
			}
		}
	}
}

// TestSchemaIndexServedSlicesAreClamped appends to every slice a read
// serves and checks that a later read is unchanged: an append must copy
// rather than write into the index or into a schema entry.
func TestSchemaIndexServedSlicesAreClamped(t *testing.T) {
	m, err := workload.HubRimE(workload.HubRimOptions{N: 3, M: 2, TPH: true})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Client
	type served struct {
		name string
		read func(ty string) any
		grow func(v any) any
	}
	strs := func(v any) any { return append(v.([]string), "Clobbered") }
	for _, r := range []served{
		{"Ancestors", func(ty string) any { return s.Ancestors(ty) }, strs},
		{"Descendants", func(ty string) any { return s.Descendants(ty) }, strs},
		{"ConcreteIn", func(ty string) any { return s.ConcreteIn(ty) }, strs},
		{"AttrNames", func(ty string) any { return s.AttrNames(ty) }, strs},
		{"KeyOf", func(ty string) any { return s.KeyOf(ty) }, strs},
		{"SubtreeAttrNames", func(ty string) any { return s.SubtreeAttrNames(ty) }, strs},
		{"AllAttrs", func(ty string) any { return s.AllAttrs(ty) }, func(v any) any {
			return append(v.([]edm.Attribute), edm.Attribute{Name: "Clobbered"})
		}},
	} {
		for _, ty := range s.Types() {
			before := r.read(ty.Name)
			want := fmt.Sprint(before)
			// Grow every type's list: in a packed buffer, a write past
			// one list's end lands in the next list.
			for _, other := range s.Types() {
				_ = r.grow(r.read(other.Name))
			}
			_ = r.grow(before)
			if got := fmt.Sprint(r.read(ty.Name)); got != want {
				t.Fatalf("%s(%s) = %s after appends, was %s", r.name, ty.Name, got, want)
			}
		}
	}
	if err := difftest.CheckSchemaIndex(s); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaIndexSeesEveryMutator reads the schema, applies one mutator,
// and checks that the next read sees the change.
func TestSchemaIndexSeesEveryMutator(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	id := func(n string) []edm.Attribute { return []edm.Attribute{{Name: n, Type: cond.KindInt}} }
	s := edm.NewSchema()
	must(s.AddType(edm.EntityType{Name: "P", Attrs: id("Id"), Key: []string{"Id"}}))
	must(s.AddType(edm.EntityType{Name: "Q", Attrs: id("Qid"), Key: []string{"Qid"}}))

	steps := []struct {
		name   string
		mutate func() error
		check  func() bool
	}{
		{"AddType", func() error { return s.AddType(edm.EntityType{Name: "C", Base: "P"}) },
			func() bool { return reflect.DeepEqual(s.Descendants("P"), []string{"C"}) && s.IsSubtype("C", "P") }},
		{"AddAttr", func() error { return s.AddAttr("C", edm.Attribute{Name: "X", Type: cond.KindString}) },
			func() bool {
				return s.HasAttr("C", "X") && reflect.DeepEqual(s.SubtreeAttrNames("P"), []string{"Id", "X"})
			}},
		{"AddSet", func() error { return s.AddSet(edm.EntitySet{Name: "Ps", Type: "P"}) },
			func() bool { return s.Set("Ps") != nil && s.SetFor("C") == s.Set("Ps") }},
		{"AddSet2", func() error { return s.AddSet(edm.EntitySet{Name: "Qs", Type: "Q"}) },
			func() bool { return s.SetFor("Q") == s.Set("Qs") }},
		{"AddAssociation", func() error {
			return s.AddAssociation(edm.Association{Name: "R", End1: edm.End{Type: "C"}, End2: edm.End{Type: "Q"}})
		}, func() bool { return s.Association("R") != nil }},
		{"RemoveAssociation", func() error { return s.RemoveAssociation("R") },
			func() bool { return s.Association("R") == nil }},
		{"RerootType", func() error { return s.RerootType("Q", "C") },
			func() bool {
				return s.RootOf("Q") == "P" && reflect.DeepEqual(s.Ancestors("Q"), []string{"C", "P"}) &&
					reflect.DeepEqual(s.KeyOf("Q"), []string{"Id"}) && s.Set("Qs") == nil &&
					reflect.DeepEqual(s.ConcreteIn("P"), []string{"P", "Q", "C"})
			}},
		{"RemoveType", func() error { return s.RemoveType("Q") },
			func() bool { return !s.IsSubtype("Q", "P") && reflect.DeepEqual(s.Descendants("P"), []string{"C"}) }},
	}
	for _, st := range steps {
		if err := difftest.CheckSchemaIndex(s); err != nil {
			t.Fatalf("before %s: %v", st.name, err)
		}
		must(st.mutate())
		if !st.check() {
			t.Fatalf("a read after %s does not see it", st.name)
		}
	}
	if err := difftest.CheckSchemaIndex(s); err != nil {
		t.Fatal(err)
	}
}
