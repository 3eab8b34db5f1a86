package difftest

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
)

// schemaScan answers the client schema's hierarchy and attribute questions
// the way edm.Schema did before it kept an index: by scanning the types in
// declaration order and walking base chains through the type map. It reads
// the schema only through its entries (Types, Sets, Associations), so it
// shares no code with the index it checks.
type schemaScan struct {
	types  map[string]*edm.EntityType
	order  []string
	sets   []*edm.EntitySet
	assocs []*edm.Association
}

func newSchemaScan(s *edm.Schema) *schemaScan {
	sc := &schemaScan{types: map[string]*edm.EntityType{}, sets: s.Sets(), assocs: s.Associations()}
	for _, t := range s.Types() {
		sc.types[t.Name] = t
		sc.order = append(sc.order, t.Name)
	}
	return sc
}

func (s *schemaScan) Set(name string) *edm.EntitySet {
	for _, e := range s.sets {
		if e.Name == name {
			return e
		}
	}
	return nil
}

func (s *schemaScan) Association(name string) *edm.Association {
	for _, a := range s.assocs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func (s *schemaScan) SetFor(typeName string) *edm.EntitySet {
	root := s.RootOf(typeName)
	if root == "" {
		return nil
	}
	for _, e := range s.sets {
		if e.Type == root {
			return e
		}
	}
	return nil
}

func (s *schemaScan) RootOf(typeName string) string {
	t, ok := s.types[typeName]
	if !ok {
		return ""
	}
	for t.Base != "" {
		t = s.types[t.Base]
	}
	return t.Name
}

func (s *schemaScan) IsSubtype(sub, typ string) bool {
	t, ok := s.types[sub]
	for ok {
		if t.Name == typ {
			return true
		}
		if t.Base == "" {
			return false
		}
		t, ok = s.types[t.Base]
	}
	return false
}

func (s *schemaScan) Ancestors(typeName string) []string {
	var out []string
	t, ok := s.types[typeName]
	for ok && t.Base != "" {
		out = append(out, t.Base)
		t, ok = s.types[t.Base]
	}
	return out
}

func (s *schemaScan) Descendants(typeName string) []string {
	var out []string
	for _, n := range s.order {
		if n != typeName && s.IsSubtype(n, typeName) {
			out = append(out, n)
		}
	}
	return out
}

func (s *schemaScan) ConcreteIn(typeName string) []string {
	var out []string
	for _, n := range s.order {
		if !s.types[n].Abstract && s.IsSubtype(n, typeName) {
			out = append(out, n)
		}
	}
	return out
}

func (s *schemaScan) hierarchyOf(typeName string) []string {
	root := s.RootOf(typeName)
	var out []string
	for _, n := range s.order {
		if s.IsSubtype(n, root) {
			out = append(out, n)
		}
	}
	return out
}

func (s *schemaScan) AllAttrs(typeName string) []edm.Attribute {
	chain := []*edm.EntityType{}
	t, ok := s.types[typeName]
	for ok {
		chain = append(chain, t)
		if t.Base == "" {
			break
		}
		t, ok = s.types[t.Base]
	}
	var out []edm.Attribute
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, chain[i].Attrs...)
	}
	return out
}

func (s *schemaScan) AttrNames(typeName string) []string {
	attrs := s.AllAttrs(typeName)
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.Name
	}
	return out
}

func (s *schemaScan) Attr(typeName, attr string) (edm.Attribute, bool) {
	for _, a := range s.AllAttrs(typeName) {
		if a.Name == attr {
			return a, true
		}
	}
	return edm.Attribute{}, false
}

func (s *schemaScan) KeyOf(typeName string) []string {
	root := s.RootOf(typeName)
	if root == "" {
		return nil
	}
	return append([]string(nil), s.types[root].Key...)
}

// SetCols is cqt.SetCols.
func (s *schemaScan) SetCols(set *edm.EntitySet) []string {
	var out []string
	seen := map[string]bool{}
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	add(s.AttrNames(set.Type))
	for _, d := range s.Descendants(set.Type) {
		add(s.AttrNames(d))
	}
	return out
}

// Domain and Nullable are edm.SetTheory's.
func (s *schemaScan) Domain(set *edm.EntitySet, attr string) (cond.Domain, bool) {
	if set == nil {
		return cond.Domain{}, false
	}
	for _, n := range s.hierarchyOf(set.Type) {
		if a, ok := s.Attr(n, attr); ok {
			return a.Domain(), true
		}
	}
	return cond.Domain{}, false
}

func (s *schemaScan) Nullable(set *edm.EntitySet, attr string) bool {
	if set == nil {
		return true
	}
	for _, n := range s.hierarchyOf(set.Type) {
		if a, ok := s.Attr(n, attr); ok {
			return a.Nullable
		}
	}
	return true
}

// CheckSchemaIndex holds every index-served read of the schema to its scan
// definition: the hierarchy walks, attribute lists, keys, set and
// association lookups, cqt.SetCols, the set theories' Domain and
// Nullable, and the type-atom bitsets (checkTypeBits). Results must be
// reflect.DeepEqual, so nil and empty lists are told apart. Every type is checked against every other, every attribute
// name of the schema against every type and set, and unknown names too.
// The first disagreement is returned.
func CheckSchemaIndex(s *edm.Schema) error {
	sc := newSchemaScan(s)
	const unknown = "NoSuchName"
	names := append(append([]string(nil), sc.order...), unknown)
	attrs := []string{unknown}
	seen := map[string]bool{}
	for _, n := range sc.order {
		for _, a := range sc.types[n].Attrs {
			if !seen[a.Name] {
				seen[a.Name] = true
				attrs = append(attrs, a.Name)
			}
		}
	}
	same := func(what string, arg any, got, want any) error {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("edm index: %s(%v) = %#v, scan gives %#v", what, arg, got, want)
		}
		return nil
	}
	for _, n := range names {
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"RootOf", s.RootOf(n), sc.RootOf(n)},
			{"Ancestors", s.Ancestors(n), sc.Ancestors(n)},
			{"Descendants", s.Descendants(n), sc.Descendants(n)},
			{"ConcreteIn", s.ConcreteIn(n), sc.ConcreteIn(n)},
			{"AllAttrs", s.AllAttrs(n), sc.AllAttrs(n)},
			{"AttrNames", s.AttrNames(n), sc.AttrNames(n)},
			{"KeyOf", s.KeyOf(n), sc.KeyOf(n)},
			{"SetCols", cqt.SetCols(s, &edm.EntitySet{Type: n}), sc.SetCols(&edm.EntitySet{Type: n})},
		} {
			if err := same(c.what, n, c.got, c.want); err != nil {
				return err
			}
		}
		if got, want := s.SetFor(n), sc.SetFor(n); got != want {
			return fmt.Errorf("edm index: SetFor(%s) = %v, scan gives %v", n, got, want)
		}
		for _, typ := range names {
			if got, want := s.IsSubtype(n, typ), sc.IsSubtype(n, typ); got != want {
				return fmt.Errorf("edm index: IsSubtype(%s, %s) = %v, scan gives %v", n, typ, got, want)
			}
		}
		for _, a := range attrs {
			got, gok := s.Attr(n, a)
			want, wok := sc.Attr(n, a)
			if err := same("Attr", [2]string{n, a}, []any{got, gok}, []any{want, wok}); err != nil {
				return err
			}
			if s.HasAttr(n, a) != wok {
				return fmt.Errorf("edm index: HasAttr(%s, %s) = %v, scan gives %v", n, a, !wok, wok)
			}
		}
	}
	for _, e := range append(append([]*edm.EntitySet(nil), sc.sets...), &edm.EntitySet{Name: unknown}) {
		if got, want := s.Set(e.Name), sc.Set(e.Name); got != want {
			return fmt.Errorf("edm index: Set(%s) = %v, scan gives %v", e.Name, got, want)
		}
		th := s.TheoryFor(e.Name)
		for _, a := range attrs {
			gd, gok := th.Domain(a)
			wd, wok := sc.Domain(sc.Set(e.Name), a)
			if err := same("Domain", [2]string{e.Name, a}, []any{gd, gok}, []any{wd, wok}); err != nil {
				return err
			}
			if got, want := th.Nullable(a), sc.Nullable(sc.Set(e.Name), a); got != want {
				return fmt.Errorf("edm index: Nullable(%s, %s) = %v, scan gives %v", e.Name, a, got, want)
			}
		}
		if e.Name != unknown {
			if err := same("SetCols", e.Name, cqt.SetCols(s, e), sc.SetCols(e)); err != nil {
				return err
			}
		}
	}
	for _, a := range append(append([]*edm.Association(nil), sc.assocs...), &edm.Association{Name: unknown}) {
		if got, want := s.Association(a.Name), sc.Association(a.Name); got != want {
			return fmt.Errorf("edm index: Association(%s) = %v, scan gives %v", a.Name, got, want)
		}
	}
	for _, within := range names {
		if err := checkTypeBits(s, sc, within, names); err != nil {
			return err
		}
	}
	return nil
}

// checkTypeBits holds the index's type-atom bitsets over within's concrete
// types (Schema.TypeBits) to the scan's hierarchy. The bit order is the
// index's own, so it is read off the ONLY atoms: those of within's
// concrete types must be distinct single bits below their count. Then
// every other ONLY atom must be empty, and IS OF typ must hold exactly the
// bits of the concrete types the scan places at or below typ. dst starts
// full each time: TypeBits must overwrite it.
func checkTypeBits(s *edm.Schema, sc *schemaScan, within string, names []string) error {
	cands := sc.ConcreteIn(within)
	dst := make([]uint64, (len(cands)+63)/64)
	typeBits := func(typ string, only bool) []uint64 {
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		s.TypeBits(dst, within, typ, only)
		return append([]uint64(nil), dst...)
	}
	bit := map[string]int{}
	seen := make([]bool, len(cands))
	for _, c := range cands {
		b := typeBits(c, true)
		k := -1
		for i, w := range b {
			for ; w != 0; w &= w - 1 {
				if k >= 0 {
					return fmt.Errorf("edm index: TypeBits(%s, ONLY %s) = %x: more than one bit", within, c, b)
				}
				k = 64*i + bits.TrailingZeros64(w)
			}
		}
		if k < 0 || k >= len(cands) || seen[k] {
			return fmt.Errorf("edm index: TypeBits(%s, ONLY %s) = %x: no bit of its own below %d", within, c, b, len(cands))
		}
		seen[k] = true
		bit[c] = k
	}
	for _, typ := range names {
		for _, only := range []bool{false, true} {
			want := make([]uint64, len(dst))
			for _, c := range cands {
				if only && c == typ || !only && sc.IsSubtype(c, typ) {
					want[bit[c]/64] |= 1 << uint(bit[c]%64)
				}
			}
			if got := typeBits(typ, only); !slices.Equal(got, want) {
				return fmt.Errorf("edm index: TypeBits(%s, %s, only %v) = %x, scan gives %x", within, typ, only, got, want)
			}
		}
	}
	return nil
}
