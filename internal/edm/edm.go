// Package edm implements the client-side schema model of the reproduction:
// a subset of Microsoft's Entity Data Model as described in §2 of Bernstein
// et al. (SIGMOD 2013). A schema holds entity types arranged in
// single-inheritance hierarchies, entity sets that persist instances of a
// root type and all its descendants, and association types relating two
// entity types with 1:1, 1:n or m:n cardinality.
package edm

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/ormkit/incmap/internal/cond"
)

// Mult is an association-end multiplicity.
type Mult int

// Association-end multiplicities.
const (
	One     Mult = iota // exactly 1
	ZeroOne             // 0..1
	Many                // *
)

// String renders the multiplicity in the paper's notation.
func (m Mult) String() string {
	switch m {
	case One:
		return "1"
	case ZeroOne:
		return "0..1"
	case Many:
		return "*"
	default:
		return "?"
	}
}

// Attribute is a declared attribute of an entity type.
type Attribute struct {
	Name     string
	Type     cond.Kind
	Nullable bool
	// Enum optionally restricts the attribute to a finite value set.
	Enum []cond.Value
}

// Domain returns the attribute's condition-reasoning domain.
func (a Attribute) Domain() cond.Domain { return cond.Domain{Kind: a.Type, Enum: a.Enum} }

// EntityType is a node of an inheritance hierarchy. Attrs lists only the
// attributes declared on this type; inherited attributes are reached through
// Base. Key is set on root types only and must name declared attributes.
type EntityType struct {
	Name     string
	Base     string // "" for hierarchy roots
	Abstract bool
	Attrs    []Attribute
	Key      []string
}

// EntitySet is a persistent collection of entities of the set's root type
// and any type derived from it.
type EntitySet struct {
	Name string
	Type string
}

// End is one endpoint of an association.
type End struct {
	Type string
	Mult Mult
}

// Association relates entities of two types. Instances (associations) are
// pairs of entity keys. Each association type has exactly one association
// set, identified by the association's name, matching the paper's
// assumption that every association set appears in a single mapping
// fragment.
type Association struct {
	Name string
	End1 End
	End2 End
}

// Schema is a mutable client schema. The zero value is an empty schema
// ready for use.
//
// Reads are served from a derived index (index.go) that every mutator
// drops. Slices a read returns are shared with the index and with other
// readers: callers must not write into them, and an append copies.
//
// A frozen schema (Freeze) belongs to a generation a session serves; its
// mutators panic.
type Schema struct {
	types  map[string]*EntityType
	order  []string
	sets   []*EntitySet
	assocs []*Association
	idx    atomic.Pointer[index]
	frozen atomic.Bool
}

// NewSchema returns an empty client schema.
func NewSchema() *Schema { return &Schema{types: map[string]*EntityType{}} }

// Freeze makes the schema immutable: every mutator panics from then on.
// Clone still works and returns an unfrozen schema.
func (s *Schema) Freeze() { s.frozen.Store(true) }

// Frozen reports whether Freeze was called.
func (s *Schema) Frozen() bool { return s.frozen.Load() }

func (s *Schema) mustNotBeFrozen(op, name string) {
	if s.frozen.Load() {
		panic(fmt.Sprintf("edm: %s(%q) on a frozen generation's client schema (%d types): clone it first", op, name, len(s.order)))
	}
}

// AddType adds an entity type. The base type, when named, must already be
// present.
func (s *Schema) AddType(t EntityType) error {
	s.mustNotBeFrozen("AddType", t.Name)
	if t.Name == "" {
		return fmt.Errorf("edm: entity type with empty name")
	}
	if s.types == nil {
		s.types = map[string]*EntityType{}
	}
	if _, dup := s.types[t.Name]; dup {
		return fmt.Errorf("edm: duplicate entity type %q", t.Name)
	}
	if t.Base != "" {
		base, ok := s.types[t.Base]
		if !ok {
			return fmt.Errorf("edm: type %q derives from unknown type %q", t.Name, t.Base)
		}
		if len(t.Key) > 0 {
			return fmt.Errorf("edm: derived type %q must not declare a key", t.Name)
		}
		for _, a := range t.Attrs {
			if s.hasAttrUpward(base.Name, a.Name) {
				return fmt.Errorf("edm: type %q shadows inherited attribute %q", t.Name, a.Name)
			}
		}
	} else {
		if len(t.Key) == 0 {
			return fmt.Errorf("edm: root type %q must declare a key", t.Name)
		}
		declared := map[string]bool{}
		for _, a := range t.Attrs {
			declared[a.Name] = true
		}
		for _, k := range t.Key {
			if !declared[k] {
				return fmt.Errorf("edm: key attribute %q of type %q is not declared", k, t.Name)
			}
		}
	}
	seen := map[string]bool{}
	for _, a := range t.Attrs {
		if a.Name == "" {
			return fmt.Errorf("edm: type %q has an attribute with empty name", t.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("edm: type %q declares attribute %q twice", t.Name, a.Name)
		}
		seen[a.Name] = true
	}
	cp := t
	cp.Attrs = append([]Attribute(nil), t.Attrs...)
	cp.Key = append([]string(nil), t.Key...)
	s.types[t.Name] = &cp
	s.order = append(s.order, t.Name)
	s.invalidate()
	return nil
}

// RemoveType deletes a leaf entity type. Types with descendants, types used
// as entity-set roots, and types referenced by associations cannot be
// removed.
func (s *Schema) RemoveType(name string) error {
	s.mustNotBeFrozen("RemoveType", name)
	if _, ok := s.types[name]; !ok {
		return fmt.Errorf("edm: unknown entity type %q", name)
	}
	for _, t := range s.types {
		if t.Base == name {
			return fmt.Errorf("edm: type %q still has derived type %q", name, t.Name)
		}
	}
	for _, set := range s.sets {
		if set.Type == name {
			return fmt.Errorf("edm: type %q is the root of entity set %q", name, set.Name)
		}
	}
	for _, a := range s.assocs {
		if a.End1.Type == name || a.End2.Type == name {
			return fmt.Errorf("edm: type %q participates in association %q", name, a.Name)
		}
	}
	delete(s.types, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.invalidate()
	return nil
}

// RerootType turns a standalone hierarchy root into a derived type of
// another hierarchy (the schema surgery behind the §3.4 refactoring SMO).
// The type loses its own key and entity set; its attributes must not
// collide with the new base hierarchy's.
func (s *Schema) RerootType(typeName, newBase string) error {
	s.mustNotBeFrozen("RerootType", typeName)
	t, ok := s.types[typeName]
	if !ok {
		return fmt.Errorf("edm: unknown entity type %q", typeName)
	}
	if t.Base != "" {
		return fmt.Errorf("edm: type %q is not a hierarchy root", typeName)
	}
	base, ok := s.types[newBase]
	if !ok {
		return fmt.Errorf("edm: unknown base type %q", newBase)
	}
	if s.IsSubtype(base.Name, typeName) {
		return fmt.Errorf("edm: rerooting %q under %q would create a cycle", typeName, newBase)
	}
	for _, d := range append([]string{typeName}, s.Descendants(typeName)...) {
		for _, a := range s.types[d].Attrs {
			if s.hasAttrUpward(newBase, a.Name) {
				return fmt.Errorf("edm: attribute %q of %q collides with the %q hierarchy", a.Name, d, newBase)
			}
		}
	}
	for i, set := range s.sets {
		if set.Type == typeName {
			s.sets = append(s.sets[:i], s.sets[i+1:]...)
			break
		}
	}
	t = s.mutableType(typeName)
	t.Base = newBase
	t.Key = nil
	return nil
}

// AddAttr declares an additional attribute on an existing type.
func (s *Schema) AddAttr(typeName string, a Attribute) error {
	s.mustNotBeFrozen("AddAttr", typeName)
	t, ok := s.types[typeName]
	if !ok {
		return fmt.Errorf("edm: unknown entity type %q", typeName)
	}
	if slices.Contains(s.SubtreeAttrNames(s.RootOf(typeName)), a.Name) {
		return fmt.Errorf("edm: attribute %q already exists in the hierarchy of %q", a.Name, typeName)
	}
	t = s.mutableType(typeName)
	t.Attrs = append(t.Attrs, a)
	return nil
}

// AddSet adds an entity set rooted at an existing type. A type can root at
// most one set.
func (s *Schema) AddSet(set EntitySet) error {
	s.mustNotBeFrozen("AddSet", set.Name)
	if set.Name == "" {
		return fmt.Errorf("edm: entity set with empty name")
	}
	if _, ok := s.types[set.Type]; !ok {
		return fmt.Errorf("edm: entity set %q has unknown root type %q", set.Name, set.Type)
	}
	for _, e := range s.sets {
		if e.Name == set.Name {
			return fmt.Errorf("edm: duplicate entity set %q", set.Name)
		}
		if e.Type == set.Type {
			return fmt.Errorf("edm: type %q already roots entity set %q", set.Type, e.Name)
		}
	}
	cp := set
	s.sets = append(s.sets, &cp)
	s.invalidate()
	return nil
}

// AddAssociation adds an association type (and implicitly its association
// set of the same name).
func (s *Schema) AddAssociation(a Association) error {
	s.mustNotBeFrozen("AddAssociation", a.Name)
	if a.Name == "" {
		return fmt.Errorf("edm: association with empty name")
	}
	if _, ok := s.types[a.End1.Type]; !ok {
		return fmt.Errorf("edm: association %q has unknown end type %q", a.Name, a.End1.Type)
	}
	if _, ok := s.types[a.End2.Type]; !ok {
		return fmt.Errorf("edm: association %q has unknown end type %q", a.Name, a.End2.Type)
	}
	for _, e := range s.assocs {
		if e.Name == a.Name {
			return fmt.Errorf("edm: duplicate association %q", a.Name)
		}
	}
	cp := a
	s.assocs = append(s.assocs, &cp)
	s.invalidate()
	return nil
}

// RemoveAssociation deletes an association type.
func (s *Schema) RemoveAssociation(name string) error {
	s.mustNotBeFrozen("RemoveAssociation", name)
	for i, a := range s.assocs {
		if a.Name == name {
			s.assocs = append(s.assocs[:i], s.assocs[i+1:]...)
			s.invalidate()
			return nil
		}
	}
	return fmt.Errorf("edm: unknown association %q", name)
}

// Type returns the named entity type, or nil.
func (s *Schema) Type(name string) *EntityType { return s.types[name] }

// Types returns all entity types in declaration order.
func (s *Schema) Types() []*EntityType {
	out := make([]*EntityType, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.types[n])
	}
	return out
}

// Sets returns all entity sets in declaration order.
func (s *Schema) Sets() []*EntitySet { return s.sets }

// Set returns the named entity set, or nil.
func (s *Schema) Set(name string) *EntitySet { return s.index().sets[name] }

// Associations returns all association types in declaration order.
func (s *Schema) Associations() []*Association { return s.assocs }

// Association returns the named association, or nil.
func (s *Schema) Association(name string) *Association { return s.index().assocs[name] }

// SetFor returns the entity set that persists instances of the given type:
// the set rooted at the type's hierarchy root.
func (s *Schema) SetFor(typeName string) *EntitySet {
	x, id, ok := s.lookup(typeName)
	if !ok {
		return nil
	}
	return x.setOf[x.ents[x.root[id]].Name]
}

// RootOf returns the hierarchy root of the given type, or "" if unknown.
func (s *Schema) RootOf(typeName string) string {
	x, id, ok := s.lookup(typeName)
	if !ok {
		return ""
	}
	return x.ents[x.root[id]].Name
}

// Parent returns the base type name of the given type ("" for roots).
func (s *Schema) Parent(typeName string) string {
	if t, ok := s.types[typeName]; ok {
		return t.Base
	}
	return ""
}

// IsSubtype reports whether sub equals typ or derives from it.
func (s *Schema) IsSubtype(sub, typ string) bool {
	x := s.index()
	i, ok := x.ids[sub]
	if !ok {
		return false
	}
	j, ok := x.ids[typ]
	return ok && x.pre[j] <= x.pre[i] && x.pre[i] < x.pre[j]+x.size[j]
}

// Ancestors returns the proper ancestors of the type, nearest first.
func (s *Schema) Ancestors(typeName string) []string {
	if x, id, ok := s.lookup(typeName); ok {
		return x.anc.at(id)
	}
	return nil
}

// Descendants returns the proper descendants of the type in declaration
// order.
func (s *Schema) Descendants(typeName string) []string {
	if x, id, ok := s.lookup(typeName); ok {
		return x.desc.at(id)
	}
	return nil
}

// Children returns the direct subtypes of the type in declaration order.
func (s *Schema) Children(typeName string) []string {
	var out []string
	for _, n := range s.order {
		if s.types[n].Base == typeName {
			out = append(out, n)
		}
	}
	return out
}

// ConcreteIn returns the non-abstract types in the sub-hierarchy rooted at
// typeName (inclusive), in declaration order.
func (s *Schema) ConcreteIn(typeName string) []string {
	if x, id, ok := s.lookup(typeName); ok {
		return x.concrete.at(id)
	}
	return nil
}

// TypeBits writes into dst the concrete types of within's sub-hierarchy
// (ConcreteIn(within)) at which IS OF typ holds, or IS OF ONLY typ when
// only is set. Bit i stands for the i-th of those types in the index's
// pre-order walk, so dst needs ⌈len(ConcreteIn(within))/64⌉ words; bits
// past its end are dropped. An unknown type, an abstract ONLY type and a
// type outside within's hierarchy admit no candidate.
func (s *Schema) TypeBits(dst []uint64, within, typ string, only bool) {
	clear(dst)
	x := s.index()
	w, ok := x.ids[within]
	if !ok {
		return
	}
	t, ok := x.ids[typ]
	if !ok || only && x.ents[t].Abstract {
		return
	}
	lo, hi := x.concreteSpan(t)
	if only {
		hi = lo + 1
	}
	base, top := x.concreteSpan(w)
	lo, hi = max(lo, base)-base, min(hi, top, base+int32(64*len(dst)))-base
	for lo < hi {
		end := min(hi, (lo|63)+1) // the end of lo's word
		dst[lo>>6] |= ^uint64(0) >> uint(64-(end-lo)) << uint(lo&63)
		lo = end
	}
}

// hasAttrUpward is HasAttr by a walk of the base chain, so that adding a
// type never builds an index the addition then drops.
func (s *Schema) hasAttrUpward(typeName, attr string) bool {
	t, ok := s.types[typeName]
	for ok {
		for _, a := range t.Attrs {
			if a.Name == attr {
				return true
			}
		}
		if t.Base == "" {
			return false
		}
		t, ok = s.types[t.Base]
	}
	return false
}

// AllAttrs returns the attributes of the type including inherited ones,
// root-most first.
func (s *Schema) AllAttrs(typeName string) []Attribute {
	if x, id, ok := s.lookup(typeName); ok {
		return x.allAttrs(id)
	}
	return nil
}

// AttrNames returns the names of AllAttrs. The result is never nil, so a
// type without attributes yields an empty list.
func (s *Schema) AttrNames(typeName string) []string {
	if x, id, ok := s.lookup(typeName); ok {
		if names := x.attrNames.at(id); names != nil {
			return names
		}
	}
	return []string{}
}

// SubtreeAttrNames returns every attribute name occurring in the
// sub-hierarchy rooted at typeName without duplicates: the type's own
// AttrNames, then those each descendant adds, in declaration order.
func (s *Schema) SubtreeAttrNames(typeName string) []string {
	x, id, ok := s.lookup(typeName)
	switch {
	case !ok:
		return nil
	case x.size[id] == 1:
		return x.attrNames.at(id)
	default:
		return x.subNames.at(id)
	}
}

// Attr looks up an attribute (inherited or declared) of the type.
func (s *Schema) Attr(typeName, attr string) (Attribute, bool) {
	if x, id, ok := s.lookup(typeName); ok {
		return x.attr(id, attr)
	}
	return Attribute{}, false
}

// HasAttr reports whether the type carries the attribute.
func (s *Schema) HasAttr(typeName, attr string) bool {
	_, ok := s.Attr(typeName, attr)
	return ok
}

// KeyOf returns the primary-key attributes of the type (declared on its
// hierarchy root).
func (s *Schema) KeyOf(typeName string) []string {
	x, id, ok := s.lookup(typeName)
	if !ok {
		return nil
	}
	k := x.ents[x.root[id]].Key
	if len(k) == 0 {
		return nil
	}
	return k[:len(k):len(k)]
}

// Validate checks global schema well-formedness beyond the incremental
// checks done by the mutators.
func (s *Schema) Validate() error {
	for _, n := range s.order {
		t := s.types[n]
		// Cycle detection.
		seen := map[string]bool{n: true}
		cur := t
		for cur.Base != "" {
			if seen[cur.Base] {
				return fmt.Errorf("edm: inheritance cycle through %q", cur.Base)
			}
			seen[cur.Base] = true
			next, ok := s.types[cur.Base]
			if !ok {
				return fmt.Errorf("edm: type %q derives from unknown type %q", cur.Name, cur.Base)
			}
			cur = next
		}
	}
	for _, n := range s.order {
		if s.types[n].Base == "" && len(s.types[n].Key) == 0 {
			return fmt.Errorf("edm: root type %q has no key", n)
		}
	}
	for _, set := range s.sets {
		if _, ok := s.types[set.Type]; !ok {
			return fmt.Errorf("edm: entity set %q has unknown root type %q", set.Name, set.Type)
		}
	}
	for _, a := range s.assocs {
		if s.SetFor(a.End1.Type) == nil {
			return fmt.Errorf("edm: association %q end type %q is not persisted by any entity set", a.Name, a.End1.Type)
		}
		if s.SetFor(a.End2.Type) == nil {
			return fmt.Errorf("edm: association %q end type %q is not persisted by any entity set", a.Name, a.End2.Type)
		}
	}
	return nil
}

// Clone returns a copy-on-write snapshot of the schema: the containers
// (type map, declaration order, set and association lists) are copied so
// each generation can add or remove entries privately, while the entries
// themselves — *EntityType, *EntitySet, *Association — are shared. Every
// mutator that changes an entry in place first replaces it with a private
// copy (see mutableType), so a clone and its source never observe each
// other's changes. The clone builds its own index on its first read.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		types:  make(map[string]*EntityType, len(s.types)),
		order:  append(make([]string, 0, len(s.order)), s.order...),
		sets:   append(make([]*EntitySet, 0, len(s.sets)), s.sets...),
		assocs: append(make([]*Association, 0, len(s.assocs)), s.assocs...),
	}
	for n, t := range s.types {
		c.types[n] = t
	}
	return c
}

// DeepClone returns a fully independent copy of the schema, sharing no
// structure with the receiver. It exists for callers that need the
// pre-CoW deep-copy semantics (aliasing tests, benchmark baselines).
func (s *Schema) DeepClone() *Schema {
	c := NewSchema()
	for _, n := range s.order {
		t := *s.types[n]
		t.Attrs = append([]Attribute(nil), t.Attrs...)
		t.Key = append([]string(nil), t.Key...)
		c.types[n] = &t
		c.order = append(c.order, n)
	}
	for _, e := range s.sets {
		cp := *e
		c.sets = append(c.sets, &cp)
	}
	for _, a := range s.assocs {
		cp := *a
		c.assocs = append(c.assocs, &cp)
	}
	return c
}

// mutableType replaces the named type's entry with a private copy and
// returns it. After Clone, entries are shared across generations; callers
// must go through this before any in-place entry mutation.
func (s *Schema) mutableType(name string) *EntityType {
	s.invalidate()
	t := *s.types[name]
	t.Attrs = append([]Attribute(nil), t.Attrs...)
	t.Key = append([]string(nil), t.Key...)
	s.types[name] = &t
	return &t
}

// SortedTypeNames returns all type names sorted alphabetically (useful for
// deterministic output).
func (s *Schema) SortedTypeNames() []string {
	out := append([]string(nil), s.order...)
	sort.Strings(out)
	return out
}
