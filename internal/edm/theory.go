package edm

import "github.com/ormkit/incmap/internal/cond"

// SetTheory adapts one entity set of a schema to the condition-reasoning
// Theory interface for single-subject conditions (subject ""): the subject
// ranges over the concrete types of the set's hierarchy, and attributes are
// the (unqualified) attributes of those types.
type SetTheory struct {
	Schema *Schema
	Set    *EntitySet
}

// TheoryFor returns a theory for conditions over the named entity set.
func (s *Schema) TheoryFor(setName string) *SetTheory {
	return &SetTheory{Schema: s, Set: s.Set(setName)}
}

// ConcreteTypes implements cond.Theory.
func (t *SetTheory) ConcreteTypes(subject string) []string {
	if subject != "" || t.Set == nil {
		return nil
	}
	return t.Schema.ConcreteIn(t.Set.Type)
}

// IsSubtype implements cond.Theory.
func (t *SetTheory) IsSubtype(sub, typ string) bool { return t.Schema.IsSubtype(sub, typ) }

// TypeSet implements cond.TypeSets from the schema index (Schema.TypeBits).
func (t *SetTheory) TypeSet(dst []uint64, subject, typ string, only bool) {
	if subject != "" || t.Set == nil {
		clear(dst)
		return
	}
	t.Schema.TypeBits(dst, t.Set.Type, typ, only)
}

// Domain implements cond.Theory. Of the types in the set's hierarchy that
// carry the attribute, declared or inherited, the first in declaration
// order decides.
func (t *SetTheory) Domain(attr string) (cond.Domain, bool) {
	if t.Set == nil {
		return cond.Domain{}, false
	}
	if a, ok := t.Schema.hierarchyAttr(t.Set.Type, attr); ok {
		return a.Domain(), true
	}
	return cond.Domain{}, false
}

// Nullable implements cond.Theory, resolving the attribute as Domain does.
func (t *SetTheory) Nullable(attr string) bool {
	if t.Set == nil {
		return true
	}
	if a, ok := t.Schema.hierarchyAttr(t.Set.Type, attr); ok {
		return a.Nullable
	}
	return true
}

// HasAttr implements cond.Theory.
func (t *SetTheory) HasAttr(concreteType, attr string) bool {
	return t.Schema.HasAttr(concreteType, attr)
}
