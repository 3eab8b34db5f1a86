// Package state holds concrete instances of client and store schemas: typed
// entities with attribute values, association pairs, and table rows. The
// query-tree evaluator runs over these states, and the roundtripping
// property (§2.2 of the paper: V ∘ Q = identity on client states) is tested
// against them.
package state

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/ormkit/incmap/internal/cond"
)

// Row is a table row or intermediate tuple: a map from column name to
// value. Absent keys are NULL.
type Row map[string]cond.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Canonical renders the row deterministically, for comparison and debug
// output: name=value for each column, sorted by name and separated by
// commas, each value as cond.Value.String renders it.
func (r Row) Canonical() string { return string(r.AppendCanonical(nil)) }

// AppendCanonical appends the row's Canonical rendering to dst. Rows of up
// to 16 columns sort their names without allocating.
func (r Row) AppendCanonical(dst []byte) []byte {
	var buf [16]string
	keys := buf[:0]
	for k := range r {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = r[k].AppendText(dst)
	}
	return dst
}

// Entity is an instance of a concrete entity type.
type Entity struct {
	Type  string
	Attrs Row
}

// Clone returns a deep copy of the entity.
func (e *Entity) Clone() *Entity { return &Entity{Type: e.Type, Attrs: e.Attrs.Clone()} }

// Canonical renders the entity deterministically.
func (e *Entity) Canonical() string { return e.Type + "{" + e.Attrs.Canonical() + "}" }

// AssocPair is one instance of an association: the key values of the two
// participating entities, stored under the association's qualified column
// names (see AssocEndCols).
type AssocPair struct {
	Ends Row
}

// ClientState is an instance of a client schema.
type ClientState struct {
	// Entities maps entity-set names to their members.
	Entities map[string][]*Entity
	// Assocs maps association names to their pairs.
	Assocs map[string][]AssocPair
}

// NewClientState returns an empty client state.
func NewClientState() *ClientState {
	return &ClientState{Entities: map[string][]*Entity{}, Assocs: map[string][]AssocPair{}}
}

// Insert adds an entity to a set.
func (c *ClientState) Insert(set string, e *Entity) {
	c.Entities[set] = append(c.Entities[set], e)
}

// Relate adds an association pair.
func (c *ClientState) Relate(assoc string, p AssocPair) {
	c.Assocs[assoc] = append(c.Assocs[assoc], p)
}

// Clone returns a deep copy of the client state.
func (c *ClientState) Clone() *ClientState {
	out := NewClientState()
	for set, es := range c.Entities {
		cp := make([]*Entity, len(es))
		for i, e := range es {
			cp[i] = e.Clone()
		}
		out.Entities[set] = cp
	}
	for a, ps := range c.Assocs {
		cp := make([]AssocPair, len(ps))
		for i, p := range ps {
			cp[i] = AssocPair{Ends: p.Ends.Clone()}
		}
		out.Assocs[a] = cp
	}
	return out
}

// StoreState is an instance of a relational schema.
type StoreState struct {
	Tables map[string][]Row
}

// NewStoreState returns an empty store state.
func NewStoreState() *StoreState { return &StoreState{Tables: map[string][]Row{}} }

// InsertRow appends a row to a table.
func (s *StoreState) InsertRow(table string, r Row) {
	s.Tables[table] = append(s.Tables[table], r)
}

// Clone returns a deep copy of the store state.
func (s *StoreState) Clone() *StoreState {
	out := NewStoreState()
	for t, rows := range s.Tables {
		cp := make([]Row, len(rows))
		for i, r := range rows {
			cp[i] = r.Clone()
		}
		out.Tables[t] = cp
	}
	return out
}

// canonicalMultiset sorts the canonical strings of a multiset.
func canonicalMultiset(items []string) []string {
	sort.Strings(items)
	return items
}

// EqualRows compares two row multisets.
func EqualRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	ca := make([]string, len(a))
	cb := make([]string, len(b))
	for i := range a {
		ca[i] = a[i].Canonical()
	}
	for i := range b {
		cb[i] = b[i].Canonical()
	}
	canonicalMultiset(ca)
	canonicalMultiset(cb)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// EqualClient compares two client states as multisets of entities and
// association pairs.
func EqualClient(a, b *ClientState) bool {
	if len(nonEmptySets(a.Entities)) != len(nonEmptySets(b.Entities)) {
		return false
	}
	for set, es := range a.Entities {
		if !equalEntities(es, b.Entities[set]) {
			return false
		}
	}
	for set, es := range b.Entities {
		if _, ok := a.Entities[set]; !ok && len(es) > 0 {
			return false
		}
	}
	for assoc, ps := range a.Assocs {
		if !equalPairs(ps, b.Assocs[assoc]) {
			return false
		}
	}
	for assoc, ps := range b.Assocs {
		if _, ok := a.Assocs[assoc]; !ok && len(ps) > 0 {
			return false
		}
	}
	return true
}

func nonEmptySets(m map[string][]*Entity) []string {
	var out []string
	for k, v := range m {
		if len(v) > 0 {
			out = append(out, k)
		}
	}
	return out
}

func equalEntities(a, b []*Entity) bool {
	if len(a) != len(b) {
		return false
	}
	ca := make([]string, len(a))
	cb := make([]string, len(b))
	for i := range a {
		ca[i] = a[i].Canonical()
	}
	for i := range b {
		cb[i] = b[i].Canonical()
	}
	canonicalMultiset(ca)
	canonicalMultiset(cb)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

func equalPairs(a, b []AssocPair) bool {
	ra := make([]Row, len(a))
	rb := make([]Row, len(b))
	for i := range a {
		ra[i] = a[i].Ends
	}
	for i := range b {
		rb[i] = b[i].Ends
	}
	return EqualRows(ra, rb)
}

// Diff returns a human-readable description of the difference between two
// client states, or "" when equal. It is used in test failure messages.
func Diff(a, b *ClientState) string {
	if EqualClient(a, b) {
		return ""
	}
	var sb strings.Builder
	dump := func(label string, c *ClientState) {
		fmt.Fprintf(&sb, "%s:\n", label)
		sets := nonEmptySets(c.Entities)
		sort.Strings(sets)
		for _, set := range sets {
			items := make([]string, len(c.Entities[set]))
			for i, e := range c.Entities[set] {
				items[i] = e.Canonical()
			}
			canonicalMultiset(items)
			fmt.Fprintf(&sb, "  %s: %s\n", set, strings.Join(items, "; "))
		}
		var assocs []string
		for a2, ps := range c.Assocs {
			if len(ps) > 0 {
				assocs = append(assocs, a2)
			}
		}
		sort.Strings(assocs)
		for _, a2 := range assocs {
			items := make([]string, len(c.Assocs[a2]))
			for i, p := range c.Assocs[a2] {
				items[i] = p.Ends.Canonical()
			}
			canonicalMultiset(items)
			fmt.Fprintf(&sb, "  %s: %s\n", a2, strings.Join(items, "; "))
		}
	}
	dump("left", a)
	dump("right", b)
	return sb.String()
}

// EqualStore compares two store states as per-table row multisets (tables
// present with zero rows count as absent).
func EqualStore(a, b *StoreState) bool {
	for t, rows := range a.Tables {
		if !EqualRows(rows, b.Tables[t]) {
			return false
		}
	}
	for t, rows := range b.Tables {
		if _, ok := a.Tables[t]; !ok && len(rows) > 0 {
			return false
		}
	}
	return true
}

// DiffStore returns a human-readable description of the difference between
// two store states, or "" when equal.
func DiffStore(a, b *StoreState) string {
	if EqualStore(a, b) {
		return ""
	}
	var sb strings.Builder
	dump := func(label string, s *StoreState) {
		fmt.Fprintf(&sb, "%s:\n", label)
		var tables []string
		for t, rows := range s.Tables {
			if len(rows) > 0 {
				tables = append(tables, t)
			}
		}
		sort.Strings(tables)
		for _, t := range tables {
			items := make([]string, len(s.Tables[t]))
			for i, r := range s.Tables[t] {
				items[i] = r.Canonical()
			}
			canonicalMultiset(items)
			fmt.Fprintf(&sb, "  %s: %s\n", t, strings.Join(items, "; "))
		}
	}
	dump("left", a)
	dump("right", b)
	return sb.String()
}

// EntityInstance adapts an entity to the condition evaluation interface.
type EntityInstance struct {
	E *Entity
}

// InstanceType implements cond.Instance.
func (e EntityInstance) InstanceType(subject string) string {
	if subject != "" {
		return ""
	}
	return e.E.Type
}

// Lookup implements cond.Instance.
func (e EntityInstance) Lookup(attr string) (cond.Value, bool) {
	v, ok := e.E.Attrs[attr]
	return v, ok
}

// RowInstance adapts a row to the condition evaluation interface.
type RowInstance struct {
	R Row
}

// InstanceType implements cond.Instance.
func (RowInstance) InstanceType(string) string { return "" }

// Lookup implements cond.Instance.
func (r RowInstance) Lookup(attr string) (cond.Value, bool) {
	v, ok := r.R[attr]
	return v, ok
}
