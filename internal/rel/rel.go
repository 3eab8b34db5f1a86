// Package rel implements the store-side relational schema of the
// reproduction: tables with typed columns, primary keys and foreign keys,
// per §2 of Bernstein et al. (SIGMOD 2013). It also adapts tables to the
// condition-reasoning theory so store-side fragment conditions (χ in the
// paper's notation) can be analysed.
package rel

import (
	"fmt"
	"sync/atomic"

	"github.com/ormkit/incmap/internal/cond"
)

// Column is a table column.
type Column struct {
	Name     string
	Type     cond.Kind
	Nullable bool
	// Enum optionally restricts the column to a finite value set (used for
	// TPH discriminator columns).
	Enum []cond.Value
}

// Domain returns the column's condition-reasoning domain.
func (c Column) Domain() cond.Domain { return cond.Domain{Kind: c.Type, Enum: c.Enum} }

// ForeignKey maps columns of the owning table to the primary key of another
// table.
type ForeignKey struct {
	Name     string
	Cols     []string
	RefTable string
	RefCols  []string
}

// Table is a relational table definition.
type Table struct {
	Name string
	Cols []Column
	Key  []string
	FKs  []ForeignKey
}

// Col returns the named column, or ok == false.
func (t *Table) Col(name string) (Column, bool) {
	for _, c := range t.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// HasCol reports whether the table has the named column.
func (t *Table) HasCol(name string) bool {
	_, ok := t.Col(name)
	return ok
}

// ColNames returns the column names in declaration order.
func (t *Table) ColNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// IsKey reports whether the named column is part of the primary key.
func (t *Table) IsKey(name string) bool {
	for _, k := range t.Key {
		if k == name {
			return true
		}
	}
	return false
}

// Schema is a mutable relational schema. The zero value is empty and ready
// for use. A frozen schema (Freeze) belongs to a generation a session
// serves; its mutators panic.
type Schema struct {
	tables map[string]*Table
	order  []string
	frozen atomic.Bool
}

// NewSchema returns an empty store schema.
func NewSchema() *Schema { return &Schema{tables: map[string]*Table{}} }

// Freeze makes the schema immutable: every mutator, MutableTable
// included, panics from then on. Clone still works and returns an unfrozen
// schema.
func (s *Schema) Freeze() { s.frozen.Store(true) }

// Frozen reports whether Freeze was called.
func (s *Schema) Frozen() bool { return s.frozen.Load() }

func (s *Schema) mustNotBeFrozen(op, name string) {
	if s.frozen.Load() {
		panic(fmt.Sprintf("rel: %s(%q) on a frozen generation's store schema (%d tables): clone it first", op, name, len(s.order)))
	}
}

// AddTable adds a table definition.
func (s *Schema) AddTable(t Table) error {
	s.mustNotBeFrozen("AddTable", t.Name)
	if t.Name == "" {
		return fmt.Errorf("rel: table with empty name")
	}
	if s.tables == nil {
		s.tables = map[string]*Table{}
	}
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("rel: duplicate table %q", t.Name)
	}
	seen := map[string]bool{}
	for _, c := range t.Cols {
		if c.Name == "" {
			return fmt.Errorf("rel: table %q has a column with empty name", t.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("rel: table %q declares column %q twice", t.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if len(t.Key) == 0 {
		return fmt.Errorf("rel: table %q has no primary key", t.Name)
	}
	for _, k := range t.Key {
		c, ok := t.Col(k)
		if !ok {
			return fmt.Errorf("rel: table %q key column %q is not declared", t.Name, k)
		}
		if c.Nullable {
			return fmt.Errorf("rel: table %q key column %q must not be nullable", t.Name, k)
		}
	}
	cp := t
	cp.Cols = append([]Column(nil), t.Cols...)
	cp.Key = append([]string(nil), t.Key...)
	cp.FKs = append([]ForeignKey(nil), t.FKs...)
	s.tables[t.Name] = &cp
	s.order = append(s.order, t.Name)
	return nil
}

// AddForeignKey adds a foreign key to an existing table.
func (s *Schema) AddForeignKey(table string, fk ForeignKey) error {
	s.mustNotBeFrozen("AddForeignKey", table)
	t, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("rel: unknown table %q", table)
	}
	if len(fk.Cols) == 0 || len(fk.Cols) != len(fk.RefCols) {
		return fmt.Errorf("rel: foreign key %q on %q has mismatched column lists", fk.Name, table)
	}
	for _, c := range fk.Cols {
		if !t.HasCol(c) {
			return fmt.Errorf("rel: foreign key %q references unknown column %q of %q", fk.Name, c, table)
		}
	}
	t = s.MutableTable(table)
	t.FKs = append(t.FKs, fk)
	return nil
}

// RemoveTable deletes a table. Tables referenced by other tables' foreign
// keys cannot be removed.
func (s *Schema) RemoveTable(name string) error {
	s.mustNotBeFrozen("RemoveTable", name)
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("rel: unknown table %q", name)
	}
	for _, t := range s.tables {
		if t.Name == name {
			continue
		}
		for _, fk := range t.FKs {
			if fk.RefTable == name {
				return fmt.Errorf("rel: table %q is referenced by foreign key %q of %q", name, fk.Name, t.Name)
			}
		}
	}
	delete(s.tables, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.tables[name] }

// Tables returns all tables in declaration order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.tables[n])
	}
	return out
}

// Validate checks referential well-formedness of all foreign keys.
func (s *Schema) Validate() error {
	for _, n := range s.order {
		t := s.tables[n]
		for _, fk := range t.FKs {
			ref, ok := s.tables[fk.RefTable]
			if !ok {
				return fmt.Errorf("rel: foreign key %q of %q references unknown table %q", fk.Name, t.Name, fk.RefTable)
			}
			if len(fk.RefCols) != len(ref.Key) {
				return fmt.Errorf("rel: foreign key %q of %q does not cover the key of %q", fk.Name, t.Name, fk.RefTable)
			}
			for i, rc := range fk.RefCols {
				if ref.Key[i] != rc {
					return fmt.Errorf("rel: foreign key %q of %q must reference the primary key of %q in order", fk.Name, t.Name, fk.RefTable)
				}
			}
			for i, c := range fk.Cols {
				cc, ok := t.Col(c)
				if !ok {
					return fmt.Errorf("rel: foreign key %q of %q uses unknown column %q", fk.Name, t.Name, c)
				}
				rc, _ := ref.Col(fk.RefCols[i])
				if cc.Type != rc.Type {
					return fmt.Errorf("rel: foreign key %q of %q: column %q kind mismatch", fk.Name, t.Name, c)
				}
			}
		}
	}
	return nil
}

// Clone returns a copy-on-write snapshot of the schema: the table map and
// declaration order are copied so each generation can add or remove tables
// privately, while the *Table entries are shared. Mutators that change a
// table in place first replace it with a private copy (see mutableTable),
// so a clone and its source never observe each other's changes.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		tables: make(map[string]*Table, len(s.tables)),
		order:  append(make([]string, 0, len(s.order)), s.order...),
	}
	for n, t := range s.tables {
		c.tables[n] = t
	}
	return c
}

// DeepClone returns a fully independent copy of the schema, sharing no
// structure with the receiver (the pre-CoW deep-copy semantics).
func (s *Schema) DeepClone() *Schema {
	c := NewSchema()
	for _, n := range s.order {
		t := *s.tables[n]
		t.Cols = append([]Column(nil), t.Cols...)
		t.Key = append([]string(nil), t.Key...)
		t.FKs = append([]ForeignKey(nil), t.FKs...)
		c.tables[n] = &t
		c.order = append(c.order, n)
	}
	return c
}

// MutableTable replaces the named table's entry with a private copy and
// returns it, or nil if the table does not exist. After Clone, entries are
// shared across generations; every caller that mutates a table in place —
// including column appends and discriminator-enum extensions — must go
// through this first, or the write tears the generation it was cloned
// from (and races with concurrent readers of that generation, such as a
// write-behind persist). Column enum slices are copied too, so appending
// a discriminator value never writes into a shared backing array.
func (s *Schema) MutableTable(name string) *Table {
	s.mustNotBeFrozen("MutableTable", name)
	src, ok := s.tables[name]
	if !ok {
		return nil
	}
	t := *src
	t.Cols = append([]Column(nil), t.Cols...)
	for i := range t.Cols {
		t.Cols[i].Enum = append([]cond.Value(nil), t.Cols[i].Enum...)
	}
	t.Key = append([]string(nil), t.Key...)
	t.FKs = append([]ForeignKey(nil), t.FKs...)
	s.tables[name] = &t
	return &t
}

// TableTheory adapts one table to the condition-reasoning theory for
// single-subject store conditions (subject ""): the subject is untyped and
// attributes are the table's columns.
type TableTheory struct {
	Tab *Table
}

// TheoryFor returns a theory for conditions over the named table.
func (s *Schema) TheoryFor(table string) *TableTheory {
	return &TableTheory{Tab: s.Table(table)}
}

// ConcreteTypes implements cond.Theory: rows are untyped.
func (t *TableTheory) ConcreteTypes(string) []string { return nil }

// IsSubtype implements cond.Theory.
func (t *TableTheory) IsSubtype(string, string) bool { return false }

// Domain implements cond.Theory.
func (t *TableTheory) Domain(attr string) (cond.Domain, bool) {
	if t.Tab == nil {
		return cond.Domain{}, false
	}
	c, ok := t.Tab.Col(attr)
	if !ok {
		return cond.Domain{}, false
	}
	return c.Domain(), true
}

// Nullable implements cond.Theory.
func (t *TableTheory) Nullable(attr string) bool {
	if t.Tab == nil {
		return true
	}
	c, ok := t.Tab.Col(attr)
	if !ok {
		return true
	}
	return c.Nullable
}

// HasAttr implements cond.Theory.
func (t *TableTheory) HasAttr(string, string) bool { return true }
