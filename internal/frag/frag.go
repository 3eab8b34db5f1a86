// Package frag implements the declarative mapping language of Entity
// Framework as formalized in §2.1 of Bernstein et al. (SIGMOD 2013): a
// mapping is a set Σ of mapping fragments, each an equation
//
//	π_α(σ_ψ(E)) = π_β(σ_χ(R))
//
// between a project-select query over a client entity set (or association
// set) and a project-select query over a store table. A fragment set
// specifies the mapping M ⊆ C × S of client/store state pairs that satisfy
// every equation.
package frag

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/rel"
)

// Fragment is one mapping equation. Exactly one of Set and Assoc is
// non-empty: entity fragments range over an entity set, association
// fragments over an association set (whose "attributes" are the qualified
// end-key columns of cqt.AssocEndCols).
type Fragment struct {
	// ID is a stable identifier used in diagnostics and provenance flags.
	ID string
	// Set is the client entity set for entity fragments.
	Set string
	// Assoc is the association set for association fragments.
	Assoc string
	// ClientCond is ψ, the client-side selection condition.
	ClientCond cond.Expr
	// Attrs is α, the projected client attributes. It must include the key.
	Attrs []string
	// Table is R, the store table.
	Table string
	// StoreCond is χ, the store-side selection condition.
	StoreCond cond.Expr
	// ColOf is the 1-1 renaming f from client attributes to table columns.
	// Every name in Attrs must be mapped.
	ColOf map[string]string
}

// Clone returns a deep copy of the fragment.
func (f *Fragment) Clone() *Fragment {
	cp := *f
	cp.Attrs = append([]string(nil), f.Attrs...)
	cp.ColOf = make(map[string]string, len(f.ColOf))
	for k, v := range f.ColOf {
		cp.ColOf[k] = v
	}
	return &cp
}

// Cols returns f(Attrs): the store columns the fragment writes, in Attrs
// order.
func (f *Fragment) Cols() []string {
	out := make([]string, len(f.Attrs))
	for i, a := range f.Attrs {
		out[i] = f.ColOf[a]
	}
	return out
}

// AttrFor returns the client attribute mapped to the given column, if any.
func (f *Fragment) AttrFor(col string) (string, bool) {
	for a, c := range f.ColOf {
		if c == col {
			return a, true
		}
	}
	return "", false
}

// MapsCol reports whether the fragment writes the given store column.
func (f *Fragment) MapsCol(col string) bool {
	_, ok := f.AttrFor(col)
	return ok
}

// ClientQuery returns the fragment's left side as a query tree over the
// client state.
func (f *Fragment) ClientQuery() cqt.Expr {
	var scan cqt.Expr
	if f.Assoc != "" {
		scan = cqt.ScanAssoc{Assoc: f.Assoc}
	} else {
		scan = cqt.ScanSet{Set: f.Set}
	}
	cols := make([]cqt.ProjCol, len(f.Attrs))
	for i, a := range f.Attrs {
		cols[i] = cqt.Col(a)
	}
	return cqt.Project{In: cqt.Select{In: scan, Cond: f.ClientCond}, Cols: cols}
}

// StoreQuery returns the fragment's right side as a query tree over the
// store state, with columns renamed back to client attribute names so the
// two sides are directly comparable.
func (f *Fragment) StoreQuery() cqt.Expr {
	cols := make([]cqt.ProjCol, len(f.Attrs))
	for i, a := range f.Attrs {
		cols[i] = cqt.ColAs(f.ColOf[a], a)
	}
	return cqt.Project{In: cqt.Select{In: cqt.ScanTable{Table: f.Table}, Cond: f.StoreCond}, Cols: cols}
}

// String renders the fragment in the paper's π/σ notation.
func (f *Fragment) String() string {
	src := f.Set
	if f.Assoc != "" {
		src = f.Assoc
	}
	return fmt.Sprintf("π_{%v}(σ_{%s}(%s)) = π_{%v}(σ_{%s}(%s))",
		f.Attrs, f.ClientCond, src, f.Cols(), f.StoreCond, f.Table)
}

// Mapping bundles the three developer-provided definitions: client schema,
// store schema, and fragment set.
type Mapping struct {
	Client *edm.Schema
	Store  *rel.Schema
	Frags  []*Fragment

	// fragsShared marks the Frags backing array as possibly shared with
	// another generation (set on both sides by Clone, and by Freeze). In-place
	// writes to the slice must go through ensureOwnedFrags first; appends are
	// always safe because the clone's slice is capacity-clamped.
	fragsShared bool

	frozen atomic.Bool
	memo   memo
}

// Clone returns a copy-on-write generation of the mapping: the schemas
// take CoW snapshots (see edm.Schema.Clone, rel.Schema.Clone) and the
// fragment slice is shared, capacity-clamped so appends on the clone
// reallocate. Fragments themselves are shared until a mutator replaces
// one through MutableFrag. Cloning is O(model) only in cheap pointer
// copies — no fragment, view tree, or schema entry is duplicated. The clone
// is not frozen, and it inherits the receiver's memo as its base (see
// Memo). Cloning a frozen generation writes nothing to it.
func (m *Mapping) Clone() *Mapping {
	if !m.Frozen() {
		m.fragsShared = true
	}
	out := &Mapping{
		Client:      m.Client.Clone(),
		Store:       m.Store.Clone(),
		Frags:       m.Frags[:len(m.Frags):len(m.Frags)],
		fragsShared: true,
	}
	out.memo.base.Store(m.memo.inherit())
	return out
}

// DeepClone returns a fully independent copy of the mapping, sharing no
// mutable structure with the receiver (the pre-CoW Clone semantics). The
// copy is not frozen and has no memo.
func (m *Mapping) DeepClone() *Mapping {
	out := &Mapping{Client: m.Client.DeepClone(), Store: m.Store.DeepClone()}
	out.Frags = make([]*Fragment, len(m.Frags))
	for i, f := range m.Frags {
		out.Frags[i] = f.Clone()
	}
	return out
}

// MutableFrag replaces f with a private copy in the fragment slice and
// returns the copy. Fragments are shared across generations after Clone;
// appliers must route every in-place fragment mutation through this.
// Callers are responsible for using the returned pointer afterwards.
func (m *Mapping) MutableFrag(f *Fragment) *Fragment {
	m.mustNotBeFrozen("MutableFrag", f.ID)
	nf := f.Clone()
	m.ensureOwnedFrags()
	for i, g := range m.Frags {
		if g == f {
			m.Frags[i] = nf
			break
		}
	}
	return nf
}

// RemoveFrag deletes the fragment (by identity) from the slice.
func (m *Mapping) RemoveFrag(f *Fragment) {
	m.mustNotBeFrozen("RemoveFrag", f.ID)
	m.ensureOwnedFrags()
	for i, g := range m.Frags {
		if g == f {
			m.Frags = append(m.Frags[:i], m.Frags[i+1:]...)
			return
		}
	}
}

// ensureOwnedFrags gives the generation a private backing array before an
// in-place write to the fragment slice.
func (m *Mapping) ensureOwnedFrags() {
	if !m.fragsShared {
		return
	}
	m.Frags = append(make([]*Fragment, 0, len(m.Frags)), m.Frags...)
	m.fragsShared = false
}

// Catalog returns a query-tree catalog over the mapping's schemas.
func (m *Mapping) Catalog() *cqt.Catalog { return &cqt.Catalog{Client: m.Client, Store: m.Store} }

// FragsOnTable returns the fragments whose right side is the given table.
func (m *Mapping) FragsOnTable(table string) []*Fragment {
	var out []*Fragment
	for _, f := range m.Frags {
		if f.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// FragsOnSet returns the entity fragments over the given entity set.
func (m *Mapping) FragsOnSet(set string) []*Fragment {
	var out []*Fragment
	for _, f := range m.Frags {
		if f.Set == set {
			out = append(out, f)
		}
	}
	return out
}

// FragForAssoc returns the association fragment for the given association,
// or nil. The paper assumes each association set appears in exactly one
// fragment.
func (m *Mapping) FragForAssoc(assoc string) *Fragment {
	for _, f := range m.Frags {
		if f.Assoc == assoc {
			return f
		}
	}
	return nil
}

// MappedTables returns the names of tables mentioned by any fragment,
// sorted.
func (m *Mapping) MappedTables() []string {
	set := map[string]bool{}
	for _, f := range m.Frags {
		set[f.Table] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// CheckWellFormed verifies the structural side conditions of the fragment
// language: referenced sets/tables exist, α includes the client key, β
// includes the table key, the renaming is total and injective, and domains
// are compatible (dom(A) ⊆ dom(f(A)) in the paper's notation).
func (m *Mapping) CheckWellFormed() error {
	for _, f := range m.Frags {
		if err := m.checkFragment(f); err != nil {
			return fmt.Errorf("fragment %s: %w", f.ID, err)
		}
	}
	return nil
}

// CheckFragment verifies the structural side conditions of a single
// fragment. The incremental compiler uses it to validate only the
// fragments an SMO added or rewrote instead of the whole set.
func (m *Mapping) CheckFragment(f *Fragment) error {
	if err := m.checkFragment(f); err != nil {
		return fmt.Errorf("fragment %s: %w", f.ID, err)
	}
	return nil
}

func (m *Mapping) checkFragment(f *Fragment) error {
	if (f.Set == "") == (f.Assoc == "") {
		return fmt.Errorf("exactly one of Set and Assoc must be specified")
	}
	tab := m.Store.Table(f.Table)
	if tab == nil {
		return fmt.Errorf("unknown table %q", f.Table)
	}

	var keyAttrs []string
	attrDomain := map[string]cond.Domain{}
	if f.Set != "" {
		set := m.Client.Set(f.Set)
		if set == nil {
			return fmt.Errorf("unknown entity set %q", f.Set)
		}
		keyAttrs = m.Client.KeyOf(set.Type)
		for _, ty := range append([]string{set.Type}, m.Client.Descendants(set.Type)...) {
			for _, a := range m.Client.AllAttrs(ty) {
				attrDomain[a.Name] = a.Domain()
			}
		}
	} else {
		a := m.Client.Association(f.Assoc)
		if a == nil {
			return fmt.Errorf("unknown association %q", f.Assoc)
		}
		e1, e2 := cqt.AssocEndCols(m.Client, a)
		keyAttrs = append(append([]string(nil), e1...), e2...)
		for i, col := range e1 {
			attr, _ := m.Client.Attr(a.End1.Type, m.Client.KeyOf(a.End1.Type)[i])
			attrDomain[col] = attr.Domain()
		}
		for i, col := range e2 {
			attr, _ := m.Client.Attr(a.End2.Type, m.Client.KeyOf(a.End2.Type)[i])
			attrDomain[col] = attr.Domain()
		}
	}

	seen := map[string]bool{}
	usedCols := map[string]bool{}
	for _, a := range f.Attrs {
		if seen[a] {
			return fmt.Errorf("attribute %q projected twice", a)
		}
		seen[a] = true
		if _, ok := attrDomain[a]; !ok {
			return fmt.Errorf("unknown client attribute %q", a)
		}
		col, ok := f.ColOf[a]
		if !ok {
			return fmt.Errorf("attribute %q has no column mapping", a)
		}
		c, ok := tab.Col(col)
		if !ok {
			return fmt.Errorf("attribute %q maps to unknown column %q of %q", a, col, f.Table)
		}
		if usedCols[col] {
			return fmt.Errorf("column %q mapped twice", col)
		}
		usedCols[col] = true
		if attrDomain[a].Kind != c.Type {
			return fmt.Errorf("attribute %q kind %v incompatible with column %q kind %v", a, attrDomain[a].Kind, col, c.Type)
		}
	}
	if f.Assoc != "" {
		// Association fragments project exactly the end keys.
		for _, k := range keyAttrs {
			if !seen[k] {
				return fmt.Errorf("association fragment must project end key %q", k)
			}
		}
	} else {
		for _, k := range keyAttrs {
			if !seen[k] {
				return fmt.Errorf("projection must include key attribute %q", k)
			}
		}
		// β must include the table key.
		for _, k := range tab.Key {
			if !usedCols[k] {
				return fmt.Errorf("projection must cover table key column %q", k)
			}
		}
	}
	return nil
}

// Views is the compiled form of a mapping: one query view per entity type,
// one query view per association set, and one update view per mapped table
// (§2.2 of the paper).
type Views struct {
	// Query maps entity type names to their (Q | τ) query views.
	Query map[string]*cqt.View
	// Assoc maps association names to their query views (trivial τ).
	Assoc map[string]*cqt.View
	// Update maps table names to their update views (trivial τ).
	Update map[string]*cqt.View

	// owned marks views this generation created or already copied, which
	// are therefore safe to mutate in place. Clone clears it on both
	// sides, and Freeze on a frozen one: after a snapshot, neither
	// generation owns any shared view.
	owned map[*cqt.View]bool

	frozen atomic.Bool
	memo   memo
}

// NewViews returns an empty view set.
func NewViews() *Views {
	return &Views{
		Query:  map[string]*cqt.View{},
		Assoc:  map[string]*cqt.View{},
		Update: map[string]*cqt.View{},
	}
}

// Clone returns a copy-on-write generation of the view set: the three
// maps are copied (so adds and deletes stay private) but every *cqt.View
// is shared. A view is copied only when a mutator touches it, through
// MutableQuery/MutableAssoc/MutableUpdate — O(change) work per SMO
// instead of O(model). The clone is not frozen and inherits the
// receiver's memo as its base; cloning a frozen view set writes nothing to
// it.
func (v *Views) Clone() *Views {
	if !v.Frozen() {
		v.owned = nil
	}
	out := &Views{
		Query:  make(map[string]*cqt.View, len(v.Query)),
		Assoc:  make(map[string]*cqt.View, len(v.Assoc)),
		Update: make(map[string]*cqt.View, len(v.Update)),
	}
	for k, view := range v.Query {
		out.Query[k] = view
	}
	for k, view := range v.Assoc {
		out.Assoc[k] = view
	}
	for k, view := range v.Update {
		out.Update[k] = view
	}
	out.memo.base.Store(v.memo.inherit())
	return out
}

// DeepClone returns a fully independent copy of the view set (the pre-CoW
// Clone semantics: case lists and constructor maps are duplicated; the
// immutable query trees are still shared, as they always were).
func (v *Views) DeepClone() *Views {
	out := NewViews()
	for k, view := range v.Query {
		out.Query[k] = view.Clone()
	}
	for k, view := range v.Assoc {
		out.Assoc[k] = view.Clone()
	}
	for k, view := range v.Update {
		out.Update[k] = view.Clone()
	}
	return out
}

// MutableQuery returns the query view for the named type, copied first if
// it is still shared with another generation. Returns nil if absent.
func (v *Views) MutableQuery(name string) *cqt.View {
	v.mustNotBeFrozen("MutableQuery", name)
	return v.mutable(v.Query, name)
}

// MutableAssoc is MutableQuery for association views.
func (v *Views) MutableAssoc(name string) *cqt.View {
	v.mustNotBeFrozen("MutableAssoc", name)
	return v.mutable(v.Assoc, name)
}

// MutableUpdate is MutableQuery for update views.
func (v *Views) MutableUpdate(name string) *cqt.View {
	v.mustNotBeFrozen("MutableUpdate", name)
	return v.mutable(v.Update, name)
}

func (v *Views) mutable(m map[string]*cqt.View, name string) *cqt.View {
	view := m[name]
	if view == nil || v.owned[view] {
		return view
	}
	nv := view.Clone()
	v.own(nv)
	m[name] = nv
	return nv
}

// SetQuery installs a freshly built query view, marking it owned so later
// in-place rewrites (adaptation, simplification) need not copy it again.
func (v *Views) SetQuery(name string, view *cqt.View) {
	v.mustNotBeFrozen("SetQuery", name)
	v.Query[name] = view
	v.own(view)
}

// SetAssoc is SetQuery for association views.
func (v *Views) SetAssoc(name string, view *cqt.View) {
	v.mustNotBeFrozen("SetAssoc", name)
	v.Assoc[name] = view
	v.own(view)
}

// SetUpdate is SetQuery for update views.
func (v *Views) SetUpdate(name string, view *cqt.View) {
	v.mustNotBeFrozen("SetUpdate", name)
	v.Update[name] = view
	v.own(view)
}

func (v *Views) own(view *cqt.View) {
	if v.owned == nil {
		v.owned = map[*cqt.View]bool{}
	}
	v.owned[view] = true
}
