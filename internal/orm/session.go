package orm

import (
	"context"
	"fmt"
	"sort"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
)

// DB is an application-facing handle over a compiled mapping and an
// in-memory relational store. Reads go through query views (view
// unfolding); writes go through update views, the paper's direction of
// update translation.
type DB struct {
	mapping *frag.Mapping
	views   *frag.Views
	store   *state.StoreState
}

// Open creates an empty database for a compiled mapping.
func Open(m *frag.Mapping, views *frag.Views) *DB {
	return &DB{mapping: m, views: views, store: state.NewStoreState()}
}

// Mapping returns the database's mapping.
func (db *DB) Mapping() *frag.Mapping { return db.mapping }

// Views returns the database's compiled views.
func (db *DB) Views() *frag.Views { return db.views }

// Store exposes the raw relational state (for inspection and demos).
func (db *DB) Store() *state.StoreState { return db.store }

// Table returns a copy of a table's rows sorted canonically. Each row's
// canonical form is rendered once, not once per comparison.
func (db *DB) Table(name string) []state.Row {
	rows := db.store.Tables[name]
	type keyed struct {
		canon string
		row   state.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{r.Canonical(), r.Clone()}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].canon < ks[j].canon })
	out := make([]state.Row, len(rows))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}

// Load reads the full client state through the query views.
func (db *DB) Load() (*state.ClientState, error) {
	return Load(db.mapping, db.views, db.store)
}

// Save replaces the database contents with the given client state,
// translated through the update views.
func (db *DB) Save(cs *state.ClientState) error {
	ss, err := Materialize(db.mapping, db.views, cs)
	if err != nil {
		return err
	}
	db.store = ss
	return nil
}

// Update runs a read-modify-write transaction: the current client state is
// loaded, mutated by fn, and stored back. This exercises both view
// directions, so a non-roundtripping mapping would corrupt data here —
// which is exactly what mapping validation prevents.
func (db *DB) Update(fn func(cs *state.ClientState) error) error {
	cs, err := db.Load()
	if err != nil {
		return err
	}
	if err := fn(cs); err != nil {
		return err
	}
	return db.Save(cs)
}

// Query returns the entities visible through one entity type's view,
// optionally filtered.
func (db *DB) Query(entityType string, pred func(*state.Entity) bool) ([]*state.Entity, error) {
	ents, err := db.QueryWhere(entityType, cond.True{})
	if err != nil || pred == nil {
		return ents, err
	}
	out := ents[:0]
	for _, e := range ents {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out, nil
}

// QueryWhere translates a client-side selection over an entity type into a
// store-side query by view unfolding (§1.1 of the paper): the condition —
// over the type's attribute names — is composed onto the type's query view
// and evaluated directly against the relational store, before entities are
// constructed. Type tests (IS OF) are not meaningful here; use the view of
// the type you want.
func (db *DB) QueryWhere(entityType string, c cond.Expr) ([]*state.Entity, error) {
	v, ok := db.views.Query[entityType]
	if !ok {
		return nil, fmt.Errorf("orm: no query view for type %s", entityType)
	}
	unfolded := &cqt.View{
		Q:     cqt.Select{In: v.Q, Cond: c},
		Cases: v.Cases,
	}
	env := &exec.Env{Catalog: db.mapping.Catalog(), Store: exec.NewMapStore(db.store)}
	it, err := exec.OpenView(context.TODO(), env, unfolded, exec.Strict, exec.Options{})
	if err != nil {
		return nil, err
	}
	return exec.CollectEntities(it)
}

// Related returns the pairs of an association.
func (db *DB) Related(assoc string) ([]state.AssocPair, error) {
	cs, err := db.Load()
	if err != nil {
		return nil, err
	}
	return cs.Assocs[assoc], nil
}

// Insert adds one entity to a set (a read-modify-write convenience).
func (db *DB) Insert(set string, e *state.Entity) error {
	if db.mapping.Client.Set(set) == nil {
		return fmt.Errorf("orm: unknown entity set %q", set)
	}
	return db.Update(func(cs *state.ClientState) error {
		cs.Insert(set, e)
		return nil
	})
}

// Relate adds one association pair.
func (db *DB) Relate(assoc string, p state.AssocPair) error {
	if db.mapping.Client.Association(assoc) == nil {
		return fmt.Errorf("orm: unknown association %q", assoc)
	}
	return db.Update(func(cs *state.ClientState) error {
		cs.Relate(assoc, p)
		return nil
	})
}
