// Package difftest holds the reference semantics production code is
// checked against, and the differential suites that check it.
//
// The reference evaluator in this file is a naive tree-walker over
// materialized states. No production code calls it — every production
// view evaluation runs through the streaming executor (internal/exec) — so
// FuzzExecVsMaterialize compares two independent implementations of one
// semantics, in the spirit of Incremental Relational Lenses: the streaming
// artifact is held to the naive recompute. FuzzSMOSequence likewise holds
// the incremental compiler to structural application plus a full compile:
// whenever the incremental path accepts an SMO sequence, the full path
// must too, and both view sets must materialize and roundtrip a random
// client state identically. CheckSchemaIndex (schema.go) holds the client
// schema's index to the scan definitions it replaced, after every step of
// those sequences and of edm's own mutator fuzz target.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
)

// Env supplies the data a query tree runs over. Query views read Store;
// update views read Client.
type Env struct {
	Catalog *cqt.Catalog
	Client  *state.ClientState
	Store   *state.StoreState
}

// tuple is an intermediate row: column values plus the entity types of the
// subjects contributing to it (for IS OF conditions).
type tuple struct {
	types map[string]string
	data  state.Row
}

// InstanceType implements cond.Instance.
func (t tuple) InstanceType(subject string) string { return t.types[subject] }

// Lookup implements cond.Instance.
func (t tuple) Lookup(attr string) (cond.Value, bool) {
	v, ok := t.data[attr]
	return v, ok
}

// Eval evaluates the query tree over the environment.
func Eval(env *Env, e cqt.Expr) (*cqt.Result, error) {
	cols, err := env.Catalog.Cols(e)
	if err != nil {
		return nil, err
	}
	ts, err := eval(env, e)
	if err != nil {
		return nil, err
	}
	rows := make([]state.Row, len(ts))
	for i, t := range ts {
		rows[i] = t.data
	}
	return &cqt.Result{Cols: cols, Rows: rows}, nil
}

func eval(env *Env, e cqt.Expr) ([]tuple, error) {
	switch v := e.(type) {
	case cqt.ScanTable:
		if env.Store == nil {
			return nil, fmt.Errorf("cqt: table scan %q without a store state", v.Table)
		}
		if env.Catalog.Store.Table(v.Table) == nil {
			return nil, fmt.Errorf("cqt: unknown table %q", v.Table)
		}
		rows := env.Store.Tables[v.Table]
		out := make([]tuple, len(rows))
		for i, r := range rows {
			out[i] = tuple{data: r.Clone()}
		}
		return out, nil

	case cqt.ScanSet:
		if env.Client == nil {
			return nil, fmt.Errorf("cqt: entity-set scan %q without a client state", v.Set)
		}
		if env.Catalog.Client.Set(v.Set) == nil {
			return nil, fmt.Errorf("cqt: unknown entity set %q", v.Set)
		}
		es := env.Client.Entities[v.Set]
		out := make([]tuple, len(es))
		for i, ent := range es {
			out[i] = tuple{types: map[string]string{"": ent.Type}, data: ent.Attrs.Clone()}
		}
		return out, nil

	case cqt.ScanAssoc:
		if env.Client == nil {
			return nil, fmt.Errorf("cqt: association scan %q without a client state", v.Assoc)
		}
		if env.Catalog.Client.Association(v.Assoc) == nil {
			return nil, fmt.Errorf("cqt: unknown association %q", v.Assoc)
		}
		ps := env.Client.Assocs[v.Assoc]
		out := make([]tuple, len(ps))
		for i, p := range ps {
			out[i] = tuple{data: p.Ends.Clone()}
		}
		return out, nil

	case cqt.Select:
		in, err := eval(env, v.In)
		if err != nil {
			return nil, err
		}
		var out []tuple
		th := cqt.QueryTheory(env.Catalog)
		for _, t := range in {
			if cond.EvalOn(th, v.Cond, t) {
				out = append(out, t)
			}
		}
		return out, nil

	case cqt.Project:
		in, err := eval(env, v.In)
		if err != nil {
			return nil, err
		}
		out := make([]tuple, len(in))
		for i, t := range in {
			nr := make(state.Row, len(v.Cols))
			for _, pc := range v.Cols {
				if pc.Lit != nil {
					if val, ok := pc.Lit.Value(); ok {
						nr[pc.As] = val
					}
					continue
				}
				if val, ok := t.data[pc.Src]; ok {
					nr[pc.As] = val
				}
			}
			out[i] = tuple{types: t.types, data: nr}
		}
		return out, nil

	case cqt.Join:
		return evalJoin(env, v)

	case cqt.UnionAll:
		var out []tuple
		var cols0 []string
		for i, in := range v.Inputs {
			cs, err := env.Catalog.Cols(in)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				cols0 = cs
			} else if !sameColSet(cols0, cs) {
				return nil, fmt.Errorf("cqt: union inputs have different columns: %v vs %v", cols0, cs)
			}
			ts, err := eval(env, in)
			if err != nil {
				return nil, err
			}
			out = append(out, ts...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("cqt: unknown expression %T", e)
}

func sameColSet(a, b []string) bool {
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	return strings.Join(as, "\x00") == strings.Join(bs, "\x00")
}

func evalJoin(env *Env, j cqt.Join) ([]tuple, error) {
	lcols, err := env.Catalog.Cols(j.L)
	if err != nil {
		return nil, err
	}
	rcols, err := env.Catalog.Cols(j.R)
	if err != nil {
		return nil, err
	}
	// Shared column names must be equated by the join.
	for _, lc := range lcols {
		for _, rc := range rcols {
			if lc != rc {
				continue
			}
			ok := false
			for _, p := range j.On {
				ok = ok || (p[0] == lc && p[1] == lc)
			}
			if !ok {
				return nil, fmt.Errorf("cqt: join inputs share column %q without equating it", lc)
			}
		}
	}

	lt, err := eval(env, j.L)
	if err != nil {
		return nil, err
	}
	rt, err := eval(env, j.R)
	if err != nil {
		return nil, err
	}

	// A nested-loop join: slower than a hash join, and deliberately unlike
	// the executor's, so the two do not share a bug.
	matches := func(l, r tuple) bool {
		for _, p := range j.On {
			lv, lok := l.data[p[0]]
			rv, rok := r.data[p[1]]
			if !lok || !rok || lv.String() != rv.String() {
				return false // NULL never matches
			}
		}
		return true
	}
	merge := func(l, r tuple) (tuple, error) {
		types := map[string]string{}
		for s, ty := range l.types {
			types[s] = ty
		}
		for s, ty := range r.types {
			if prev, dup := types[s]; dup && prev != ty {
				return tuple{}, fmt.Errorf("cqt: join merges conflicting subject types %q/%q", prev, ty)
			}
			types[s] = ty
		}
		data := l.data.Clone()
		for c, v := range r.data {
			if _, exists := data[c]; !exists {
				data[c] = v
			}
		}
		return tuple{types: types, data: data}, nil
	}

	var out []tuple
	rMatched := make([]bool, len(rt))
	for _, l := range lt {
		matched := false
		for ri, r := range rt {
			if !matches(l, r) {
				continue
			}
			m, err := merge(l, r)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			matched = true
			rMatched[ri] = true
		}
		if !matched && (j.Kind == cqt.LeftOuter || j.Kind == cqt.FullOuter) {
			// Pad the right side with NULLs: absent keys already read as NULL.
			out = append(out, tuple{types: l.types, data: l.data.Clone()})
		}
	}
	if j.Kind == cqt.FullOuter {
		for i, r := range rt {
			if !rMatched[i] {
				out = append(out, tuple{types: r.types, data: r.data.Clone()})
			}
		}
	}
	return out, nil
}

// ConstructEntities evaluates a query view and applies its constructor τ,
// yielding entities; a row no case matches is an error.
func ConstructEntities(env *Env, v *cqt.View) ([]*state.Entity, error) {
	res, err := Eval(env, v.Q)
	if err != nil {
		return nil, err
	}
	out := make([]*state.Entity, 0, len(res.Rows))
	for _, row := range res.Rows {
		e, err := cqt.ConstructEntity(v.Cases, row)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Materialize is the reference V : C → S: every update view evaluated over
// the client state, tables in sorted name order.
func Materialize(m *frag.Mapping, views *frag.Views, cs *state.ClientState) (*state.StoreState, error) {
	env := &Env{Catalog: m.Catalog(), Client: cs}
	ss := state.NewStoreState()
	tables := make([]string, 0, len(views.Update))
	for table := range views.Update {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		res, err := Eval(env, views.Update[table].Q)
		if err != nil {
			return nil, fmt.Errorf("update view for %s: %w", table, err)
		}
		for _, r := range res.Rows {
			ss.InsertRow(table, r)
		}
	}
	return ss, nil
}

// Load is the reference Q : S → C: entity sets through their root type's
// query view, associations through their association views.
func Load(m *frag.Mapping, views *frag.Views, ss *state.StoreState) (*state.ClientState, error) {
	env := &Env{Catalog: m.Catalog(), Store: ss}
	cs := state.NewClientState()
	for _, set := range m.Client.Sets() {
		v, ok := views.Query[set.Type]
		if !ok {
			continue
		}
		ents, err := ConstructEntities(env, v)
		if err != nil {
			return nil, fmt.Errorf("query view for %s: %w", set.Type, err)
		}
		for _, e := range ents {
			cs.Insert(set.Name, e)
		}
	}
	for _, a := range m.Client.Associations() {
		v, ok := views.Assoc[a.Name]
		if !ok {
			continue
		}
		res, err := Eval(env, v.Q)
		if err != nil {
			return nil, fmt.Errorf("association view for %s: %w", a.Name, err)
		}
		for _, r := range res.Rows {
			cs.Relate(a.Name, state.AssocPair{Ends: r})
		}
	}
	return cs, nil
}

// QueryType is the reference per-type read: the entities visible through
// one entity type's query view.
func QueryType(m *frag.Mapping, views *frag.Views, ss *state.StoreState, entityType string) ([]*state.Entity, error) {
	v, ok := views.Query[entityType]
	if !ok {
		return nil, fmt.Errorf("no query view for type %s", entityType)
	}
	return ConstructEntities(&Env{Catalog: m.Catalog(), Store: ss}, v)
}

// SatisfiedBy reports whether a pair of states is in the mapping's
// relation M: every fragment equation holds.
func SatisfiedBy(m *frag.Mapping, client *state.ClientState, store *state.StoreState) (bool, error) {
	env := &Env{Catalog: m.Catalog(), Client: client, Store: store}
	for _, f := range m.Frags {
		l, err := Eval(env, f.ClientQuery())
		if err != nil {
			return false, fmt.Errorf("fragment %s left side: %w", f.ID, err)
		}
		r, err := Eval(env, f.StoreQuery())
		if err != nil {
			return false, fmt.Errorf("fragment %s right side: %w", f.ID, err)
		}
		if !state.EqualRows(l.Rows, r.Rows) {
			return false, nil
		}
	}
	return true, nil
}
