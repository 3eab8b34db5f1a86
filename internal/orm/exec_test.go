package orm_test

import (
	"context"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// The orm entry points all run the streaming executor; these tests hold
// them to the reference evaluator in internal/difftest.

func compileFor(t *testing.T, m *frag.Mapping) *frag.Views {
	t.Helper()
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return v
}

// TestMaterializeStreamEqualsMaterialize holds both write paths — into a
// RingStore and into a map-backed state — to the reference materializer.
func TestMaterializeStreamEqualsMaterialize(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []struct {
		name string
		m    *frag.Mapping
	}{
		{"chain-4", workload.Chain(4)},
		{"paper-full", workload.PaperFull()},
		{"hubrim-tph", workload.HubRim(workload.HubRimOptions{N: 2, M: 2, TPH: true})},
	} {
		t.Run(wl.name, func(t *testing.T) {
			v := compileFor(t, wl.m)
			cs := orm.RandomState(wl.m, 31, 4)
			want, err := difftest.Materialize(wl.m, v, cs)
			if err != nil {
				t.Fatalf("reference materialize: %v", err)
			}
			ring, err := orm.MaterializeInto(ctx, wl.m, v, cs, exec.Options{BatchSize: 3})
			if err != nil {
				t.Fatalf("materialize into ring: %v", err)
			}
			got, err := ring.Snapshot()
			if err != nil {
				t.Fatalf("ring snapshot: %v", err)
			}
			if d := state.DiffStore(want, got); d != "" {
				t.Fatalf("ring materialization differs:\n%s", d)
			}
			got, err = orm.Materialize(wl.m, v, cs)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			if d := state.DiffStore(want, got); d != "" {
				t.Fatalf("map materialization differs:\n%s", d)
			}
		})
	}
}

// TestLoadStreamEqualsLoad holds both read paths — LoadStream over a ring
// and Load over the map-backed state — to the reference loader.
func TestLoadStreamEqualsLoad(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []struct {
		name string
		m    *frag.Mapping
	}{
		{"chain-4", workload.Chain(4)},
		{"paper-full", workload.PaperFull()},
		{"customer", workload.Customer(workload.DefaultCustomerOptions())},
	} {
		t.Run(wl.name, func(t *testing.T) {
			v := compileFor(t, wl.m)
			cs := orm.RandomState(wl.m, 37, 4)
			ss, err := difftest.Materialize(wl.m, v, cs)
			if err != nil {
				t.Fatalf("reference materialize: %v", err)
			}
			want, err := difftest.Load(wl.m, v, ss)
			if err != nil {
				t.Fatalf("reference load: %v", err)
			}
			got, err := orm.LoadStream(ctx, wl.m, v, exec.RingFromState(ss, 2), exec.Options{BatchSize: 2})
			if err != nil {
				t.Fatalf("load stream: %v", err)
			}
			if d := state.Diff(want, got); d != "" {
				t.Fatalf("streaming load differs:\n%s", d)
			}
			if got, err = orm.Load(wl.m, v, ss); err != nil {
				t.Fatalf("load: %v", err)
			}
			if d := state.Diff(want, got); d != "" {
				t.Fatalf("load differs:\n%s", d)
			}
		})
	}
}

// TestQueryTypeStreamEqualsOracle compares the per-type read with the
// reference entity-by-entity.
func TestQueryTypeStreamEqualsOracle(t *testing.T) {
	ctx := context.Background()
	m := workload.PaperFull()
	v := compileFor(t, m)
	ss, err := difftest.Materialize(m, v, workload.PaperClientState())
	if err != nil {
		t.Fatalf("reference materialize: %v", err)
	}
	ring := exec.RingFromState(ss, 2)
	for ty := range v.Query {
		want, err := difftest.QueryType(m, v, ss, ty)
		if err != nil {
			t.Fatalf("reference QueryType(%s): %v", ty, err)
		}
		got := queryType(t, m, v, ring, ty)
		wantC := map[string]int{}
		for _, e := range want {
			wantC[e.Canonical()]++
		}
		for _, e := range got {
			wantC[e.Canonical()]--
		}
		for c, n := range wantC {
			if n != 0 {
				t.Fatalf("%s: entity multiset differs at %s (%+d)", ty, c, n)
			}
		}
	}
	if _, err := orm.QueryTypeStream(ctx, m, v, ring, "NoSuchType", exec.Options{}); err == nil {
		t.Fatal("QueryTypeStream accepted an unknown type")
	}
}

func queryType(t *testing.T, m *frag.Mapping, v *frag.Views, ts exec.TableStore, ty string) []*state.Entity {
	t.Helper()
	it, err := orm.QueryTypeStream(context.Background(), m, v, ts, ty, exec.Options{BatchSize: 1})
	if err != nil {
		t.Fatalf("QueryTypeStream(%s): %v", ty, err)
	}
	ents, err := exec.CollectEntities(it)
	if err != nil {
		t.Fatalf("QueryTypeStream(%s): %v", ty, err)
	}
	return ents
}

// TestRowOwnership pins that no row map is shared across the orm
// boundary: the executor passes scanned rows through unchanged, so a
// view whose output row is a scanned row would alias the caller's state.
// Mutating the client state written, or one read back, must leave the
// store alone, and mutating the store must leave what was read alone.
func TestRowOwnership(t *testing.T) {
	joinTable := func(t *testing.T) (*frag.Mapping, *frag.Views, *state.ClientState) {
		m := workload.Chain(3)
		op, err := modef.PlanAddAssociation(m, "Knows", "Entity1", "Entity3", edm.Many, edm.Many)
		if err != nil {
			t.Fatalf("planning the join-table association: %v", err)
		}
		m, v, err := core.NewIncremental().Apply(m, compileFor(t, m), op)
		if err != nil {
			t.Fatalf("adding the join-table association: %v", err)
		}
		cs := orm.RandomState(m, 7, 4)
		if len(cs.Assocs["Knows"]) == 0 {
			t.Fatal("random state has no join-table pairs")
		}
		return m, v, cs
	}
	for name, build := range map[string]func(*testing.T) (*frag.Mapping, *frag.Views, *state.ClientState){
		"join-table": joinTable,
		"paper": func(t *testing.T) (*frag.Mapping, *frag.Views, *state.ClientState) {
			m := workload.PaperFull()
			return m, compileFor(t, m), workload.PaperClientState()
		},
	} {
		t.Run(name, func(t *testing.T) {
			m, v, cs := build(t)
			ss, err := orm.Materialize(m, v, cs)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			want := ss.Clone()
			scribbleClient(cs)
			if d := state.DiffStore(want, ss); d != "" {
				t.Fatalf("store changed after mutating the materialized client state:\n%s", d)
			}

			for ty := range v.Query {
				for _, e := range queryType(t, m, v, exec.NewMapStore(ss), ty) {
					scribbleRow(e.Attrs)
				}
			}
			loaded, err := orm.Load(m, v, ss)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			scribbleClient(loaded)
			if d := state.DiffStore(want, ss); d != "" {
				t.Fatalf("store changed after mutating loaded entities and pairs:\n%s", d)
			}

			loaded, err = orm.Load(m, v, ss)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			wantLoaded := loaded.Clone()
			for _, rows := range ss.Tables {
				for _, r := range rows {
					scribbleRow(r)
				}
			}
			if d := state.Diff(wantLoaded, loaded); d != "" {
				t.Fatalf("loaded state changed after mutating the store:\n%s", d)
			}
		})
	}
}

func scribbleClient(cs *state.ClientState) {
	for _, es := range cs.Entities {
		for _, e := range es {
			scribbleRow(e.Attrs)
		}
	}
	for _, ps := range cs.Assocs {
		for _, p := range ps {
			scribbleRow(p.Ends)
		}
	}
}

func scribbleRow(r state.Row) {
	for k := range r {
		r[k] = cond.String("scribbled")
	}
}
