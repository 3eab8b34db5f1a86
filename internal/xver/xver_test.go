package xver_test

import (
	"context"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
	"github.com/ormkit/incmap/internal/xver"
)

func compileGen(t *testing.T, m *frag.Mapping) xver.Gen {
	t.Helper()
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("compiling base mapping: %v", err)
	}
	return xver.Gen{M: m, V: v}
}

// evolveGen applies SMOs through the same ladder the pipeline uses:
// incremental first, structural apply + full recompile as fallback.
func evolveGen(t *testing.T, g xver.Gen, ops ...core.SMO) xver.Gen {
	t.Helper()
	ctx := context.Background()
	m, v := g.M, g.V
	for _, op := range ops {
		ic := core.NewIncremental()
		nm, nv, err := ic.ApplyCtx(ctx, m, v, op)
		if err != nil {
			sic := core.NewIncremental()
			sic.Opts.SkipValidation = true
			nm, _, err = sic.ApplyCtx(ctx, m, v, op)
			if err != nil {
				t.Fatalf("structural apply of %s: %v", op.Describe(), err)
			}
			full := &compiler.Compiler{}
			nv, err = full.CompileCtx(ctx, nm)
			if err != nil {
				t.Fatalf("full recompile after %s: %v", op.Describe(), err)
			}
		}
		m, v = nm, nv
	}
	return xver.Gen{M: m, V: v}
}

// chainGens builds two independent chain(3) bases (the modef planners
// extend the store schema of the mapping they plan against, so the old
// generation must never share one with the planned evolution) and applies
// the evolution to the second.
func chainGens(t *testing.T, evolve func(t *testing.T, g xver.Gen) xver.Gen) (old, new xver.Gen) {
	t.Helper()
	m1, err := workload.ChainE(3)
	if err != nil {
		t.Fatalf("building old chain: %v", err)
	}
	m2, err := workload.ChainE(3)
	if err != nil {
		t.Fatalf("building new chain: %v", err)
	}
	return compileGen(t, m1), evolve(t, compileGen(t, m2))
}

var extraAttrs = []edm.Attribute{{Name: "ExtraAtt", Type: cond.KindString, Nullable: true}}

func addEntity(style modef.Style) func(t *testing.T, g xver.Gen) xver.Gen {
	return func(t *testing.T, g xver.Gen) xver.Gen {
		t.Helper()
		op, err := modef.PlanAddEntityWithStyle(g.M, "Extra", "Entity2", extraAttrs, style)
		if err != nil {
			t.Fatalf("planning AddEntity: %v", err)
		}
		return evolveGen(t, g, op)
	}
}

func addAssoc(m1, m2 edm.Mult) func(t *testing.T, g xver.Gen) xver.Gen {
	return func(t *testing.T, g xver.Gen) xver.Gen {
		t.Helper()
		op, err := modef.PlanAddAssociation(g.M, "NewRel", "Entity1", "Entity3", m1, m2)
		if err != nil {
			t.Fatalf("planning AddAssociation: %v", err)
		}
		return evolveGen(t, g, op)
	}
}

// TestCrossVersionRoundtrip checks the core contract on every additive
// evolution shape: an old-version client state cross-written into the new
// store layout and cross-read back must be unchanged, and migrating an
// old store must preserve the old version's reads exactly.
func TestCrossVersionRoundtrip(t *testing.T) {
	cases := []struct {
		name   string
		evolve func(t *testing.T, g xver.Gen) xver.Gen
	}{
		{"add-entity-tph", addEntity(modef.TPH)},
		{"add-entity-tpt", addEntity(modef.TPT)},
		{"add-assoc-fk", addAssoc(edm.Many, edm.ZeroOne)},
		{"add-assoc-jt", addAssoc(edm.Many, edm.Many)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, cur := chainGens(t, tc.evolve)
			plan, err := xver.Compile(old, cur, xver.Strategies{})
			if err != nil {
				t.Fatalf("compiling cross-version plan: %v", err)
			}
			for seed := uint32(1); seed <= 3; seed++ {
				cs := orm.RandomState(old.M, seed, 3)
				diff, err := plan.CheckRoundtrip(cs)
				if err != nil {
					t.Fatalf("seed %d: cross-version roundtrip: %v", seed, err)
				}
				if diff != "" {
					t.Fatalf("seed %d: cross-version roundtrip diverged:\n%s", seed, diff)
				}
				oldStore, err := orm.Materialize(old.M, old.V, cs)
				if err != nil {
					t.Fatalf("seed %d: materializing old store: %v", seed, err)
				}
				diff, err = plan.CheckMigration(oldStore)
				if err != nil {
					t.Fatalf("seed %d: migration check: %v", seed, err)
				}
				if diff != "" {
					t.Fatalf("seed %d: migration lost or distorted data:\n%s", seed, diff)
				}
			}
		})
	}
}

// TestNewVersionRowsInvisible: rows belonging to types the old version
// does not know must be silently skipped by cross-reads, never an error —
// the old client sees the old projection of the shared store.
func TestNewVersionRowsInvisible(t *testing.T) {
	old, cur := chainGens(t, addEntity(modef.TPH))
	plan, err := xver.Compile(old, cur, xver.Strategies{})
	if err != nil {
		t.Fatalf("compiling plan: %v", err)
	}

	// A mixed new-version state: old-type entities plus one Extra entity
	// (a subtype of Entity2, living in Entity2's set and table).
	cs := state.NewClientState()
	cs.Insert("Entity2Set", &state.Entity{Type: "Entity2", Attrs: state.Row{
		"Id": cond.Int(1), "EntityAtt2": cond.String("a"), "EntityAtt3": cond.String("b"), "EntityAtt4": cond.String("c"),
	}})
	cs.Insert("Entity2Set", &state.Entity{Type: "Extra", Attrs: state.Row{
		"Id": cond.Int(2), "EntityAtt2": cond.String("d"), "EntityAtt3": cond.String("e"), "EntityAtt4": cond.String("f"),
		"ExtraAtt": cond.String("new-version-only"),
	}})
	ss, err := orm.Materialize(cur.M, cur.V, cs)
	if err != nil {
		t.Fatalf("materializing new-version state: %v", err)
	}

	got, err := plan.ReadClient(context.Background(), exec.NewMapStore(ss), exec.Options{})
	if err != nil {
		t.Fatalf("cross-read over mixed store: %v", err)
	}
	var sawOld bool
	for set, ents := range got.Entities {
		for _, e := range ents {
			if e.Type == "Extra" {
				t.Fatalf("cross-read surfaced a new-version entity in set %s: %s", set, e.Canonical())
			}
			if e.Type == "Entity2" {
				sawOld = true
				if _, ok := e.Attrs["ExtraAtt"]; ok {
					t.Fatalf("cross-read leaked a new-version attribute: %s", e.Canonical())
				}
			}
		}
	}
	if !sawOld {
		t.Fatal("cross-read dropped the old-version Entity2 entity")
	}
}

// TestGapColumnStrategies: columns the old version cannot supply are
// filled per the owning hierarchy's strategy.
func TestGapColumnStrategies(t *testing.T) {
	old, cur := chainGens(t, addEntity(modef.TPH))

	// Find the gap column TPH added to Entity2's table.
	const table = "TEntity2"
	nullPlan, err := xver.Compile(old, cur, xver.Strategies{})
	if err != nil {
		t.Fatalf("compiling null plan: %v", err)
	}
	gaps := nullPlan.GapColumns(table)
	if len(gaps) == 0 {
		t.Fatalf("expected TPH to add gap columns to %s", table)
	}
	for _, g := range gaps {
		if !strings.Contains(g, "(null)") {
			t.Fatalf("default strategy should be null fill, got %s", g)
		}
	}

	row := state.Row{"Id": cond.Int(7), "Disc": cond.String("Entity2")}

	// NullFill leaves the gap column absent.
	out, dropped, err := nullPlan.TransformTable(table, []state.Row{row})
	if err != nil || dropped != 0 || len(out) != 1 {
		t.Fatalf("null transform: out=%v dropped=%d err=%v", out, dropped, err)
	}
	if _, ok := out[0]["ExtraAtt"]; ok {
		t.Fatalf("null fill stored a value: %s", out[0].Canonical())
	}

	// DefaultFill on the owning hierarchy stores the domain zero value.
	defPlan, err := xver.Compile(old, cur, xver.Strategies{
		ByHierarchy: map[string]xver.Strategy{"Entity2": xver.DefaultFill{}},
	})
	if err != nil {
		t.Fatalf("compiling default plan: %v", err)
	}
	out, _, err = defPlan.TransformTable(table, []state.Row{row})
	if err != nil || len(out) != 1 {
		t.Fatalf("default transform: %v %v", out, err)
	}
	if v, ok := out[0]["ExtraAtt"]; !ok || v.Str() != "" {
		t.Fatalf("default fill should store the zero string, got %s", out[0].Canonical())
	}

	// RejectWrites refuses rows for the owning table but leaves other
	// tables writable.
	rejPlan, err := xver.Compile(old, cur, xver.Strategies{
		ByHierarchy: map[string]xver.Strategy{"Entity2": xver.RejectWrites{}},
	})
	if err != nil {
		t.Fatalf("compiling reject plan: %v", err)
	}
	if _, _, err := rejPlan.TransformTable(table, []state.Row{row}); err == nil {
		t.Fatal("reject strategy allowed a cross-version row")
	}
	if _, _, err := rejPlan.TransformTable("TEntity1", []state.Row{{"Id": cond.Int(1)}}); err != nil {
		t.Fatalf("reject strategy leaked onto an unaffected table: %v", err)
	}
	if _, _, err := rejPlan.TransformTable(table, nil); err != nil {
		t.Fatalf("reject strategy should allow the empty batch: %v", err)
	}
}

// TestAssocStrategyDispatch: a gap FK column introduced by AddAssociation
// is owned by the association, not the hierarchy of its table.
func TestAssocStrategyDispatch(t *testing.T) {
	old, cur := chainGens(t, addAssoc(edm.Many, edm.ZeroOne))
	plan, err := xver.Compile(old, cur, xver.Strategies{
		ByAssoc: map[string]xver.Strategy{"NewRel": xver.DefaultFill{}},
	})
	if err != nil {
		t.Fatalf("compiling plan: %v", err)
	}
	var owned bool
	for _, n := range plan.Notes {
		if strings.Contains(n, "assoc NewRel") && strings.Contains(n, `"default"`) {
			owned = true
		}
	}
	if !owned {
		t.Fatalf("expected a gap column owned by assoc NewRel with the default strategy; notes:\n%s",
			strings.Join(plan.Notes, "\n"))
	}
}

// TestDroppedTypeIsLoss: dropping a subtype or association makes its data
// unreadable in the new version; the plan reports lost associations and
// migration of data that still holds such entities diverges (the signal
// the rollout gates use).
func TestDroppedTypeIsLoss(t *testing.T) {
	m1, err := workload.ChainE(3)
	if err != nil {
		t.Fatalf("building old chain: %v", err)
	}
	m2, err := workload.ChainE(3)
	if err != nil {
		t.Fatalf("building new chain: %v", err)
	}
	old := addEntity(modef.TPH)(t, compileGen(t, m1))
	cur := evolveGen(t, addEntity(modef.TPH)(t, compileGen(t, m2)),
		&core.DropEntity{Name: "Extra"},
		&core.DropAssociation{Name: "RelOne3"},
	)

	plan, err := xver.Compile(old, cur, xver.Strategies{})
	if err != nil {
		t.Fatalf("compiling plan: %v", err)
	}
	if len(plan.LostAssocs) != 1 || plan.LostAssocs[0] != "RelOne3" {
		t.Fatalf("expected LostAssocs [RelOne3], got %v", plan.LostAssocs)
	}

	cs := state.NewClientState()
	cs.Insert("Entity2Set", &state.Entity{Type: "Entity2", Attrs: state.Row{
		"Id": cond.Int(1), "EntityAtt2": cond.String("a"), "EntityAtt3": cond.String("b"), "EntityAtt4": cond.String("c"),
	}})
	cs.Insert("Entity2Set", &state.Entity{Type: "Extra", Attrs: state.Row{
		"Id": cond.Int(2), "EntityAtt2": cond.String("d"), "EntityAtt3": cond.String("e"), "EntityAtt4": cond.String("f"),
		"ExtraAtt": cond.String("about-to-be-orphaned"),
	}})
	oldStore, err := orm.Materialize(old.M, old.V, cs)
	if err != nil {
		t.Fatalf("materializing old store: %v", err)
	}
	diff, err := plan.CheckMigration(oldStore)
	if err != nil {
		t.Fatalf("migration check: %v", err)
	}
	if diff == "" {
		t.Fatal("migration of a store holding dropped-type entities must report divergence")
	}
}

func TestStrategyByName(t *testing.T) {
	for name, want := range map[string]string{"": "null", "null": "null", "default": "default", "reject": "reject"} {
		st, err := xver.StrategyByName(name)
		if err != nil || st.Name() != want {
			t.Fatalf("StrategyByName(%q) = %v, %v; want %s", name, st, err, want)
		}
	}
	if _, err := xver.StrategyByName("bogus"); err == nil {
		t.Fatal("unknown strategy name should error")
	}
}
