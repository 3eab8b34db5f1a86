// Package xver compiles cross-version views between two compiled mapping
// generations, so clients of schema version k can keep reading and writing
// while the store has already moved to version k+1 (a blue-green rollout).
// The design follows the multi-schema-version evolution language of Kamina
// et al. and "Programmable View Update Strategies on Relations" (Tran et
// al.): several versions stay simultaneously readable/writable, and the
// update-view behaviour for data the old version cannot supply is a
// pluggable policy — per association and per inheritance hierarchy — not a
// hard-coded rule.
//
// A Plan is compiled once per (from, to) generation pair and contains:
//
//   - cross-read views: for every version-k entity set, the version-k+1
//     query view with its constructor restricted to version-k types and
//     attributes, so a version-k client reads the new store and sees
//     exactly the version-k projection (rows constructing types the old
//     version does not know are skipped, not errors);
//   - cross-write transforms: a per-table column program translating
//     version-k update-view output into the version-k+1 layout — shared
//     columns copy through, columns the old version cannot supply ("gap
//     columns") are filled by the strategy owning that column's hierarchy
//     or association;
//   - the backfill program: the same per-table transforms applied to the
//     existing store rows, which is what makes the transform a compiled
//     artifact rather than an interpreter — one plan drives canary checks,
//     live cross-version writes and the batched backfill identically.
package xver

import (
	"context"
	"fmt"
	"sort"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
)

// Gen is one compiled generation: a mapping and the views compiled for it.
type Gen struct {
	M *frag.Mapping
	V *frag.Views
}

// Strategy decides how a cross-version write fills a store column the old
// version cannot supply. Fill returns the value to store (ok=false leaves
// the column NULL); a non-nil error rejects every cross-version write that
// would produce rows for the column's table (the paper's "writes must
// drain first" policy).
type Strategy interface {
	Name() string
	Fill(table, col string, dom cond.Domain) (val cond.Value, ok bool, err error)
}

// NullFill leaves gap columns NULL: the least surprising policy, correct
// whenever the new columns are nullable. It is the default strategy.
type NullFill struct{}

// Name implements Strategy.
func (NullFill) Name() string { return "null" }

// Fill implements Strategy.
func (NullFill) Fill(string, string, cond.Domain) (cond.Value, bool, error) {
	return cond.Value{}, false, nil
}

// DefaultFill stores the domain's zero value — first enum member for
// enumerated columns, otherwise ""/0/0.0/false — for stores that refuse
// NULLs in the new columns.
type DefaultFill struct{}

// Name implements Strategy.
func (DefaultFill) Name() string { return "default" }

// Fill implements Strategy.
func (DefaultFill) Fill(_, _ string, dom cond.Domain) (cond.Value, bool, error) {
	if len(dom.Enum) > 0 {
		return dom.Enum[0], true, nil
	}
	switch dom.Kind {
	case cond.KindInt:
		return cond.Int(0), true, nil
	case cond.KindFloat:
		return cond.Float(0), true, nil
	case cond.KindBool:
		return cond.Bool(false), true, nil
	default:
		return cond.String(""), true, nil
	}
}

// RejectWrites refuses cross-version writes into the owning hierarchy or
// association: any transform that would produce rows for a table with a
// rejected gap column fails, forcing the rollout to drain version-k
// writers before cutover.
type RejectWrites struct{}

// Name implements Strategy.
func (RejectWrites) Name() string { return "reject" }

// Fill implements Strategy.
func (RejectWrites) Fill(table, col string, _ cond.Domain) (cond.Value, bool, error) {
	return cond.Value{}, false, fmt.Errorf("xver: cross-version writes into %s.%s are rejected by policy", table, col)
}

// StrategyByName resolves a wire/config strategy name.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "", "null":
		return NullFill{}, nil
	case "default":
		return DefaultFill{}, nil
	case "reject":
		return RejectWrites{}, nil
	default:
		return nil, fmt.Errorf("xver: unknown update strategy %q", name)
	}
}

// Strategies dispatches update-view generation per association and per
// inheritance hierarchy (keyed by the hierarchy's root entity type), with
// a default for everything unclaimed. The zero value means NullFill
// everywhere.
type Strategies struct {
	Default     Strategy
	ByHierarchy map[string]Strategy
	ByAssoc     map[string]Strategy
}

func (s Strategies) forHierarchy(root string) Strategy {
	if st, ok := s.ByHierarchy[root]; ok {
		return st
	}
	return s.fallback()
}

func (s Strategies) forAssoc(assoc string) Strategy {
	if st, ok := s.ByAssoc[assoc]; ok {
		return st
	}
	return s.fallback()
}

func (s Strategies) fallback() Strategy {
	if s.Default != nil {
		return s.Default
	}
	return NullFill{}
}

// colFill is one compiled gap-column action.
type colFill struct {
	col      string
	val      cond.Value
	set      bool   // store val; false leaves NULL
	reject   bool   // any row for this table is a policy violation
	owner    string // "hierarchy X" or "assoc Y", for diagnostics
	strategy string
}

// tableXf is the compiled transform from the old layout of one table to
// the new layout.
type tableXf struct {
	copyCols []string
	fills    []colFill
}

// Plan is the compiled cross-version artifact for one (from, to) pair.
type Plan struct {
	From, To Gen

	// readViews maps old entity-set names to the version-restricted
	// constructor view over the new store; readTypes records the set's
	// declared type for diagnostics.
	readViews  map[string]*cqt.View
	assocViews map[string]*cqt.View

	// xf maps new-store table names to their layout transforms.
	xf map[string]*tableXf

	// LostSets / LostAssocs name version-k sets that version k+1 can no
	// longer serve (their type or association was dropped); reading them
	// cross-version yields nothing, which the rollout gates treat as data
	// loss whenever the old store still holds rows for them.
	LostSets   []string
	LostAssocs []string
	// DroppedTables are old tables absent from the new store schema:
	// their rows do not survive migration.
	DroppedTables []string
	// Notes carry human-readable compile diagnostics (gap columns and the
	// strategies that own them, lost sets, dropped tables).
	Notes []string
}

// Compile builds the cross-version plan from generation `from` to
// generation `to` under the given strategy set.
func Compile(from, to Gen, strat Strategies) (*Plan, error) {
	if from.M == nil || from.V == nil || to.M == nil || to.V == nil {
		return nil, fmt.Errorf("xver: both generations must carry a mapping and views")
	}
	p := &Plan{
		From:       from,
		To:         to,
		readViews:  map[string]*cqt.View{},
		assocViews: map[string]*cqt.View{},
		xf:         map[string]*tableXf{},
	}
	p.compileReadViews()
	if err := p.compileTransforms(strat); err != nil {
		return nil, err
	}
	return p, nil
}

// compileReadViews restricts the new generation's query constructors to
// the old version's types and attributes.
func (p *Plan) compileReadViews() {
	oldC, newC := p.From.M.Client, p.To.M.Client
	for _, set := range oldC.Sets() {
		nv, ok := p.To.V.Query[set.Type]
		if !ok || newC.Type(set.Type) == nil {
			p.LostSets = append(p.LostSets, set.Name)
			p.Notes = append(p.Notes, fmt.Sprintf("set %s (type %s) is not readable in the new version", set.Name, set.Type))
			continue
		}
		out := &cqt.View{Q: nv.Q}
		for _, c := range nv.Cases {
			if oldC.Type(c.Type) == nil {
				continue // entities of new-only types are invisible to old clients
			}
			keep := map[string]bool{}
			for _, a := range oldC.AllAttrs(c.Type) {
				keep[a.Name] = true
			}
			attrs := map[string]string{}
			for attr, col := range c.Attrs {
				if keep[attr] {
					attrs[attr] = col
				}
			}
			out.Cases = append(out.Cases, cqt.Case{When: c.When, Type: c.Type, Attrs: attrs})
		}
		p.readViews[set.Name] = out
	}
	for _, a := range oldC.Associations() {
		nv, ok := p.To.V.Assoc[a.Name]
		if !ok {
			p.LostAssocs = append(p.LostAssocs, a.Name)
			p.Notes = append(p.Notes, fmt.Sprintf("association %s is not readable in the new version", a.Name))
			continue
		}
		p.assocViews[a.Name] = nv
	}
}

// compileTransforms derives the per-table layout programs and resolves
// every gap column's strategy.
func (p *Plan) compileTransforms(strat Strategies) error {
	oldS, newS := p.From.M.Store, p.To.M.Store
	for _, nt := range newS.Tables() {
		ot := oldS.Table(nt.Name)
		xf := &tableXf{}
		for _, c := range nt.Cols {
			if ot != nil && ot.HasCol(c.Name) {
				xf.copyCols = append(xf.copyCols, c.Name)
				continue
			}
			owner, st := p.ownerStrategy(nt.Name, c.Name, strat)
			val, set, err := st.Fill(nt.Name, c.Name, c.Domain())
			fill := colFill{col: c.Name, val: val, set: set, owner: owner, strategy: st.Name()}
			if err != nil {
				fill.reject = true
			}
			xf.fills = append(xf.fills, fill)
			p.Notes = append(p.Notes, fmt.Sprintf("gap column %s.%s filled by %q (%s)", nt.Name, c.Name, st.Name(), owner))
		}
		p.xf[nt.Name] = xf
	}
	for _, ot := range oldS.Tables() {
		if newS.Table(ot.Name) == nil {
			p.DroppedTables = append(p.DroppedTables, ot.Name)
			p.Notes = append(p.Notes, fmt.Sprintf("table %s is dropped in the new version; its rows do not survive migration", ot.Name))
		}
	}
	sort.Strings(p.DroppedTables)
	return nil
}

// ownerStrategy finds the hierarchy or association owning a gap column in
// the new mapping and resolves its strategy.
func (p *Plan) ownerStrategy(table, col string, strat Strategies) (string, Strategy) {
	for _, f := range p.To.M.Frags {
		if f.Table != table || !f.MapsCol(col) {
			continue
		}
		if f.Assoc != "" {
			return "assoc " + f.Assoc, strat.forAssoc(f.Assoc)
		}
		if set := p.To.M.Client.Set(f.Set); set != nil {
			root := p.To.M.Client.RootOf(set.Type)
			return "hierarchy " + root, strat.forHierarchy(root)
		}
	}
	return "unmapped", strat.fallback()
}

// GapColumns reports the gap columns of one table with their resolved
// strategies, for status surfaces.
func (p *Plan) GapColumns(table string) []string {
	xf := p.xf[table]
	if xf == nil {
		return nil
	}
	out := make([]string, 0, len(xf.fills))
	for _, f := range xf.fills {
		out = append(out, fmt.Sprintf("%s(%s)", f.col, f.strategy))
	}
	return out
}

// TransformTable translates one table's rows from the old layout to the
// new one. Rows of tables the new schema dropped yield (nil, 0 kept) and
// count as dropped. The returned dropped count reports rows lost to
// dropped tables (always 0 for surviving tables).
func (p *Plan) TransformTable(table string, rows []state.Row) (out []state.Row, dropped int, err error) {
	xf, ok := p.xf[table]
	if !ok {
		return nil, len(rows), nil
	}
	if len(rows) == 0 {
		return nil, 0, nil
	}
	for _, f := range xf.fills {
		if f.reject {
			return nil, 0, fmt.Errorf("xver: update strategy %q (%s) rejects cross-version rows for table %s",
				f.strategy, f.owner, table)
		}
	}
	out = make([]state.Row, 0, len(rows))
	for _, r := range rows {
		nr := state.Row{}
		for _, c := range xf.copyCols {
			if v, ok := r[c]; ok {
				nr[c] = v
			}
		}
		for _, f := range xf.fills {
			if f.set {
				nr[f.col] = f.val
			}
		}
		out = append(out, nr)
	}
	return out, 0, nil
}

// Transform migrates a whole store state from the old layout to the new
// one, reporting rows lost to dropped tables.
func (p *Plan) Transform(ss *state.StoreState) (*state.StoreState, int, error) {
	out := state.NewStoreState()
	tables := make([]string, 0, len(ss.Tables))
	for t := range ss.Tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	lost := 0
	for _, t := range tables {
		rows, dropped, err := p.TransformTable(t, ss.Tables[t])
		if err != nil {
			return nil, lost, err
		}
		lost += dropped
		for _, r := range rows {
			out.InsertRow(t, r)
		}
	}
	return out, lost, nil
}

// WriteClient materializes a version-k client state into the version-k+1
// store layout: through the old update views (whose output the old client
// contractually produces), then through the compiled layout transform.
func (p *Plan) WriteClient(cs *state.ClientState) (*state.StoreState, error) {
	ss, err := orm.Materialize(p.From.M, p.From.V, cs)
	if err != nil {
		return nil, fmt.Errorf("xver: cross-write: %w", err)
	}
	out, lost, err := p.Transform(ss)
	if err != nil {
		return nil, err
	}
	if lost > 0 {
		return nil, fmt.Errorf("xver: cross-write would lose %d row(s) to dropped tables", lost)
	}
	return out, nil
}

// CheckRoundtrip verifies the cross-version contract on one version-k
// client state: writing it through the cross-write path into the new
// layout and reading it back through the cross-read views must reproduce
// it exactly. The returned diff is "" when the contract holds.
func (p *Plan) CheckRoundtrip(cs *state.ClientState) (string, error) {
	ss, err := p.WriteClient(cs)
	if err != nil {
		return "", err
	}
	back, err := p.ReadClient(context.TODO(), exec.NewMapStore(ss), exec.Options{})
	if err != nil {
		return "", err
	}
	return state.Diff(cs, back), nil
}

// CheckMigration verifies migration fidelity on concrete data: the
// version-k projection of the migrated store must equal what version k
// read from the old store. The returned diff is "" when no data was lost
// or distorted.
func (p *Plan) CheckMigration(oldStore *state.StoreState) (string, error) {
	before, err := orm.Load(p.From.M, p.From.V, oldStore)
	if err != nil {
		return "", fmt.Errorf("xver: loading old store: %w", err)
	}
	migrated, _, err := p.Transform(oldStore)
	if err != nil {
		return "", err
	}
	after, err := p.ReadClient(context.TODO(), exec.NewMapStore(migrated), exec.Options{})
	if err != nil {
		return "", err
	}
	return state.Diff(before, after), nil
}
