package difftest

import (
	"context"
	"fmt"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// maxOps bounds the SMO sequence length per fuzz input; each op consumes
// two bytes of the op stream.
const maxOps = 4

// opSpec is one decoded SMO request. Decoding is independent of any
// mapping so both differential paths plan from identical specs.
type opSpec struct {
	kind   byte // 0 add-entity, 1 add-association, 2 add-property
	style  modef.Style
	target string // parent type / property target / association end 1
	other  string // association end 2
	jt     bool   // many-to-many association (join table)
	idx    int    // position in the sequence, for unique names
}

func fzEntityName(idx int) string { return fmt.Sprintf("FzEntity%d", idx) }

// buildWorkload constructs the base mapping for a fuzz input, plus the
// list of client types ops may reference. Each call builds a fresh,
// fully independent mapping: the SMO planner mutates the store schema of
// the mapping it plans against, so the two differential paths must never
// share one.
//
// wl ≥ 0x80 selects a small customer model, Figure 10's shape: a TPH
// table that carries association fragments, next to TPT and TPH
// hierarchies. Below it, wl%3 selects a chain, a hub-rim TPH or a hub-rim
// TPT model, so the committed corpus decodes as it did before the customer
// model joined.
func buildWorkload(wl, size byte) (*frag.Mapping, []string, error) {
	if wl >= 0x80 {
		m, err := workload.CustomerE(workload.CustomerOptions{
			Types: 12 + int(size)%5, Hierarchies: 4, LargestTPH: 5 + int(size/8)%3,
			Associations: 2, SharedTableFKs: 2,
		})
		if err != nil {
			return nil, nil, err
		}
		var names []string
		for _, ty := range m.Client.Types() {
			names = append(names, ty.Name)
		}
		return m, names, nil
	}
	switch wl % 3 {
	case 0:
		n := 2 + int(size)%4
		m, err := workload.ChainE(n)
		if err != nil {
			return nil, nil, err
		}
		names := make([]string, n)
		for i := 1; i <= n; i++ {
			names[i-1] = fmt.Sprintf("Entity%d", i)
		}
		return m, names, nil
	default:
		opt := workload.HubRimOptions{
			N:   1 + int(size)%3,
			M:   int(size/4) % 3,
			TPH: wl%3 == 1,
		}
		m, err := workload.HubRimE(opt)
		if err != nil {
			return nil, nil, err
		}
		var names []string
		for i := 0; i < opt.N; i++ {
			names = append(names, fmt.Sprintf("Hub%d", i))
			for j := 0; j < opt.M; j++ {
				names = append(names, fmt.Sprintf("Rim%d_%d", i, j))
			}
		}
		return m, names, nil
	}
}

// decodeOps turns the raw op stream into specs. Entity types added by
// earlier ops become candidate targets for later ones, so sequences can
// build on their own additions.
func decodeOps(opBytes []byte, baseTypes []string) []opSpec {
	types := append([]string(nil), baseTypes...)
	styles := []modef.Style{modef.TPT, modef.TPC, modef.TPH}
	var specs []opSpec
	for i := 0; i+1 < len(opBytes) && len(specs) < maxOps; i += 2 {
		k, p := opBytes[i], opBytes[i+1]
		idx := len(specs)
		pick := func(b byte) string { return types[int(b)%len(types)] }
		switch k % 3 {
		case 0:
			specs = append(specs, opSpec{
				kind: 0, style: styles[int(k/3)%3], target: pick(p), idx: idx,
			})
			types = append(types, fzEntityName(idx))
		case 1:
			specs = append(specs, opSpec{
				kind: 1, target: pick(p), other: pick(p >> 4), jt: k&0x80 != 0, idx: idx,
			})
		default:
			specs = append(specs, opSpec{kind: 2, target: pick(p), idx: idx})
		}
	}
	return specs
}

// planOp synthesises the SMO for one spec against the given mapping,
// extending its store schema with the tables and columns the op needs —
// the planning side of the "directive" in §1.2. It must be called on each
// path's own mapping so both store schemas evolve identically.
func planOp(m *frag.Mapping, sp opSpec) (core.SMO, error) {
	switch sp.kind {
	case 0:
		attrs := []edm.Attribute{{Name: fmt.Sprintf("FzAtt%d", sp.idx), Type: cond.KindString, Nullable: true}}
		return modef.PlanAddEntityWithStyle(m, fzEntityName(sp.idx), sp.target, attrs, sp.style)
	case 1:
		name := fmt.Sprintf("FzAssoc%d", sp.idx)
		if sp.jt {
			return modef.PlanAddAssociation(m, name, sp.target, sp.other, edm.Many, edm.Many)
		}
		return modef.PlanAddAssociation(m, name, sp.target, sp.other, edm.Many, edm.ZeroOne)
	default:
		table := fmt.Sprintf("T_FzProp%d", sp.idx)
		if err := m.Store.AddTable(rel.Table{
			Name: table,
			Cols: []rel.Column{
				{Name: "Id", Type: cond.KindInt},
				{Name: "Val", Type: cond.KindString, Nullable: true},
			},
			Key: []string{"Id"},
		}); err != nil {
			return nil, err
		}
		return &core.AddProperty{
			Type:  sp.target,
			Attr:  edm.Attribute{Name: fmt.Sprintf("FzProp%d", sp.idx), Type: cond.KindString, Nullable: true},
			Table: table, Col: "Val",
		}, nil
	}
}

// fuzzPlanner plans one op spec on the clone the applier works on, as a
// session's planners do, so the generation it is applied to stays frozen.
// desc receives the planned SMO's description.
type fuzzPlanner struct {
	sp   opSpec
	desc *string
}

func (p fuzzPlanner) Describe() string { return fmt.Sprintf("op spec %+v", p.sp) }

func (p fuzzPlanner) Plan(m *frag.Mapping) (core.SMO, error) {
	op, err := planOp(m, p.sp)
	if err == nil {
		*p.desc = op.Describe()
	}
	return op, err
}

// freezeAndCheckMemo freezes a generation, as a session does when it
// commits one, and holds its record-assembled encodings to its deep copy's
// (CheckMemo). The encode builds the generation's records, which the next
// step's clone then reuses.
func freezeAndCheckMemo(t *testing.T, what string, m *frag.Mapping, v *frag.Views) {
	t.Helper()
	m.Freeze()
	v.Freeze()
	if err := CheckMemo(m, v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// runDifferential executes one fuzz input. Each incremental step's
// generation, written as a delta against the base generation, must rebuild
// its own payload byte for byte (CheckDelta). Inputs the incremental path
// cannot plan or apply are skipped — the fuzzer's job is to find
// sequences both paths accept but disagree on, not to exercise error
// paths. Once the incremental path succeeds, any failure or divergence on
// the full path is a real bug.
func runDifferential(t *testing.T, wl, size byte, opBytes []byte, stateSeed uint32) {
	t.Helper()
	if len(opBytes) > 2*maxOps {
		opBytes = opBytes[:2*maxOps]
	}
	ctx := context.Background()

	m, baseTypes, err := buildWorkload(wl, size)
	if err != nil {
		t.Skip("workload parameters rejected")
	}
	specs := decodeOps(opBytes, baseTypes)
	if len(specs) == 0 {
		t.Skip("no ops decoded")
	}

	// Incremental path: validate and adapt views one SMO at a time.
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(ctx, m)
	if err != nil {
		t.Fatalf("base workload (wl=%d size=%d) failed to compile: %v", wl, size, err)
	}
	freezeAndCheckMemo(t, "base generation", m, v)
	first, firstViews := m, v
	descs := make([]string, 0, len(specs))
	for _, sp := range specs {
		var desc string
		ic := core.NewIncremental()
		nm, nv, aerr := ic.ApplyCtx(ctx, m, v, fuzzPlanner{sp, &desc})
		if aerr != nil {
			t.Skipf("incremental apply rejected %+v: %v", sp, aerr)
		}
		descs = append(descs, desc)
		if err := CheckSchemaIndex(nm.Client); err != nil {
			t.Fatalf("after incremental %s: %v", desc, err)
		}
		freezeAndCheckMemo(t, "after incremental "+desc, nm, nv)
		if _, err := CheckDelta(first, firstViews, nm, nv); err != nil {
			t.Fatalf("after incremental %s, over the base generation: %v", desc, err)
		}
		m, v = nm, nv
	}

	// Full path: structural application (no neighbourhood validation),
	// then one full compilation — the fallback rung of the ladder.
	fm, _, err := buildWorkload(wl, size)
	if err != nil {
		t.Fatalf("rebuilding base workload: %v", err)
	}
	fc := &compiler.Compiler{}
	fv, err := fc.CompileCtx(ctx, fm)
	if err != nil {
		t.Fatalf("recompiling base workload: %v", err)
	}
	freezeAndCheckMemo(t, "base generation of the full path", fm, fv)
	for i, sp := range specs {
		var desc string
		sic := core.NewIncremental()
		sic.Opts.SkipValidation = true
		nm, nv, aerr := sic.ApplyCtx(ctx, fm, fv, fuzzPlanner{sp, &desc})
		if aerr != nil {
			t.Fatalf("structural apply of %s failed though incremental apply succeeded: %v", descs[i], aerr)
		}
		if desc != descs[i] {
			t.Fatalf("paths planned different SMOs at step %d: %q vs %q", i, descs[i], desc)
		}
		if err := CheckSchemaIndex(nm.Client); err != nil {
			t.Fatalf("after structural %s: %v", descs[i], err)
		}
		freezeAndCheckMemo(t, "after structural "+descs[i], nm, nv)
		fm, fv = nm, nv
	}
	full := &compiler.Compiler{}
	fullViews, cerr := full.CompileCtx(ctx, fm)
	if cerr != nil {
		t.Fatalf("full compilation rejected a mapping the incremental compiler accepted (ops %v): %v", descs, cerr)
	}
	freezeAndCheckMemo(t, "after the fallback's full compile", fm, fullViews)

	// Semantic comparison: both view sets must materialize the same random
	// client state to the same store state, and both must roundtrip it.
	cs := orm.RandomState(m, stateSeed, 3)
	ssInc, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materializing through incremental views: %v", err)
	}
	ssFull, err := orm.Materialize(fm, fullViews, cs)
	if err != nil {
		t.Fatalf("materializing through full-compile views: %v", err)
	}
	if d := state.DiffStore(ssInc, ssFull); d != "" {
		t.Fatalf("incremental and full compilation materialize differently after ops %v (seed %d):\n%s", descs, stateSeed, d)
	}
	if err := orm.Roundtrip(m, v, cs); err != nil {
		t.Fatalf("incremental views do not roundtrip after ops %v: %v", descs, err)
	}
	if err := orm.Roundtrip(fm, fullViews, cs); err != nil {
		t.Fatalf("full-compile views do not roundtrip after ops %v: %v", descs, err)
	}
}

// customerSeeds are one seed per SMO kind on the customer workload
// (buildWorkload with wl ≥ 0x80).
var customerSeeds = []struct {
	name string
	size byte
	ops  []byte
	seed uint32
}{
	{"ae-tph", 0, []byte{6, 1}, 21},
	{"ae-tpt", 1, []byte{0, 5}, 22},
	{"ae-tpc", 2, []byte{3, 12}, 23},
	{"aa-fk", 3, []byte{1, 0x41}, 24},
	{"aa-jt", 4, []byte{0x82, 0x51}, 25},
	{"ap", 8, []byte{2, 2}, 26},
}

// FuzzSMOSequence is the native fuzz target. Bytes decode to (workload,
// size, SMO sequence, state seed); see runDifferential for the oracle.
func FuzzSMOSequence(f *testing.F) {
	// The first six in-code seeds mirror testdata/fuzz/FuzzSMOSequence and
	// cover every op kind on the chain and hub-rim families; the customer
	// seeds follow.
	f.Add(byte(0), byte(2), []byte{0, 0, 0, 1}, uint32(1))           // chain: AE-TPT ×2
	f.Add(byte(0), byte(1), []byte{6, 0, 2, 0}, uint32(7))           // chain: AE-TPH, AP
	f.Add(byte(0), byte(3), []byte{1, 0x21, 0x85, 0x43}, uint32(3))  // chain: AA-FK, AA-JT
	f.Add(byte(1), byte(2), []byte{0, 0, 2, 1}, uint32(5))           // hub-rim TPH: AE-TPT, AP
	f.Add(byte(2), byte(5), []byte{0, 1, 1, 0x10}, uint32(9))        // hub-rim TPT: AE-TPT, AA-FK
	f.Add(byte(0), byte(2), []byte{0, 0, 2, 4, 1, 0x40}, uint32(11)) // chain: AE then AP+AA on the new type
	for _, sd := range customerSeeds {
		f.Add(byte(0x80), sd.size, sd.ops, sd.seed)
	}
	f.Fuzz(func(t *testing.T, wl, size byte, opBytes []byte, stateSeed uint32) {
		runDifferential(t, wl, size, opBytes, stateSeed)
	})
}

// TestDifferentialSeeds runs the seed corpus as ordinary tests, so plain
// `go test` exercises the differential oracle without -fuzz.
func TestDifferentialSeeds(t *testing.T) {
	cases := []struct {
		name   string
		wl, sz byte
		ops    []byte
		seed   uint32
	}{
		{"chain-add-entities", 0, 2, []byte{0, 0, 0, 1}, 1},
		{"chain-tph-and-prop", 0, 1, []byte{6, 0, 2, 0}, 7},
		{"chain-associations", 0, 3, []byte{1, 0x21, 0x85, 0x43}, 3},
		{"hubrim-tph", 1, 2, []byte{0, 0, 2, 1}, 5},
		{"hubrim-tpt", 2, 5, []byte{0, 1, 1, 0x10}, 9},
		{"chain-build-on-new", 0, 2, []byte{0, 0, 2, 4, 1, 0x40}, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runDifferential(t, tc.wl, tc.sz, tc.ops, tc.seed)
		})
	}
	for _, sd := range customerSeeds {
		t.Run("customer-"+sd.name, func(t *testing.T) {
			runDifferential(t, 0x80, sd.size, sd.ops, sd.seed)
		})
	}
}
