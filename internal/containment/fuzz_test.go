package containment

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/workload"
)

// fuzzModel is a schema the containment fuzzer draws queries over.
type fuzzModel struct {
	m                    *frag.Mapping
	cat                  *cqt.Catalog
	sets, tables, assocs []string
	types                []string
}

// fuzzModels are the paper's model and a small customer model, whose
// largest hierarchy is mapped TPH with association columns in its table.
var fuzzModels = sync.OnceValue(func() []*fuzzModel {
	cust, err := workload.CustomerE(workload.CustomerOptions{
		Types: 14, Hierarchies: 4, LargestTPH: 6, Associations: 4, SharedTableFKs: 2,
	})
	if err != nil {
		panic(err)
	}
	var out []*fuzzModel
	for _, m := range []*frag.Mapping{workload.PaperFull(), cust} {
		fm := &fuzzModel{m: m, cat: m.Catalog()}
		for _, s := range m.Client.Sets() {
			fm.sets = append(fm.sets, s.Name)
		}
		for _, t := range m.Store.Tables() {
			fm.tables = append(fm.tables, t.Name)
		}
		for _, a := range m.Client.Associations() {
			fm.assocs = append(fm.assocs, a.Name)
		}
		for _, ty := range m.Client.Types() {
			fm.types = append(fm.types, ty.Name)
		}
		out = append(out, fm)
	}
	return out
})

// qgen builds random queries from fuzz bytes; exhausted input reads as
// zeros, so every input yields a query.
type qgen struct {
	fm   *fuzzModel
	data []byte
	pos  int
	cols int // fresh output names issued
}

func (g *qgen) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % n
}

func (g *qgen) fresh() string {
	g.cols++
	return "c" + strconv.Itoa(g.cols)
}

// query returns a random query of at most depth operators above its scans,
// with its output columns.
func (g *qgen) query(depth int) (cqt.Expr, []string) {
	op := 0
	if depth > 0 {
		op = g.pick(8)
	}
	switch op {
	case 1:
		in, cols := g.query(depth - 1)
		return cqt.Select{In: in, Cond: g.cond(cols, 2)}, cols
	case 2:
		in, cols := g.query(depth - 1)
		names := make([]string, 1+g.pick(3))
		for i := range names {
			names[i] = g.fresh()
			if len(cols) > 0 && g.pick(2) == 0 {
				names[i] = cols[g.pick(len(cols))] // keep a source's name
			}
		}
		return g.projectTo(in, cols, names), dedupe(names)
	case 3, 4, 5:
		l, lcols := g.query(depth - 1)
		r, rcols := g.query(depth - 1)
		if g.pick(2) == 0 {
			// Rename the right side apart, so only the join keys meet.
			names := make([]string, len(rcols))
			for i := range names {
				names[i] = g.fresh()
			}
			r, rcols = g.projectTo(r, rcols, names), names
		}
		on := make([][2]string, 1+g.pick(2))
		for i := range on {
			on[i] = [2]string{g.col(lcols), g.col(rcols)}
		}
		kind := []cqt.JoinKind{cqt.Inner, cqt.LeftOuter, cqt.FullOuter}[op-3]
		return cqt.Join{Kind: kind, L: l, R: r, On: on}, dedupe(append(append([]string{}, lcols...), rcols...))
	case 6:
		names := make([]string, 1+g.pick(3))
		for i := range names {
			names[i] = g.fresh()
		}
		inputs := make([]cqt.Expr, 2+g.pick(2))
		for i := range inputs {
			in, cols := g.query(depth - 1)
			inputs[i] = g.projectTo(in, cols, names)
		}
		return cqt.UnionAll{Inputs: inputs}, names
	case 7:
		return g.tphView(g.fm.sets[g.pick(len(g.fm.sets))], g.pick(3))
	}
	var scan cqt.Expr
	switch g.pick(3) {
	case 0:
		scan = cqt.ScanSet{Set: g.fm.sets[g.pick(len(g.fm.sets))]}
	case 1:
		scan = cqt.ScanTable{Table: g.fm.tables[g.pick(len(g.fm.tables))]}
	default:
		if len(g.fm.assocs) == 0 {
			scan = cqt.ScanSet{Set: g.fm.sets[0]}
		} else {
			scan = cqt.ScanAssoc{Assoc: g.fm.assocs[g.pick(len(g.fm.assocs))]}
		}
	}
	cols, err := g.fm.cat.Cols(scan)
	if err != nil {
		panic(err)
	}
	return scan, cols
}

// tphView is the shape of a TPH table's update view: one projection per
// concrete type of set's hierarchy, NULL for the attributes the type lacks
// and a discriminator literal, united and left-outer-joined to up to
// assocs projections of the associations whose first end is the set's
// type. Over the customer model's largest hierarchy this is the view whose
// foreign-key checks the rejected AE-TPC runs.
func (g *qgen) tphView(set string, assocs int) (cqt.Expr, []string) {
	s := g.fm.m.Client.Set(set)
	key := g.fm.m.Client.KeyOf(s.Type)
	attrs := g.fm.m.Client.SubtreeAttrNames(s.Type)
	var branches []cqt.Expr
	for _, ty := range g.fm.m.Client.ConcreteIn(s.Type) {
		cols := make([]cqt.ProjCol, 0, len(attrs)+1)
		for _, a := range attrs {
			if g.fm.m.Client.HasAttr(ty, a) {
				cols = append(cols, cqt.Col(a))
			} else {
				cols = append(cols, cqt.LitAs(cqt.NullOf(cond.KindString), a))
			}
		}
		cols = append(cols, cqt.LitAs(cqt.Const(cond.String(ty)), "Disc"))
		branches = append(branches, cqt.Project{
			In:   cqt.Select{In: cqt.ScanSet{Set: set}, Cond: cond.TypeIs{Type: ty, Only: true}},
			Cols: cols,
		})
	}
	var q cqt.Expr = cqt.UnionAll{Inputs: branches}
	out := append(append([]string{}, attrs...), "Disc")
	for _, a := range g.fm.m.Client.Associations() {
		if assocs == 0 || a.End1.Type != s.Type || len(key) != 1 {
			continue
		}
		assocs--
		e1, e2 := cqt.AssocEndCols(g.fm.m.Client, a)
		fk := "FK" + a.Name
		q = cqt.Join{
			Kind: cqt.LeftOuter,
			L:    q,
			R:    cqt.Project{In: cqt.ScanAssoc{Assoc: a.Name}, Cols: []cqt.ProjCol{cqt.ColAs(e1[0], key[0]), cqt.ColAs(e2[0], fk)}},
			On:   [][2]string{{key[0], key[0]}},
		}
		out = append(out, fk)
	}
	return q, out
}

// projectTo projects in onto names, each from a random column of cols or a
// literal; once in a while from a column in does not have.
func (g *qgen) projectTo(in cqt.Expr, cols, names []string) cqt.Expr {
	pcs := make([]cqt.ProjCol, len(names))
	for i, n := range names {
		switch g.pick(5) {
		case 0:
			pcs[i] = cqt.LitAs(g.literal(), n)
		default:
			pcs[i] = cqt.ColAs(g.col(cols), n)
		}
	}
	return cqt.Project{In: in, Cols: pcs}
}

// col is a random column of cols, or rarely one no query outputs.
func (g *qgen) col(cols []string) string {
	if len(cols) == 0 || g.pick(64) == 0 {
		return "Missing"
	}
	return cols[g.pick(len(cols))]
}

func (g *qgen) literal() *cqt.Literal {
	switch g.pick(4) {
	case 0:
		return cqt.NullOf(cond.KindInt)
	case 1:
		return cqt.Const(cond.String([]string{"a", "b"}[g.pick(2)]))
	default:
		return cqt.Const(cond.Int(int64(g.pick(3))))
	}
}

// cond is a random condition over cols: type, IS NULL and comparison atoms
// under And, Or and Not.
func (g *qgen) cond(cols []string, depth int) cond.Expr {
	if depth > 0 && g.pick(3) == 0 {
		x, y := g.cond(cols, depth-1), g.cond(cols, depth-1)
		switch g.pick(3) {
		case 0:
			return cond.NewAnd(x, y)
		case 1:
			return cond.NewOr(x, y)
		default:
			return cond.NewNot(cond.NewAnd(x, y))
		}
	}
	switch g.pick(4) {
	case 0:
		return cond.TypeIs{Type: g.fm.types[g.pick(len(g.fm.types))], Only: g.pick(2) == 0}
	case 1:
		return cond.Null{Attr: g.col(cols)}
	default:
		ops := []cond.Op{cond.OpEq, cond.OpLt, cond.OpGe}
		var v cond.Value
		if g.pick(2) == 0 {
			v = cond.Int(int64(g.pick(3)))
		} else {
			v = cond.String([]string{"a", "b"}[g.pick(2)])
		}
		return cond.Cmp{Attr: g.col(cols), Op: ops[g.pick(len(ops))], Val: v}
	}
}

func dedupe(names []string) []string {
	seen := map[string]bool{}
	out := names[:0:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// pair builds the two sides of a containment check from fuzz bytes: a left
// query, and a right query over the same output columns (another query
// projected onto them, a union containing the left one, a selection of it,
// or the left query itself), or the shape of a foreign-key check between
// two TPH views.
func (g *qgen) pair(depth int) (a, b cqt.Expr) {
	if g.pick(6) == 0 {
		l, lcols := g.tphView(g.fm.sets[g.pick(len(g.fm.sets))], 1+g.pick(3))
		r, rcols := g.tphView(g.fm.sets[g.pick(len(g.fm.sets))], g.pick(3))
		fk, key := g.col(lcols), g.col(rcols)
		a = cqt.Project{In: cqt.Select{In: l, Cond: cond.NotNull(fk)}, Cols: []cqt.ProjCol{cqt.ColAs(fk, key)}}
		return a, cqt.Project{In: r, Cols: []cqt.ProjCol{cqt.Col(key)}}
	}
	a, cols := g.query(depth)
	switch g.pick(4) {
	case 0:
		o, ocols := g.query(depth)
		b = g.projectTo(o, ocols, cols)
	case 1:
		o, ocols := g.query(depth)
		b = cqt.UnionAll{Inputs: []cqt.Expr{a, g.projectTo(o, ocols, cols)}}
	case 2:
		b = cqt.Select{In: a, Cond: g.cond(cols, 1)}
	default:
		b = a
	}
	if g.pick(4) == 0 {
		a, b = b, a
	}
	return a, b
}

// canonBlock renders a block with its aliases renamed by their position in
// its scan list, so blocks that differ only in alias numbering render
// alike.
func canonBlock(b CQ) string {
	h := make(map[string]string, len(b.Scans))
	for i, s := range b.Scans {
		h[s.Alias] = "s" + strconv.Itoa(i)
	}
	ref := func(r ColRef) string { return h[r.Alias] + "." + r.Col }
	var sb strings.Builder
	for _, s := range b.Scans {
		fmt.Fprintf(&sb, "%d:%s ", s.Kind, s.Name)
	}
	for _, e := range b.Eqs {
		fmt.Fprintf(&sb, "%s=%s ", ref(e[0]), ref(e[1]))
	}
	fmt.Fprintf(&sb, "| %s | %v |", h[b.Subject], transport(b.Cond, h))
	keys := make([]string, 0, len(b.Proj))
	for k := range b.Proj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if t := b.Proj[k]; t.Lit != nil {
			fmt.Fprintf(&sb, " %s=%+v", k, *t.Lit)
		} else {
			fmt.Fprintf(&sb, " %s=%s", k, ref(t.Ref))
		}
	}
	return sb.String()
}

// maxFuzzHoms bounds the candidate scan homomorphisms of an input whose
// verdict is decided twice; larger inputs compare their blocks only.
const maxFuzzHoms = 1 << 14

// homCount is the number of candidate scan homomorphisms a containment
// check of A in B enumerates, up to limit.
func homCount(A, B []CQ, limit int) int {
	total := 0
	for i := range A {
		for j := range B {
			n := 1
			for _, bs := range B[j].Scans {
				k := 0
				for _, as := range A[i].Scans {
					if as.Kind == bs.Kind && as.Name == bs.Name {
						k++
					}
				}
				if n *= k; n == 0 || n > limit {
					break
				}
			}
			if total += n; total > limit {
				return total
			}
		}
	}
	return total
}

// checkAgainstOracle normalizes both sides with the production normalizer
// and the oracle and requires the same error, or the same blocks in the
// same order up to alias numbering; for bounded inputs it also requires
// Contains to return the oracle's verdict and error.
func checkAgainstOracle(t *testing.T, fm *fuzzModel, a, b cqt.Expr, simplify bool) {
	t.Helper()
	ch := &Checker{Cat: fm.cat, Simplify: simplify}
	wantA, wantB, wantErr := ch.refBlocks(a, b)
	sa, sb := a, b
	if simplify {
		sa, sb = cqt.Simplify(fm.cat, a), cqt.Simplify(fm.cat, b)
	}
	gotA, err := (&normalizer{cat: fm.cat, mode: upper}).normalize(sa)
	var gotB []CQ
	if err == nil {
		gotB, err = (&normalizer{cat: fm.cat, mode: lower, nextID: 1 << 20}).normalize(sb)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("normalization error %v, oracle %v\na = %v\nb = %v", err, wantErr, a, b)
	}
	if err != nil {
		return
	}
	for side, pair := range [][2][]CQ{{gotA, wantA}, {gotB, wantB}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("side %d: %d blocks, oracle %d\na = %v\nb = %v", side, len(got), len(want), a, b)
		}
		for i := range got {
			if g, w := canonBlock(got[i]), canonBlock(want[i]); g != w {
				t.Fatalf("side %d block %d:\n got %s\nwant %s\na = %v\nb = %v", side, i, g, w, a, b)
			}
		}
	}
	if homCount(gotA, gotB, maxFuzzHoms) > maxFuzzHoms {
		return
	}
	want, wantErr := ch.containsBlocks(context.Background(), wantA, wantB)
	got, err := ch.Contains(a, b)
	if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Contains = %v, %v; oracle %v, %v\na = %v\nb = %v", got, err, want, wantErr, a, b)
	}
}

// FuzzContainment holds the production checker to the oracle normalizer on
// random query pairs over the paper model and a small customer model:
// scans, selections with type, null and comparison atoms, projections with
// literals, inner, left and full outer joins, unions, and TPH views with
// left-outer-joined association columns. Both must agree on the verdict,
// the error and every block.
func FuzzContainment(f *testing.F) {
	// The AE-TPC shape: a foreign-key column of the customer model's TPH
	// view (a chain of left outer joins over a union) against the key of
	// another TPH view.
	f.Add([]byte{1, 1, 3, 0, 0, 2, 2, 1, 1, 8, 1, 0})
	f.Add([]byte{1, 0, 3, 0, 0, 2, 2, 0, 1, 9, 1, 0})
	f.Add([]byte{0, 1, 2, 6, 4, 7, 0, 2, 1, 3, 1})
	f.Add([]byte{0, 1, 3, 5, 2, 1, 0, 0, 3, 7, 1, 2, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 1, 4, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{0, 0, 2, 3, 0, 1, 1, 1, 2, 0, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		models := fuzzModels()
		g := &qgen{fm: models[int(data[0])%len(models)], data: data[3:]}
		a, b := g.pair(1 + int(data[2])%3)
		checkAgainstOracle(t, g.fm, a, b, data[1]%2 == 1)
	})
}

// TestOuterJoinChainScansEachInputOnce normalizes a k-deep chain of left
// outer joins in upper mode: its 2^k blocks are built from one
// normalization of each input, so it draws k+1 aliases, one per scan.
func TestOuterJoinChainScansEachInputOnce(t *testing.T) {
	m := workload.PaperFull()
	const k = 8
	var q cqt.Expr = cqt.ScanTable{Table: "HR"}
	for i := 0; i < k; i++ {
		id := "EId" + strconv.Itoa(i)
		q = cqt.Join{
			Kind: cqt.LeftOuter,
			L:    q,
			R:    cqt.Project{In: cqt.ScanTable{Table: "Emp"}, Cols: []cqt.ProjCol{cqt.ColAs("Id", id)}},
			On:   [][2]string{{"Id", id}},
		}
	}
	n := &normalizer{cat: m.Catalog(), mode: upper}
	blocks, err := n.normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1<<k {
		t.Fatalf("%d blocks, want %d", len(blocks), 1<<k)
	}
	if n.nextID != k+1 {
		t.Fatalf("%d aliases drawn for %d scans", n.nextID, k+1)
	}
}
