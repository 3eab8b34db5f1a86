package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// runStream is the data path over the chain model. Each round is one timed
// operation: a write leg (the seeded client state through the update views
// into a fresh RingStore, orm.MaterializeInto) and a scan leg (every query
// view, constructing entities, and every association view, over that
// store). A round's latency is reported per thousand store rows, because
// the seeded state's size varies by about 2% between seeds.
func runStream(ctx context.Context, r *runner) error {
	m, err := workload.ChainE(r.sz.chain)
	if err != nil {
		return err
	}
	s, err := pipeline.NewSessionCompile(ctx, m, pipeline.Options{})
	if err != nil {
		return fmt.Errorf("compiling %s: %w", chainLabel(r.sz.chain), err)
	}
	m, v := s.Generation()
	r.checkShape(chainLabel(r.sz.chain), m, v)
	small := orm.RandomState(m, uint32(r.seed), max(1, r.sz.streamPerType/20))
	r.ok(checkStreamOracle(ctx, m, v, small), "streaming legs against the materializing oracle")
	cs := orm.RandomState(m, uint32(r.seed), r.sz.streamPerType)

	var first map[string]tableSum
	var firstScan int64
	var ring *exec.RingStore
	for r.more() {
		ring = nil // release the previous round's store before writing the next
		var scanned int64
		var wd, sd time.Duration
		err := r.timed("round", func(ctx context.Context) (float64, error) {
			t0 := time.Now()
			var err error
			ring, err = writeLeg(ctx, m, v, cs)
			wd = time.Since(t0)
			if err != nil {
				return 1, err
			}
			t1 := time.Now()
			scanned, err = scanLeg(ctx, r, m, v, ring, nil)
			sd = time.Since(t1)
			return float64(exec.TotalRows(ring)) / 1000, err
		})
		if !r.ok(err, "stream round") || ring == nil {
			break
		}
		r.sample("write_rows_per_s", float64(exec.TotalRows(ring))/wd.Seconds())
		r.sample("scan_rows_per_s", float64(scanned)/sd.Seconds())
		sums, err := tableSums(ctx, ring)
		if !r.ok(err, "digesting the written store") {
			break
		}
		if first == nil {
			first, firstScan = sums, scanned
			continue
		}
		if err := sameSums(first, sums); err != nil {
			r.check(false, "write leg differs from the first round: %v", err)
		}
		r.check(scanned == firstScan, "scan leg read %d rows, the first round %d", scanned, firstScan)
	}
	if r.traced && ring != nil {
		self, err := execSelf(ctx, m, v, ring)
		if r.ok(err, "executor attribution pass") {
			for name, secs := range self {
				r.layers[name] = secs / (float64(exec.TotalRows(ring)) / 1000)
			}
		}
	}
	return nil
}

// writeLeg streams the client state through the update views. In a traced
// run it is the bench.write span, whose inclusive time is the orm layer's.
func writeLeg(ctx context.Context, m *frag.Mapping, v *frag.Views, cs *state.ClientState) (ring *exec.RingStore, err error) {
	sp := obsv.SpanFromContext(ctx).Child("bench.write")
	defer func() { sp.EndErr(err) }()
	return orm.MaterializeInto(obsv.ContextWithSpan(ctx, sp), m, v, cs, exec.Options{})
}

// scanLeg drains every query view (constructing entities, Strict) and every
// association view over ts and returns the rows read. A traced run also
// times each pull that returns a batch. visit, when non-nil, sees every
// batch.
func scanLeg(ctx context.Context, r *runner, m *frag.Mapping, v *frag.Views, ts exec.TableStore,
	visit func(view string, ents []*state.Entity, tuples []exec.Tuple)) (rows int64, err error) {
	sp := obsv.SpanFromContext(ctx).Child("bench.scan")
	defer func() { sp.EndErr(err) }()
	ctx = obsv.ContextWithSpan(ctx, sp)
	env := &exec.Env{Catalog: m.Catalog(), Store: ts}
	timeNext := r != nil && r.traced
	pull := func(next func() (int, bool, error)) error {
		for {
			t := time.Now()
			n, ok, err := next()
			if err != nil || !ok {
				return err
			}
			if timeNext {
				r.sample("exec.next", time.Since(t).Seconds())
			}
			rows += int64(n)
		}
	}
	for _, ty := range sortedKeys(v.Query) {
		it, err := exec.OpenView(ctx, env, v.Query[ty], exec.Strict, exec.Options{})
		if err != nil {
			return rows, fmt.Errorf("query view %s: %w", ty, err)
		}
		err = pull(func() (int, bool, error) {
			ents, ok, err := it.Next()
			if ok && visit != nil {
				visit("query:"+ty, ents, nil)
			}
			return len(ents), ok, err
		})
		it.Close()
		if err != nil {
			return rows, fmt.Errorf("query view %s: %w", ty, err)
		}
	}
	for _, a := range sortedKeys(v.Assoc) {
		it, err := exec.Open(ctx, env, v.Assoc[a].Q, exec.Options{})
		if err != nil {
			return rows, fmt.Errorf("association view %s: %w", a, err)
		}
		err = pull(func() (int, bool, error) {
			batch, ok, err := it.Next()
			if ok && visit != nil {
				visit("assoc:"+a, nil, batch)
			}
			return len(batch), ok, err
		})
		it.Close()
		if err != nil {
			return rows, fmt.Errorf("association view %s: %w", a, err)
		}
	}
	return rows, nil
}

// checkStreamOracle holds both streaming legs to the materializing path on
// a small state: the update views streamed into a RingStore must produce
// exactly orm.Materialize's tables, and the query and association views
// streamed over that store exactly the client state orm.Load reads back —
// which must be the state written.
func checkStreamOracle(ctx context.Context, m *frag.Mapping, v *frag.Views, cs *state.ClientState) error {
	ss, err := orm.Materialize(m, v, cs)
	if err != nil {
		return err
	}
	ring, err := orm.MaterializeInto(ctx, m, v, cs, exec.Options{})
	if err != nil {
		return err
	}
	want, err := tableSums(ctx, exec.NewMapStore(ss))
	if err != nil {
		return err
	}
	got, err := tableSums(ctx, ring)
	if err != nil {
		return err
	}
	if err := sameSums(want, got); err != nil {
		return fmt.Errorf("write leg: %w", err)
	}
	loaded, err := orm.Load(m, v, ss)
	if err != nil {
		return err
	}
	if d := state.Diff(cs, loaded); d != "" {
		return fmt.Errorf("materializing path does not roundtrip:\n%s", d)
	}
	streamed := map[string][]string{}
	_, err = scanLeg(ctx, nil, m, v, ring, func(view string, ents []*state.Entity, tuples []exec.Tuple) {
		for _, e := range ents {
			streamed[view] = append(streamed[view], e.Canonical())
		}
		for _, t := range tuples {
			streamed[view] = append(streamed[view], t.Data.Canonical())
		}
	})
	if err != nil {
		return err
	}
	for _, set := range m.Client.Sets() {
		if _, ok := v.Query[set.Type]; !ok {
			continue
		}
		var want []string
		for _, e := range loaded.Entities[set.Name] {
			want = append(want, e.Canonical())
		}
		if digest(want) != digest(streamed["query:"+set.Type]) {
			return fmt.Errorf("scan leg: query view %s differs from orm.Load's set %s", set.Type, set.Name)
		}
	}
	for _, a := range m.Client.Associations() {
		if _, ok := v.Assoc[a.Name]; !ok {
			continue
		}
		var want []string
		for _, p := range loaded.Assocs[a.Name] {
			want = append(want, p.Ends.Canonical())
		}
		if digest(want) != digest(streamed["assoc:"+a.Name]) {
			return fmt.Errorf("scan leg: association view %s differs from orm.Load", a.Name)
		}
	}
	return nil
}

// execSelf attributes one scan leg's executor time to operators by
// subtraction. Draining a subtree on its own does exactly the work that
// subtree does inside its parent (every operator drains its inputs), so an
// operator's self time is its subtree's drain time minus its children's.
// A query view's entity construction counts as projection.
func execSelf(ctx context.Context, m *frag.Mapping, v *frag.Views, ts exec.TableStore) (map[string]float64, error) {
	env := &exec.Env{Catalog: m.Catalog(), Store: ts}
	out := map[string]float64{}
	var walk func(e cqt.Expr) (time.Duration, error)
	walk = func(e cqt.Expr) (time.Duration, error) {
		d, err := timeDrain(func() (batchIter[[]exec.Tuple], error) {
			return exec.Open(ctx, env, e, exec.Options{})
		})
		if err != nil {
			return 0, err
		}
		var kids time.Duration
		for _, c := range children(e) {
			dc, err := walk(c)
			if err != nil {
				return 0, err
			}
			kids += dc
		}
		out[operatorMetric(e)] += (d - kids).Seconds()
		return d, nil
	}
	for _, ty := range sortedKeys(v.Query) {
		d, err := timeDrain(func() (batchIter[[]*state.Entity], error) {
			return exec.OpenView(ctx, env, v.Query[ty], exec.Strict, exec.Options{})
		})
		if err != nil {
			return nil, err
		}
		dq, err := walk(v.Query[ty].Q)
		if err != nil {
			return nil, err
		}
		out["exec.project.self_s"] += (d - dq).Seconds()
	}
	for _, a := range sortedKeys(v.Assoc) {
		if _, err := walk(v.Assoc[a].Q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchIter is what exec.Open and exec.OpenView return.
type batchIter[B any] interface {
	Next() (B, bool, error)
	Close() error
}

// timeDrain opens an iterator, drains it and closes it, timing all three.
func timeDrain[B any](open func() (batchIter[B], error)) (time.Duration, error) {
	t := time.Now()
	it, err := open()
	if err != nil {
		return 0, err
	}
	for {
		_, ok, err := it.Next()
		if err != nil {
			it.Close()
			return 0, err
		}
		if !ok {
			break
		}
	}
	it.Close()
	return time.Since(t), nil
}

func children(e cqt.Expr) []cqt.Expr {
	switch x := e.(type) {
	case cqt.Select:
		return []cqt.Expr{x.In}
	case cqt.Project:
		return []cqt.Expr{x.In}
	case cqt.Join:
		return []cqt.Expr{x.L, x.R}
	case cqt.UnionAll:
		return x.Inputs
	}
	return nil
}

func operatorMetric(e cqt.Expr) string {
	switch e.(type) {
	case cqt.Select:
		return "exec.select.self_s"
	case cqt.Project:
		return "exec.project.self_s"
	case cqt.Join:
		return "exec.join.self_s"
	case cqt.UnionAll:
		return "exec.union_all.self_s"
	}
	return "exec.scan.self_s"
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
