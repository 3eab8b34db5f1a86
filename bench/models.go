package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/workload"
)

// sizes are the workloads' input sizes. fullSizes is what the benchmark
// runs; the smoke test substitutes toy sizes.
type sizes struct {
	chain    int
	hub      workload.HubRimOptions
	customer workload.CustomerOptions
	// streamPerType is stream-rw's orm.RandomState bound per entity type.
	streamPerType int
	// tenantChain and tenantPerType size each serve-mixed tenant: its chain
	// model and the per-type bound of its seeded rows.
	tenantChain   int
	tenantPerType int
	// readRate and evolveRate are serve-mixed's open-loop arrival rates
	// per second.
	readRate, evolveRate float64
	// warmOpens is the number of warm opens per compile round.
	warmOpens int
}

var fullSizes = sizes{
	chain:         1002,
	hub:           workload.HubRimOptions{N: 3, M: 6, TPH: true},
	customer:      workload.DefaultCustomerOptions(),
	streamPerType: 100,
	tenantChain:   300,
	tenantPerType: 7,
	readRate:      30,
	evolveRate:    2.5,
	warmOpens:     8,
}

// shape is a model's structure: what a change to a workload builder would
// move. Every base model the benchmark runs at full size is pinned here,
// so such a change fails the run instead of silently changing its inputs.
type shape struct {
	Types, Assocs, Tables, Frags, Views int
}

var pinnedShapes = map[string]shape{
	"chain-1002":     {Types: 1002, Assocs: 2002, Tables: 1002, Frags: 3004, Views: 4006},
	"hubrim-tph-3x6": {Types: 21, Assocs: 18, Tables: 1, Frags: 39, Views: 40},
	"customer-230":   {Types: 230, Assocs: 24, Tables: 80, Frags: 254, Views: 334},
	"tenant-300":     {Types: 300, Assocs: 598, Tables: 300, Frags: 898, Views: 1198},
}

func shapeOf(m *frag.Mapping, v *frag.Views) shape {
	return shape{
		Types:  len(m.Client.Types()),
		Assocs: len(m.Client.Associations()),
		Tables: len(m.Store.Tables()),
		Frags:  len(m.Frags),
		Views:  len(v.Query) + len(v.Assoc) + len(v.Update),
	}
}

// checkShape compares a base model against its pin. Models without a pin
// (the smoke test's toy sizes) are not checked.
func (r *runner) checkShape(label string, m *frag.Mapping, v *frag.Views) {
	want, ok := pinnedShapes[label]
	if !ok {
		return
	}
	got := shapeOf(m, v)
	r.check(got == want, "model %s: shape %+v, pinned %+v", label, got, want)
}

func chainLabel(n int) string { return fmt.Sprintf("chain-%d", n) }

func hubLabel(o workload.HubRimOptions) string {
	style := "tpt"
	if o.TPH {
		style = "tph"
	}
	return fmt.Sprintf("hubrim-%s-%dx%d", style, o.N, o.M)
}

func customerLabel(o workload.CustomerOptions) string { return fmt.Sprintf("customer-%d", o.Types) }

func tenantLabel(n int) string { return fmt.Sprintf("tenant-%d", n) }

// suitePlanner runs one Figure 9/10 suite operation as a core.Planner, so
// the session plans the operation's store-side directive on its own
// evolving generation.
type suitePlanner struct{ op experiments.NamedOp }

func (p suitePlanner) Describe() string                       { return p.op.Name }
func (p suitePlanner) Plan(m *frag.Mapping) (core.SMO, error) { return p.op.Make(m) }

// rejectedOp is the one suite operation both models must reject: a TPC
// subtype there breaks a foreign key. Every other operation is accepted.
const rejectedOp = "AE-TPC"

// chainTargets draws where each suite operation attaches on a chain of n
// entities. The association endpoints are distinct types.
func chainTargets(rng *rand.Rand, n int) experiments.SuiteTargets {
	ty := func() string { return fmt.Sprintf("Entity%d", 1+rng.Intn(n)) }
	pair := func() (string, string) {
		a, b := ty(), ty()
		for a == b {
			b = ty()
		}
		return a, b
	}
	t := experiments.SuiteTargets{TPTParent: ty(), TPCParent: ty(), TPHParent: ty(), PropType: ty()}
	t.FKEnd1, t.FKEnd2 = pair()
	t.JTEnd1, t.JTEnd2 = pair()
	return t
}

// customerTargets are Figure 10's attachment points.
var customerTargets = experiments.SuiteTargets{
	TPTParent: "H1T1", TPCParent: "H3T0", TPHParent: "H0T2",
	FKEnd1: "H1T0", FKEnd2: "H5T0", JTEnd1: "H3T0", JTEnd2: "H7T0",
	PropType: "H1T1",
}

// roundtrip checks V ∘ Q = id on a seeded random state of m.
func (r *runner) roundtrip(what string, m *frag.Mapping, v *frag.Views, perType int) {
	cs := orm.RandomState(m, uint32(r.seed), perType)
	r.ok(orm.Roundtrip(m, v, cs), "roundtrip "+what)
}

// tableSum is one table's row count and order-independent checksum (the
// lane-wise sum of per-row SHA-256 digests, so duplicates count).
type tableSum struct {
	Rows int
	Sum  [4]uint64
}

// tableSums digests every table of a store.
func tableSums(ctx context.Context, ts exec.TableStore) (map[string]tableSum, error) {
	out := map[string]tableSum{}
	for _, name := range ts.Tables() {
		it, err := ts.Scan(ctx, name, exec.DefaultBatchSize)
		if err != nil {
			return nil, err
		}
		var t tableSum
		for {
			rows, ok, err := it.Next()
			if err != nil {
				it.Close()
				return nil, err
			}
			if !ok {
				break
			}
			for _, row := range rows {
				t.add(row.Canonical())
			}
		}
		it.Close()
		out[name] = t
	}
	return out, nil
}

func (t *tableSum) add(canonical string) {
	d := sha256.Sum256([]byte(canonical))
	for i := range t.Sum {
		t.Sum[i] += binary.BigEndian.Uint64(d[i*8:])
	}
	t.Rows++
}

// sameSums reports the first difference between two store digests.
func sameSums(a, b map[string]tableSum) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tables vs %d", len(a), len(b))
	}
	for name, x := range a {
		if y, ok := b[name]; !ok || x != y {
			return fmt.Errorf("table %s: %+v vs %+v", name, x, y)
		}
	}
	return nil
}

// digest folds canonical renderings (of entities or rows) into one
// multiset checksum.
func digest(items []string) tableSum {
	var t tableSum
	for _, s := range items {
		t.add(s)
	}
	return t
}
