package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// ViewComparison is one row of the §6 future-work study: for a type whose
// query view an SMO touched, the shape and evaluation cost of the
// incrementally evolved view against the freshly full-compiled one, plus
// whether the two are semantically equal on sampled data.
type ViewComparison struct {
	Op          string
	EntityType  string
	Incremental cqt.Metrics
	Full        cqt.Metrics
	IncEval     time.Duration
	FullEval    time.Duration
	Equivalent  bool
}

// String formats the row.
func (vc ViewComparison) String() string {
	eq := "equal"
	if !vc.Equivalent {
		eq = "DIFFER"
	}
	return fmt.Sprintf("%-12s %-14s inc[nodes=%d joins=%d outer=%d unions=%d %8.3fms]  full[nodes=%d joins=%d outer=%d unions=%d %8.3fms]  %s",
		vc.Op, vc.EntityType,
		vc.Incremental.Nodes, vc.Incremental.Joins, vc.Incremental.OuterJoins, vc.Incremental.Unions,
		float64(vc.IncEval.Microseconds())/1000,
		vc.Full.Nodes, vc.Full.Joins, vc.Full.OuterJoins, vc.Full.Unions,
		float64(vc.FullEval.Microseconds())/1000,
		eq)
}

// CompareViews runs the future-work study of §6 on a chain model: it
// applies each suite SMO incrementally, full-compiles the same evolved
// mapping, and compares the query views of the types the SMO touched —
// structurally (node/join/union counts), semantically (equal entities
// loaded from the same store state), and by evaluation wall-time over a
// sampled store.
func CompareViews(chainSize int) ([]ViewComparison, error) {
	base := workload.Chain(chainSize)
	baseViews, err := compiler.New().Compile(base)
	if err != nil {
		return nil, err
	}
	mid := chainSize / 2
	ty := func(i int) string { return fmt.Sprintf("Entity%d", i) }
	suite := Suite(SuiteTargets{
		TPTParent: ty(mid), TPCParent: ty(mid + 1), TPHParent: ty(mid + 2),
		FKEnd1: ty(1 + chainSize/5), FKEnd2: ty(1 + 2*chainSize/5),
		JTEnd1: ty(1 + 3*chainSize/5), JTEnd2: ty(1 + 4*chainSize/5),
		PropType: ty(mid),
	})

	var out []ViewComparison
	for _, op := range suite {
		m2 := base.Clone()
		smo, err := op.Make(m2)
		if err != nil {
			continue
		}
		ic := core.NewIncremental()
		m3, incViews, err := ic.Apply(m2, baseViews, smo)
		if err != nil {
			continue // rejected SMOs have nothing to compare
		}
		fullViews, err := compiler.New().Compile(m3)
		if err != nil {
			return nil, fmt.Errorf("%s: full compiler rejected the evolved mapping: %w", op.Name, err)
		}
		// Compare views of every type whose view differs structurally from
		// the base (the SMO's neighbourhood).
		ss, err := orm.Materialize(m3, fullViews, orm.RandomState(m3, 42, 3))
		if err != nil {
			return nil, err
		}
		for tyName, incView := range incViews.Query {
			fullView := fullViews.Query[tyName]
			if fullView == nil {
				continue
			}
			// Only the SMO's neighbourhood is interesting: skip views the
			// incremental compiler left textually identical to the base.
			if baseView := baseViews.Query[tyName]; baseView != nil &&
				cqt.Format(baseView.Q) == cqt.Format(incView.Q) {
				continue
			}
			cmp, err := compareOne(m3, op.Name, tyName, incView, fullView, ss)
			if err != nil {
				return nil, err
			}
			out = append(out, cmp)
		}
	}
	return out, nil
}

func compareOne(m *frag.Mapping, opName, tyName string, incView, fullView *cqt.View, ss *state.StoreState) (ViewComparison, error) {
	env := &exec.Env{Catalog: m.Catalog(), Store: exec.NewMapStore(ss)}
	timeEval := func(v *cqt.View) (time.Duration, []*state.Entity, error) {
		start := time.Now()
		var ents []*state.Entity
		for i := 0; i < 10; i++ {
			it, err := exec.OpenView(context.TODO(), env, v, exec.Strict, exec.Options{})
			if err == nil {
				ents, err = exec.CollectEntities(it)
			}
			if err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start) / 10, ents, nil
	}
	incD, incEnts, err := timeEval(incView)
	if err != nil {
		return ViewComparison{}, fmt.Errorf("%s/%s incremental view: %w", opName, tyName, err)
	}
	fullD, fullEnts, err := timeEval(fullView)
	if err != nil {
		return ViewComparison{}, fmt.Errorf("%s/%s full view: %w", opName, tyName, err)
	}
	return ViewComparison{
		Op:          opName,
		EntityType:  tyName,
		Incremental: cqt.Measure(incView.Q),
		Full:        cqt.Measure(fullView.Q),
		IncEval:     incD,
		FullEval:    fullD,
		Equivalent:  sameEntities(incEnts, fullEnts),
	}, nil
}

func sameEntities(a, b []*state.Entity) bool {
	if len(a) != len(b) {
		return false
	}
	ra := make([]state.Row, len(a))
	rb := make([]state.Row, len(b))
	for i := range a {
		ra[i] = a[i].Attrs.Clone()
		ra[i]["__ty"] = typeTagValue(a[i].Type)
		rb[i] = b[i].Attrs.Clone()
		rb[i]["__ty"] = typeTagValue(b[i].Type)
	}
	return state.EqualRows(ra, rb)
}

func typeTagValue(ty string) cond.Value { return cond.String(ty) }
