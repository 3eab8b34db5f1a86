package compiler

import (
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

func TestCompilePaperInitial(t *testing.T) {
	m := workload.PaperInitial()
	views, err := New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if views.Query["Person"] == nil || views.Update["HR"] == nil {
		t.Fatalf("missing views: %+v", views)
	}
}

func TestCompilePaperFullAndRoundtrip(t *testing.T) {
	m := workload.PaperFull()
	views, err := New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []string{"Person", "Employee", "Customer"} {
		if views.Query[ty] == nil {
			t.Fatalf("missing query view for %s", ty)
		}
	}
	for _, tab := range []string{"HR", "Emp", "Client"} {
		if views.Update[tab] == nil {
			t.Fatalf("missing update view for %s", tab)
		}
	}
	if views.Assoc["Supports"] == nil {
		t.Fatalf("missing association view")
	}
	if err := orm.Roundtrip(m, views, workload.PaperClientState()); err != nil {
		t.Fatal(err)
	}
}

func TestPersonViewShape(t *testing.T) {
	m := workload.PaperFull()
	views, err := New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// The Person view must union the HR/Emp side with the Client side, as
	// in Figure 2 of the paper.
	out := cqt.Format(views.Query["Person"].Q)
	if !strings.Contains(out, "UNION ALL") {
		t.Errorf("Person view lacks UNION ALL:\n%s", out)
	}
	if !strings.Contains(out, "Client") || !strings.Contains(out, "HR") {
		t.Errorf("Person view must read both HR and Client:\n%s", out)
	}
}

func TestEmployeeViewIsJoin(t *testing.T) {
	m := workload.PaperFull()
	views, err := New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	out := cqt.Format(views.Query["Employee"].Q)
	if !strings.Contains(out, "Emp") || !strings.Contains(out, "HR") {
		t.Errorf("Employee view must join HR and Emp:\n%s", out)
	}
	if strings.Contains(out, "Client") {
		t.Errorf("Employee view must not read Client:\n%s", out)
	}
}

// TestLossyMappingRejected drops the fragment covering Employee's
// Department, which makes the mapping lossy; validation must reject it.
func TestLossyMappingRejected(t *testing.T) {
	m := workload.PaperFull()
	var keep []*frag.Fragment
	for _, f := range m.Frags {
		if f.ID != "phi2" {
			keep = append(keep, f)
		}
	}
	m.Frags = keep
	if _, err := New().Compile(m); err == nil {
		t.Fatal("lossy mapping accepted")
	}
}

// TestUncoveredCellRejected maps only employees with a department, leaving
// department-less employees unmapped.
func TestUncoveredCellRejected(t *testing.T) {
	m := workload.PaperInitial()
	// Restrict phi1 to named persons only: unnamed persons are lost.
	m.Frags[0].ClientCond = cond.NewAnd(
		cond.TypeIs{Type: "Person"},
		cond.NotNull("Name"),
	)
	_, err := New().Compile(m)
	if err == nil {
		t.Fatal("partial mapping accepted")
	}
	if !strings.Contains(err.Error(), "not mapped") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestForeignKeyViolationRejected reproduces the Figure 6 scenario: a TPC
// type whose association end keys land in a table with a foreign key the
// update views cannot guarantee.
func TestForeignKeyViolationRejected(t *testing.T) {
	m := workload.PaperFull()
	// Re-point Client.Eid's foreign key at HR and break the guarantee by
	// mapping Supports to relate Customer (TPC in Client) rather than
	// Employee: make the FK reference a table customers never reach.
	// Simpler: change fragment phi4 to write Eid from Customer_Id, so Eid
	// values are customer ids, which are not in Emp.
	for _, f := range m.Frags {
		if f.ID == "phi4" {
			f.ColOf = map[string]string{"Customer_Id": "Eid", "Employee_Id": "Cid"}
		}
	}
	if _, err := New().Compile(m); err == nil {
		t.Fatal("foreign-key-violating mapping accepted")
	}
}

func TestPartitionedMapping(t *testing.T) {
	// The §3.3 Adult/Young example: one type horizontally partitioned.
	m := partitionedModel(t, true)
	views, err := New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// Roundtrip adults and minors.
	cs := personAgeState()
	if err := orm.Roundtrip(m, views, cs); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedMappingWithHole(t *testing.T) {
	m := partitionedModel(t, false) // leaves age = 18 uncovered
	if _, err := New().Compile(m); err == nil {
		t.Fatal("partition with a hole accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := New()
	if _, err := c.Compile(workload.PaperFull()); err != nil {
		t.Fatal(err)
	}
	if c.Stats.CellsVisited == 0 || c.Stats.Containments == 0 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestNaiveCellsAblation(t *testing.T) {
	fast := New()
	if _, err := fast.Compile(workload.PaperFull()); err != nil {
		t.Fatal(err)
	}
	naive := &Compiler{Opts: Options{NaiveCells: true}}
	if _, err := naive.Compile(workload.PaperFull()); err != nil {
		t.Fatal(err)
	}
	if naive.Stats.CellsVisited <= fast.Stats.CellsVisited {
		t.Errorf("naive enumeration should visit more cells: naive=%d pruned=%d",
			naive.Stats.CellsVisited, fast.Stats.CellsVisited)
	}
}

// partitionedModel builds Person(name, age) partitioned over Adult/Young.
func partitionedModel(t *testing.T, covered bool) *frag.Mapping {
	t.Helper()
	m := workload.PartitionedAgeModel()
	if !covered {
		// Shift the adult boundary to leave age = 18 unmapped.
		for _, f := range m.Frags {
			if f.Table == "Adult" {
				f.ClientCond = cond.NewAnd(
					cond.TypeIs{Type: "Person"},
					cond.Cmp{Attr: "Age", Op: cond.OpGe, Val: cond.Int(19)},
				)
			}
		}
	}
	return m
}

func personAgeState() *state.ClientState {
	return workload.PartitionedAgeState()
}
