package core

import (
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// compiled returns the paper's initial model (Example 1) fully compiled.
func compiled(t *testing.T) (*frag.Mapping, *frag.Views) {
	t.Helper()
	m := workload.PaperInitial()
	views, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, views
}

// employeeSMO is the AddEntity of Example 1: Employee TPT on Emp.
func employeeSMO() *AddEntity {
	return AddEntityTPT("Employee", "Person",
		[]edm.Attribute{{Name: "Department", Type: cond.KindString, Nullable: true}},
		"Emp", map[string]string{"Id": "Id", "Department": "Dept"})
}

// customerSMO is the AddEntity of Example 4: Customer TPC on Client.
func customerSMO() *AddEntity {
	return AddEntityTPC("Customer", "Person",
		[]edm.Attribute{
			{Name: "CredScore", Type: cond.KindInt, Nullable: true},
			{Name: "BillAddr", Type: cond.KindString, Nullable: true},
		},
		"Client", map[string]string{
			"Id": "Cid", "Name": "Name", "CredScore": "Score", "BillAddr": "Addr",
		})
}

// supportsSMO is the AddAssocFK of Example 7.
func supportsSMO() *AddAssociationFK {
	return &AddAssociationFK{
		Name: "Supports",
		E1:   "Customer", Mult1: edm.Many,
		E2: "Employee", Mult2: edm.ZeroOne,
		Table:    "Client",
		KeyCols1: []string{"Cid"},
		KeyCols2: []string{"Eid"},
	}
}

// TestExamples1Through7 replays the paper's running example end to end:
// start from Person→HR, add Employee (TPT), Customer (TPC) and the
// Supports association (FK), and verify the evolved views roundtrip the
// full client state of Figure 1.
func TestExamples1Through7(t *testing.T) {
	m, v := compiled(t)
	ic := NewIncremental()
	m, v, err := ic.ApplyAll(m, v, employeeSMO(), customerSMO(), supportsSMO())
	if err != nil {
		t.Fatal(err)
	}
	if err := orm.Roundtrip(m, v, workload.PaperClientState()); err != nil {
		t.Fatal(err)
	}
	// The adapted ϕ1 must be the ϕ1' of Example 5.
	var phi1 *frag.Fragment
	for _, f := range m.Frags {
		if f.ID == "phi1" {
			phi1 = f
		}
	}
	got := phi1.ClientCond.String()
	if !strings.Contains(got, "ONLY Person") || !strings.Contains(got, "IS OF Employee") {
		t.Errorf("phi1 not adapted per Example 5: %s", got)
	}
	if strings.Contains(got, "Customer") {
		t.Errorf("phi1 must exclude Customer: %s", got)
	}
}

// TestIncrementalMatchesFullCompilation checks that the incrementally
// evolved views are semantically equivalent to a full compilation of the
// final mapping: both load the same client state from the same store.
func TestIncrementalMatchesFullCompilation(t *testing.T) {
	m, v := compiled(t)
	ic := NewIncremental()
	m, v, err := ic.ApplyAll(m, v, employeeSMO(), customerSMO(), supportsSMO())
	if err != nil {
		t.Fatal(err)
	}

	full := workload.PaperFull()
	fullViews, err := compiler.New().Compile(full)
	if err != nil {
		t.Fatal(err)
	}

	cs := workload.PaperClientState()
	ss, err := orm.Materialize(full, fullViews, cs)
	if err != nil {
		t.Fatal(err)
	}
	viaIncremental, err := orm.Load(m, v, ss)
	if err != nil {
		t.Fatal(err)
	}
	viaFull, err := orm.Load(full, fullViews, ss)
	if err != nil {
		t.Fatal(err)
	}
	if d := state.Diff(viaIncremental, viaFull); d != "" {
		t.Fatalf("incremental and full views disagree:\n%s", d)
	}
}

func TestAddEntityRejectsUsedTable(t *testing.T) {
	m, v := compiled(t)
	op := AddEntityTPT("Employee", "Person", nil, "HR", map[string]string{"Id": "Id"})
	if _, _, err := NewIncremental().Apply(m, v, op); err == nil {
		t.Fatal("AddEntity into an already-mapped table accepted")
	}
}

func TestAddEntityRejectsBadKeyMapping(t *testing.T) {
	m, v := compiled(t)
	op := AddEntityTPT("Employee", "Person",
		[]edm.Attribute{{Name: "Department", Type: cond.KindString, Nullable: true}},
		"Emp", map[string]string{"Id": "Dept", "Department": "Id"})
	if _, _, err := NewIncremental().Apply(m, v, op); err == nil {
		t.Fatal("AddEntity with non-key key mapping accepted")
	}
}

func TestAddEntityRejectsKindMismatch(t *testing.T) {
	m, v := compiled(t)
	op := AddEntityTPT("Employee", "Person",
		[]edm.Attribute{{Name: "Department", Type: cond.KindInt, Nullable: true}},
		"Emp", map[string]string{"Id": "Id", "Department": "Dept"})
	if _, _, err := NewIncremental().Apply(m, v, op); err == nil {
		t.Fatal("AddEntity with kind mismatch accepted")
	}
}

// TestFigure6Violation reproduces the foreign-key violation scenario of
// Figure 6: after Supports exists, a TPC type derived from Employee can
// participate in the association, but its keys are only stored in its own
// table, never in Emp, so Client.Eid → Emp.Id breaks and validation must
// abort the SMO.
func TestFigure6Violation(t *testing.T) {
	m, v := compiled(t)
	ic := NewIncremental()
	m, v, err := ic.ApplyAll(m, v, employeeSMO(), customerSMO(), supportsSMO())
	if err != nil {
		t.Fatal(err)
	}
	// Add a fresh table for the TPC contractor.
	m2 := m.Clone()
	if err := m2.Store.AddTable(relTableContractors()); err != nil {
		t.Fatal(err)
	}
	op := AddEntityTPC("Contractor", "Employee",
		nil,
		"Contractors", map[string]string{
			"Id": "Id", "Name": "Name", "Department": "Dept",
		})
	_, _, err = ic.Apply(m2, v, op)
	if err == nil {
		t.Fatal("Figure 6 scenario accepted: TPC type under an association endpoint must fail validation")
	}
	if !strings.Contains(err.Error(), "check 1") && !strings.Contains(err.Error(), "foreign key") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestTPTUnderAssociationEndpointAccepted contrasts Figure 6: the same new
// type mapped TPT keeps its inherited data in the endpoint's tables, so
// validation succeeds.
func TestTPTUnderAssociationEndpointAccepted(t *testing.T) {
	m, v := compiled(t)
	ic := NewIncremental()
	m, v, err := ic.ApplyAll(m, v, employeeSMO(), customerSMO(), supportsSMO())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store.AddTable(relTableContractors()); err != nil {
		t.Fatal(err)
	}
	op := AddEntityTPT("Contractor", "Employee",
		[]edm.Attribute{{Name: "Agency", Type: cond.KindString, Nullable: true}},
		"Contractors", map[string]string{"Id": "Id", "Agency": "Name"})
	m, v, err = ic.Apply(m, v, op)
	if err != nil {
		t.Fatal(err)
	}
	// Contractors roundtrip, including association participation.
	cs := workload.PaperClientState()
	cs.Insert("Persons", &state.Entity{Type: "Contractor", Attrs: state.Row{
		"Id": cond.Int(9), "Name": cond.String("gil"), "Department": cond.String("ops"),
		"Agency": cond.String("acme")}})
	cs.Relate("Supports", state.AssocPair{Ends: state.Row{
		"Customer_Id": cond.Int(5), "Employee_Id": cond.Int(9)}})
	if err := orm.Roundtrip(m, v, cs); err != nil {
		t.Fatal(err)
	}
}

func relTableContractors() rel.Table {
	return rel.Table{
		Name: "Contractors",
		Cols: []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Name", Type: cond.KindString, Nullable: true},
			{Name: "Dept", Type: cond.KindString, Nullable: true},
		},
		Key: []string{"Id"},
	}
}

// TestTPHHierarchy builds a hierarchy mapped TPH through incremental SMOs
// and verifies roundtripping.
func TestTPHHierarchy(t *testing.T) {
	m, v, ic := tphBase(t)
	cs := state.NewClientState()
	cs.Insert("Vehicles", &state.Entity{Type: "Vehicle", Attrs: state.Row{
		"Id": cond.Int(1), "Make": cond.String("generic")}})
	cs.Insert("Vehicles", &state.Entity{Type: "Car", Attrs: state.Row{
		"Id": cond.Int(2), "Make": cond.String("zip"), "Doors": cond.Int(5)}})
	cs.Insert("Vehicles", &state.Entity{Type: "Truck", Attrs: state.Row{
		"Id": cond.Int(3), "Make": cond.String("haul"), "Axles": cond.Int(3)}})
	if err := orm.Roundtrip(m, v, cs); err != nil {
		t.Fatal(err)
	}
	_ = ic
}

func TestTPHDuplicateDiscriminatorRejected(t *testing.T) {
	m, v, ic := tphBase(t)
	op := AddEntityTPH("Van", "Vehicle",
		[]edm.Attribute{},
		"AllVehicles", "Disc", cond.String("Car"), // reuses Car's discriminator
		map[string]string{"Id": "Id", "Make": "Make"})
	if _, _, err := ic.Apply(m, v, op); err == nil {
		t.Fatal("duplicate discriminator value accepted")
	}
}

// tphBase builds Vehicle(TPH root) + Car + Truck in one table.
func tphBase(t *testing.T) (*frag.Mapping, *frag.Views, *Incremental) {
	t.Helper()
	c := edm.NewSchema()
	if err := c.AddType(edm.EntityType{
		Name: "Vehicle",
		Attrs: []edm.Attribute{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Make", Type: cond.KindString, Nullable: true},
		},
		Key: []string{"Id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSet(edm.EntitySet{Name: "Vehicles", Type: "Vehicle"}); err != nil {
		t.Fatal(err)
	}
	s := rel.NewSchema()
	if err := s.AddTable(rel.Table{
		Name: "AllVehicles",
		Cols: []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Make", Type: cond.KindString, Nullable: true},
			{Name: "Disc", Type: cond.KindString,
				Enum: []cond.Value{cond.String("Vehicle"), cond.String("Car"), cond.String("Truck"), cond.String("Van")}},
			{Name: "Doors", Type: cond.KindInt, Nullable: true},
			{Name: "Axles", Type: cond.KindInt, Nullable: true},
		},
		Key: []string{"Id"},
	}); err != nil {
		t.Fatal(err)
	}
	m := &frag.Mapping{Client: c, Store: s}
	m.Frags = append(m.Frags, &frag.Fragment{
		ID:         "f_Vehicle",
		Set:        "Vehicles",
		ClientCond: cond.TypeIs{Type: "Vehicle"},
		Attrs:      []string{"Id", "Make"},
		Table:      "AllVehicles",
		StoreCond:  cond.Cmp{Attr: "Disc", Op: cond.OpEq, Val: cond.String("Vehicle")},
		ColOf:      map[string]string{"Id": "Id", "Make": "Make"},
	})
	views, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ic := NewIncremental()
	m, views, err = ic.ApplyAll(m, views,
		AddEntityTPH("Car", "Vehicle",
			[]edm.Attribute{{Name: "Doors", Type: cond.KindInt, Nullable: true}},
			"AllVehicles", "Disc", cond.String("Car"),
			map[string]string{"Id": "Id", "Make": "Make", "Doors": "Doors"}),
		AddEntityTPH("Truck", "Vehicle",
			[]edm.Attribute{{Name: "Axles", Type: cond.KindInt, Nullable: true}},
			"AllVehicles", "Disc", cond.String("Truck"),
			map[string]string{"Id": "Id", "Make": "Make", "Axles": "Axles"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m, views, ic
}

// TestSoundnessRestriction checks the §2.3 requirement: old client states
// (with the new type's extension empty) satisfy the adapted mapping
// exactly when they satisfied the original.
func TestSoundnessRestriction(t *testing.T) {
	m, v := compiled(t)
	old := state.NewClientState()
	old.Insert("Persons", &state.Entity{Type: "Person", Attrs: state.Row{
		"Id": cond.Int(1), "Name": cond.String("ann")}})
	ssOld, err := orm.Materialize(m, v, old)
	if err != nil {
		t.Fatal(err)
	}
	okOld, err := difftest.SatisfiedBy(m, old, ssOld)
	if err != nil || !okOld {
		t.Fatalf("old state does not satisfy old mapping: %v %v", okOld, err)
	}

	ic := NewIncremental()
	m2, _, err := ic.Apply(m, v, employeeSMO())
	if err != nil {
		t.Fatal(err)
	}
	okNew, err := difftest.SatisfiedBy(m2, old, ssOld)
	if err != nil || !okNew {
		t.Fatalf("f(c) does not satisfy adapted mapping: %v %v", okNew, err)
	}
}

func TestFormatEvolvedPersonView(t *testing.T) {
	m, v := compiled(t)
	ic := NewIncremental()
	m, v, err := ic.ApplyAll(m, v, employeeSMO(), customerSMO())
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	out := cqt.FormatView(v.Query["Person"])
	// The evolved Person view has the Figure 2 shape: LOJ + UNION ALL with
	// an if/else constructor.
	for _, want := range []string{"LEFT OUTER JOIN", "UNION ALL", "Customer(", "Employee(", "Person("} {
		if !strings.Contains(out, want) {
			t.Errorf("evolved Person view missing %q:\n%s", want, out)
		}
	}
}

// TestAddEntityWithAncestorGap exercises the general AddEntity form the
// paper's SMO allows: P is a strict ancestor above the parent, so α must
// cover the in-between type's attributes too, and the in-between type's
// query view evolves through the union path of Algorithm 1 while the
// root's evolves through the left-outer-join path.
func TestAddEntityWithAncestorGap(t *testing.T) {
	m, v := compiled(t)
	ic := NewIncremental()
	m, v, err := ic.Apply(m, v, employeeSMO())
	if err != nil {
		t.Fatal(err)
	}
	// Senior derives from Employee but references P = Person: its
	// Department (normally inherited via Employee's table) is re-mapped
	// into its own table together with its new Level attribute.
	if err := m.Store.AddTable(rel.Table{
		Name: "Seniors",
		Cols: []rel.Column{
			{Name: "Id", Type: cond.KindInt},
			{Name: "Dept", Type: cond.KindString, Nullable: true},
			{Name: "Level", Type: cond.KindInt, Nullable: true},
		},
		Key: []string{"Id"},
	}); err != nil {
		t.Fatal(err)
	}
	op := &AddEntity{
		Name: "Senior", Parent: "Employee",
		DeclAttrs: []edm.Attribute{{Name: "Level", Type: cond.KindInt, Nullable: true}},
		Alpha:     []string{"Id", "Department", "Level"},
		P:         "Person",
		Table:     "Seniors",
		ColOf:     map[string]string{"Id": "Id", "Department": "Dept", "Level": "Level"},
		StoreCond: cond.True{},
	}
	m, v, err = ic.Apply(m, v, op)
	if err != nil {
		t.Fatal(err)
	}

	// The Employee fragment must now exclude Senior (rule 13/14): senior
	// departments live in Seniors, not Emp.
	th := m.Client.TheoryFor("Persons")
	for _, f := range m.Frags {
		if f.Table == "Emp" {
			if cond.Satisfiable(th, cond.NewAnd(f.ClientCond, cond.TypeIs{Type: "Senior", Only: true})) {
				t.Fatalf("Emp fragment still covers Senior: %s", f.ClientCond)
			}
		}
	}

	cs := state.NewClientState()
	cs.Insert("Persons", &state.Entity{Type: "Person", Attrs: state.Row{
		"Id": cond.Int(1), "Name": cond.String("p")}})
	cs.Insert("Persons", &state.Entity{Type: "Employee", Attrs: state.Row{
		"Id": cond.Int(2), "Name": cond.String("e"), "Department": cond.String("hw")}})
	cs.Insert("Persons", &state.Entity{Type: "Senior", Attrs: state.Row{
		"Id": cond.Int(3), "Name": cond.String("s"), "Department": cond.String("mgmt"),
		"Level": cond.Int(4)}})
	if err := orm.Roundtrip(m, v, cs); err != nil {
		t.Fatal(err)
	}

	// Storage shape: the senior's name is in HR (mapped like Person), but
	// its department is in Seniors, not Emp.
	ss, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Tables["Emp"]) != 1 {
		t.Fatalf("Emp rows = %v", ss.Tables["Emp"])
	}
	if len(ss.Tables["Seniors"]) != 1 || ss.Tables["Seniors"][0]["Dept"].Str() != "mgmt" {
		t.Fatalf("Seniors rows = %v", ss.Tables["Seniors"])
	}
	if len(ss.Tables["HR"]) != 3 {
		t.Fatalf("HR rows = %v", ss.Tables["HR"])
	}
}
