package cqt_test

import (
	"context"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/state"
)

// The evaluation semantics of query trees, pinned on a small fixture. Each
// expression runs through both evaluators — the reference tree-walker in
// internal/difftest and the streaming executor — which must agree.

// eval evaluates q through both evaluators, fails the test if they
// disagree on the rows or on whether evaluation errs, and returns the
// reference result.
func eval(t *testing.T, env *difftest.Env, q cqt.Expr) (*cqt.Result, error) {
	t.Helper()
	want, err := difftest.Eval(env, q)
	xenv := &exec.Env{Catalog: env.Catalog, Client: env.Client}
	if env.Store != nil {
		xenv.Store = exec.NewMapStore(env.Store)
	}
	it, xerr := exec.Open(context.Background(), xenv, q, exec.Options{BatchSize: 1})
	var got *cqt.Result
	if xerr == nil {
		got, xerr = exec.Collect(it)
	}
	if (err == nil) != (xerr == nil) {
		t.Fatalf("evaluators disagree on %s: reference error %v, executor error %v", cqt.Format(q), err, xerr)
	}
	if err == nil && !state.EqualRows(want.Rows, got.Rows) {
		t.Fatalf("evaluators disagree on %s:\n%v\nvs\n%v", cqt.Format(q), want.Rows, got.Rows)
	}
	return want, err
}

func fixtureEnv(t *testing.T) *difftest.Env {
	t.Helper()
	cat := cqt.FixtureCatalog(t)
	store := state.NewStoreState()
	store.InsertRow("HR", state.Row{"Id": cond.Int(1), "Name": cond.String("ann")})
	store.InsertRow("HR", state.Row{"Id": cond.Int(2), "Name": cond.String("bob")})
	store.InsertRow("Emp", state.Row{"Id": cond.Int(2), "Dept": cond.String("hw")})

	client := state.NewClientState()
	client.Insert("Persons", &state.Entity{Type: "Person", Attrs: state.Row{"Id": cond.Int(1), "Name": cond.String("ann")}})
	client.Insert("Persons", &state.Entity{Type: "Employee", Attrs: state.Row{"Id": cond.Int(2), "Name": cond.String("bob"), "Department": cond.String("hw")}})
	client.Insert("Persons", &state.Entity{Type: "Customer", Attrs: state.Row{"Id": cond.Int(3), "Name": cond.String("cyd"), "CredScore": cond.Int(700)}})
	client.Relate("Supports", state.AssocPair{Ends: state.Row{"Customer_Id": cond.Int(3), "Employee_Id": cond.Int(2)}})

	return &difftest.Env{Catalog: cat, Client: client, Store: store}
}

func TestScanTableAndSelect(t *testing.T) {
	env := fixtureEnv(t)
	q := cqt.Select{In: cqt.ScanTable{Table: "HR"}, Cond: cond.Cmp{Attr: "Id", Op: cond.OpGe, Val: cond.Int(2)}}
	res, err := eval(t, env, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["Name"].Str() != "bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestScanSetWithTypeConditions(t *testing.T) {
	env := fixtureEnv(t)
	q := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Person"}},
		Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.Col("Name")},
	}
	res, err := eval(t, env, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("IS OF Person should see derived types, got %d rows", len(res.Rows))
	}
	only := cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Person", Only: true}}
	res, err = eval(t, env, only)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("IS OF ONLY Person, got %d rows", len(res.Rows))
	}
}

func TestScanAssoc(t *testing.T) {
	env := fixtureEnv(t)
	res, err := eval(t, env, cqt.ScanAssoc{Assoc: "Supports"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || len(res.Rows) != 1 {
		t.Fatalf("cols=%v rows=%v", res.Cols, res.Rows)
	}
	if res.Rows[0]["Customer_Id"].IntVal() != 3 {
		t.Fatalf("assoc row = %v", res.Rows[0])
	}
}

func TestProjectWithLiterals(t *testing.T) {
	env := fixtureEnv(t)
	q := cqt.Project{
		In: cqt.ScanTable{Table: "Emp"},
		Cols: []cqt.ProjCol{
			cqt.Col("Id"),
			cqt.ColAs("Dept", "Department"),
			cqt.LitAs(cqt.Const(cond.Bool(true)), "from_Emp"),
			cqt.LitAs(cqt.NullOf(cond.KindString), "BillAddr"),
		},
	}
	res, err := eval(t, env, q)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row["Department"].Str() != "hw" || !row["from_Emp"].BoolVal() {
		t.Fatalf("row = %v", row)
	}
	if _, ok := row["BillAddr"]; ok {
		t.Fatalf("BillAddr should be NULL")
	}
}

func TestLeftOuterJoinAndConstructor(t *testing.T) {
	env := fixtureEnv(t)
	view := cqt.PersonQueryView()
	ents, err := difftest.ConstructEntities(env, view)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("got %d entities", len(ents))
	}
	byID := map[int64]*state.Entity{}
	for _, e := range ents {
		byID[e.Attrs["Id"].IntVal()] = e
	}
	if byID[1].Type != "Person" || byID[2].Type != "Employee" {
		t.Fatalf("types = %v / %v", byID[1].Type, byID[2].Type)
	}
	if byID[2].Attrs["Department"].Str() != "hw" {
		t.Fatalf("employee attrs = %v", byID[2].Attrs)
	}
}

func TestFullOuterJoin(t *testing.T) {
	env := fixtureEnv(t)
	env.Store.InsertRow("Emp", state.Row{"Id": cond.Int(9), "Dept": cond.String("orphan")})
	q := cqt.Join{
		Kind: cqt.FullOuter,
		L:    cqt.ScanTable{Table: "HR"},
		R: cqt.Project{
			In:   cqt.ScanTable{Table: "Emp"},
			Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.ColAs("Dept", "Department")},
		},
		On: [][2]string{{"Id", "Id"}},
	}
	res, err := eval(t, env, q)
	if err != nil {
		t.Fatal(err)
	}
	// ann (left only), bob (matched), orphan (right only).
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionAll(t *testing.T) {
	env := fixtureEnv(t)
	a := cqt.Project{In: cqt.ScanTable{Table: "HR"}, Cols: []cqt.ProjCol{cqt.Col("Id")}}
	b := cqt.Project{In: cqt.ScanTable{Table: "Emp"}, Cols: []cqt.ProjCol{cqt.Col("Id")}}
	res, err := eval(t, env, cqt.UnionAll{Inputs: []cqt.Expr{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Mismatched columns must fail.
	bad := cqt.UnionAll{Inputs: []cqt.Expr{a, cqt.ScanTable{Table: "Emp"}}}
	if _, err := eval(t, env, bad); err == nil {
		t.Fatal("union with mismatched columns accepted")
	}
}

func TestJoinSharedColumnGuard(t *testing.T) {
	env := fixtureEnv(t)
	// HR and Emp share only "Id"; joining on nothing must be rejected.
	q := cqt.Join{Kind: cqt.Inner, L: cqt.ScanTable{Table: "HR"}, R: cqt.ScanTable{Table: "Emp"}}
	if _, err := eval(t, env, q); err == nil {
		t.Fatal("join with unequated shared column accepted")
	}
}

func TestUpdateViewEvaluation(t *testing.T) {
	env := fixtureEnv(t)
	// Q_Emp from §2.2: project employees of the Persons set.
	q := cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: "Persons"}, Cond: cond.TypeIs{Type: "Employee"}},
		Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.ColAs("Department", "Dept")},
	}
	res, err := eval(t, env, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["Dept"].Str() != "hw" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	env := fixtureEnv(t)
	view := cqt.PersonQueryView()
	before, err := eval(t, env, view.Q)
	if err != nil {
		t.Fatal(err)
	}
	after, err := eval(t, env, cqt.Simplify(env.Catalog, view.Q))
	if err != nil {
		t.Fatal(err)
	}
	if !state.EqualRows(before.Rows, after.Rows) {
		t.Fatalf("simplification changed semantics:\n%v\nvs\n%v", before.Rows, after.Rows)
	}
}

func TestEvalErrorsOnUnknownTargets(t *testing.T) {
	cat := cqt.FixtureCatalog(t)
	env := &difftest.Env{Catalog: cat, Store: state.NewStoreState(), Client: state.NewClientState()}
	if _, err := eval(t, env, cqt.ScanTable{Table: "Nope"}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := eval(t, env, cqt.ScanSet{Set: "Nope"}); err == nil {
		t.Error("unknown set accepted")
	}
	if _, err := eval(t, env, cqt.ScanAssoc{Assoc: "Nope"}); err == nil {
		t.Error("unknown association accepted")
	}
	if _, err := eval(t, env, cqt.Project{In: cqt.ScanTable{Table: "HR"}, Cols: []cqt.ProjCol{cqt.Col("Ghost")}}); err != nil {
		// Projecting an absent column yields NULL rather than an error
		// (absent map keys are NULL); ensure it does not crash.
		t.Errorf("projection of absent column errored: %v", err)
	}
}

func TestEvalWithoutStateErrors(t *testing.T) {
	cat := cqt.FixtureCatalog(t)
	if _, err := eval(t, &difftest.Env{Catalog: cat}, cqt.ScanTable{Table: "HR"}); err == nil {
		t.Error("table scan without store accepted")
	}
	if _, err := eval(t, &difftest.Env{Catalog: cat}, cqt.ScanSet{Set: "Persons"}); err == nil {
		t.Error("set scan without client accepted")
	}
}
