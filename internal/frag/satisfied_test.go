package frag_test

import (
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
)

func TestSatisfiedBy(t *testing.T) {
	m := frag.FixtureMapping(t)
	cs := state.NewClientState()
	cs.Insert("Persons", &state.Entity{Type: "Employee", Attrs: state.Row{
		"Id": cond.Int(1), "Name": cond.String("a"), "Department": cond.String("d")}})
	ss := state.NewStoreState()
	ss.InsertRow("HR", state.Row{"Id": cond.Int(1), "Name": cond.String("a")})
	ss.InsertRow("Emp", state.Row{"Id": cond.Int(1), "Dept": cond.String("d")})

	ok, err := difftest.SatisfiedBy(m, cs, ss)
	if err != nil || !ok {
		t.Fatalf("consistent pair rejected: %v %v", ok, err)
	}
	// Remove the Emp row: the second equation breaks.
	ss.Tables["Emp"] = nil
	ok, err = difftest.SatisfiedBy(m, cs, ss)
	if err != nil || ok {
		t.Fatalf("inconsistent pair accepted: %v %v", ok, err)
	}
}
