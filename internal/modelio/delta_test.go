package modelio_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/difftest"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/workload"
)

// generationPayload returns the payload EncodeGeneration writes for (m, v).
func generationPayload(t *testing.T, m *frag.Mapping, v *frag.Views) []byte {
	t.Helper()
	p, err := modelio.EncodeGeneration(m, v)
	if err != nil {
		t.Fatal(err)
	}
	return p.AppendTo(nil)
}

// checkDelta holds (m, v), written as a delta against (bm, bv), to the
// delta oracle (difftest.CheckDelta) and returns the delta.
func checkDelta(t *testing.T, what string, bm *frag.Mapping, bv *frag.Views, m *frag.Mapping, v *frag.Views) []byte {
	t.Helper()
	delta, err := difftest.CheckDelta(bm, bv, m, v)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return delta
}

// TestDeltaEdgeCases holds the delta oracle on generations that share
// nothing with their base, share everything with it, and on a base whose
// lists are empty, and checks that a generation sharing everything writes
// only runs.
func TestDeltaEdgeCases(t *testing.T) {
	compiled := func(m *frag.Mapping) (*frag.Mapping, *frag.Views) {
		v, err := compiler.New().Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		m.Freeze()
		v.Freeze()
		return m, v
	}
	cm, cv := compiled(workload.Chain(6))
	pm, pv := compiled(workload.PaperFull())
	checkDelta(t, "unrelated generation", cm, cv, pm, pv)
	empty := &frag.Mapping{Client: edm.NewSchema(), Store: rel.NewSchema()}
	checkDelta(t, "empty base", empty, frag.NewViews(), pm, pv)
	checkDelta(t, "empty generation", pm, pv, empty, frag.NewViews())
	same := checkDelta(t, "the base itself", pm, pv, pm, pv)
	if bytes.Contains(same, []byte("{\"name\"")) || bytes.Contains(same, []byte(`{"q"`)) {
		t.Fatalf("a delta of the base against itself writes entries: %s", same)
	}
	clone := checkDelta(t, "a clone", pm, pv, pm.Clone(), pv.Clone())
	if !bytes.Equal(clone, same) {
		t.Fatalf("a clone's delta %s differs from the base's %s", clone, same)
	}
	checkDelta(t, "a deep copy", pm, pv, pm.DeepClone(), pv.DeepClone())
}

// TestApplyDeltaRejects checks that a delta whose runs leave the base's
// lists, repeat its entries or are not counts, or whose layout departs
// from AppendDelta's, fails without a payload.
func TestApplyDeltaRejects(t *testing.T) {
	m := workload.Chain(3)
	v, err := compiler.New().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	base := generationPayload(t, m, v)
	good, err := modelio.AppendDelta(nil, "b", "s", m, v, m, v, modelio.NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.ApplyDelta(base, good); err != nil {
		t.Fatalf("the delta of the base against itself does not apply: %v", err)
	}
	for name, delta := range map[string]string{
		"past the end":    strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[1,3]]`, 1),
		"empty run":       strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[0,0]]`, 1),
		"negative start":  strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[-1,2]]`, 1),
		"repeated entry":  strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[0,3],[0,1]]`, 1),
		"fraction":        strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[0.5,1]]`, 1),
		"huge count":      strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[0,99999999999999999999]]`, 1),
		"long run":        strings.Replace(string(good), `"types":[[0,3]]`, `"types":[[0,1,2]]`, 1),
		"string entry":    strings.Replace(string(good), `"types":[[0,3]]`, `"types":["x"]`, 1),
		"two views":       strings.Replace(string(good), `"query":[`, `"query":[{"a":{},"b":{}},`, 1),
		"no view":         strings.Replace(string(good), `"query":[`, `"query":[{},`, 1),
		"missing list":    strings.Replace(string(good), `,"update":`, `,"updates":`, 1),
		"trailing":        string(good) + "x",
		"no head":         strings.Replace(string(good), `{"base":"b","sum":"s",`, `{`, 1),
		"truncated":       string(good[:len(good)/2]),
		"reordered lists": strings.Replace(strings.Replace(string(good), `"types"`, `"tmp"`, 1), `"sets"`, `"types"`, 1),
	} {
		if delta == string(good) {
			t.Fatalf("%s: the mutation did not apply to %s", name, good)
		}
		if out, err := modelio.ApplyDelta(base, []byte(delta)); err == nil {
			t.Errorf("%s: ApplyDelta accepted %s (%d bytes out)", name, delta, len(out))
		}
	}
	if _, err := modelio.ApplyDelta(base[:len(base)-1], good); err == nil {
		t.Error("ApplyDelta accepted a truncated base")
	}
	if _, err := modelio.ApplyDelta(good, good); err == nil {
		t.Error("ApplyDelta accepted a delta as its base")
	}
	if fp, sum, err := modelio.DeltaBase(good[:len(`{"base":"b","sum":"s"`)]); err != nil || fp != "b" || sum != "s" {
		t.Errorf("DeltaBase of a delta's head = %q, %q, %v", fp, sum, err)
	}
}

// TestAppendDeltaStopsAtLimit checks that a delta over its limit is
// reported as such and built only up to the limit plus one list element,
// and that a limit it fits in leaves the delta as NoLimit builds it.
func TestAppendDeltaStopsAtLimit(t *testing.T) {
	compiled := func(m *frag.Mapping) (*frag.Mapping, *frag.Views) {
		v, err := compiler.New().Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		return m, v
	}
	// A chain shares nothing with the paper's model, so every list of its
	// delta holds many entries: an AppendDelta that checked the limit only
	// between lists would overshoot by a whole list.
	bm, bv := compiled(workload.PaperFull())
	m, v := compiled(workload.Chain(chainSize))
	full, err := modelio.AppendDelta(nil, "b", "s", bm, bv, m, v, modelio.NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	var lists map[string]json.RawMessage
	if err := json.Unmarshal(full, &lists); err != nil {
		t.Fatal(err)
	}
	largest := 0 // the longest list element
	for name, raw := range lists {
		var elems []json.RawMessage
		if name == "base" || name == "sum" {
			continue
		}
		if err := json.Unmarshal(raw, &elems); err != nil {
			t.Fatal(err)
		}
		for _, e := range elems {
			largest = max(largest, len(e))
		}
	}
	prefix := []byte("head")
	for _, limit := range []int{0, 10, len(full) / 4, len(full) / 2, len(full) - 1} {
		out, err := modelio.AppendDelta(prefix, "b", "s", bm, bv, m, v, limit)
		if !errors.Is(err, modelio.ErrDeltaOverLimit) {
			t.Fatalf("limit %d of a %d-byte delta: err = %v, want ErrDeltaOverLimit", limit, len(full), err)
		}
		// Between one limit check and the next, AppendDelta appends one
		// element, plus list brackets, names and runs of a few bytes each.
		if built := len(out) - len(prefix); built > limit+largest+256 {
			t.Fatalf("limit %d: built %d bytes; the longest element is %d", limit, built, largest)
		}
	}
	for _, limit := range []int{len(full), 2 * len(full)} {
		out, err := modelio.AppendDelta(prefix, "b", "s", bm, bv, m, v, limit)
		if err != nil || !bytes.Equal(out[len(prefix):], full) {
			t.Fatalf("limit %d of a %d-byte delta: err = %v, delta differs: %t", limit, len(full), err, !bytes.Equal(out[len(prefix):], full))
		}
	}
}
