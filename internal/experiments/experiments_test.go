package experiments

import (
	"fmt"
	"testing"

	"github.com/ormkit/incmap/internal/workload"
)

// TestFig9SuiteSmall runs the full Figure 9 pipeline on a small chain and
// checks the headline shape: every SMO compiles faster than the full
// compilation. AE-TPC is legitimately rejected on this model — every chain
// entity participates in associations, so a TPC subtype removes its keys
// from the endpoint tables, the Figure 6 scenario the paper reports as the
// common validation failure (§4.2).
func TestFig9SuiteSmall(t *testing.T) {
	full, suite := Fig9(60)
	if full.Err != nil {
		t.Fatalf("full compile failed: %v", full.Err)
	}
	if len(suite) != 9 {
		t.Fatalf("suite has %d ops, want 9", len(suite))
	}
	for _, r := range suite {
		if r.Err != nil && r.Name != "AE-TPC" {
			t.Errorf("%s rejected: %v", r.Name, r.Err)
		}
		if r.Name == "AE-TPC" && r.Err == nil {
			t.Errorf("AE-TPC under an association endpoint should be rejected on the chain model")
		}
		if r.D >= full.D {
			t.Errorf("%s (%v) not faster than full compilation (%v)", r.Name, r.D, full.D)
		}
	}
}

// TestFig10SuiteSmall runs the Figure 10 pipeline on a scaled-down
// customer model. AE-TPC under an association endpoint may legitimately be
// rejected (§4.2 reports exactly that); everything else must pass.
func TestFig10SuiteSmall(t *testing.T) {
	opt := workload.CustomerOptions{
		Types: 60, Hierarchies: 8, LargestTPH: 25, Associations: 8, SharedTableFKs: 2,
	}
	full, suite := Fig10(opt)
	if full.Err != nil {
		t.Fatalf("full compile failed: %v", full.Err)
	}
	for _, r := range suite {
		if r.Err != nil && r.Name != "AE-TPC" {
			t.Errorf("%s rejected: %v", r.Name, r.Err)
		}
		if r.D >= full.D {
			t.Errorf("%s (%v) not faster than full compilation (%v)", r.Name, r.D, full.D)
		}
	}
}

// TestFig4GridTiny checks the Figure 4 shape on a tiny grid: TPH
// compilation time grows with M while TPT stays near-constant.
func TestFig4GridTiny(t *testing.T) {
	rows := Fig4(Fig4Options{MaxN: 2, MaxM: 3, PointBudget: 5e9})
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.TPHErr != nil || r.TPTErr != nil {
			t.Fatalf("N=%d M=%d failed: %v %v", r.N, r.M, r.TPHErr, r.TPTErr)
		}
	}
	last := rows[len(rows)-1]
	first := rows[0]
	if last.TPH <= first.TPH {
		t.Errorf("TPH curve not increasing: %v .. %v", first.TPH, last.TPH)
	}
	if last.TPT > 20*first.TPT+2e8 {
		t.Errorf("TPT curve not flat: %v .. %v", first.TPT, last.TPT)
	}
}

func TestAblations(t *testing.T) {
	cp := AblationCellPruning(2, 2)
	if len(cp) != 2 || cp[0].Err != nil || cp[1].Err != nil {
		t.Fatalf("cell pruning ablation failed: %+v", cp)
	}
	sim := AblationSimplifier(30)
	if len(sim) != 2 || sim[0].Err != nil {
		t.Fatalf("simplifier ablation failed: %+v", sim)
	}
	// Without the outer-join eliminations the conservative containment
	// approximations reject this valid SMO: the simplifier is needed for
	// completeness, not only for speed.
	if sim[1].Err == nil {
		t.Error("unsimplified containment accepted the SMO")
	}
	nb := AblationNeighbourhood(30)
	if len(nb) != 2 || nb[0].Err != nil || nb[1].Err != nil {
		t.Fatalf("neighbourhood ablation failed: %+v", nb)
	}
	var narrow, wide int
	fmt.Sscanf(nb[0].Note, "containments=%d", &narrow)
	fmt.Sscanf(nb[1].Note, "containments=%d", &wide)
	if narrow != 1 || wide <= narrow {
		t.Errorf("neighbourhood validation ran %d containments, all constraints %d; want 1 and more", narrow, wide)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Name: "AE-TPT", D: 1.5e9, Note: "containments=3"}
	if s := r.String(); s == "" {
		t.Fatal("empty result string")
	}
}
