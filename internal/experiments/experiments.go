// Package experiments implements the paper's evaluation (§4): the
// Figure 4 hub-and-rim compilation-time grid, the Figure 9 SMO suite on
// the 1002-entity chain model, the Figure 10 SMO suite on the synthetic
// customer model, the ablation studies listed in DESIGN.md and the §6
// view study. The mapbench command prints the same series the paper
// reports; the committed benchmark in bench/ drives the same SMO suite.
package experiments

import (
	"fmt"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/frag"
)

// Result is one measured point.
type Result struct {
	// Name labels the point (an SMO mnemonic or a parameter tuple).
	Name string
	// D is the wall-clock duration of the operation.
	D time.Duration
	// Err is non-nil when the operation failed validation (the paper also
	// reports failing SMOs; their rejection time is still meaningful).
	Err error
	// Note carries auxiliary information (cells visited, containments).
	Note string
}

// String formats the result as a table row.
func (r Result) String() string {
	status := "ok"
	if r.Err != nil {
		status = "rejected"
	}
	if r.Note != "" {
		return fmt.Sprintf("%-14s %12.6fs  %-9s %s", r.Name, r.D.Seconds(), status, r.Note)
	}
	return fmt.Sprintf("%-14s %12.6fs  %-9s", r.Name, r.D.Seconds(), status)
}

// FullCompile measures one full compilation.
func FullCompile(m *frag.Mapping) (Result, *frag.Views) {
	c := compiler.New()
	start := time.Now()
	views, err := c.Compile(m)
	return Result{
		Name: "full",
		D:    time.Since(start),
		Err:  err,
		Note: fmt.Sprintf("cells=%d containments=%d", c.Stats.CellsVisited, c.Stats.Containments),
	}, views
}

// NamedOp is one operation of the SMO suite. Make prepares the store-side
// directive (new tables or columns) on the given mapping clone and returns
// the SMO.
type NamedOp struct {
	Name string
	Make func(m *frag.Mapping) (core.SMO, error)
}

// RunOp measures one incremental compilation of one suite operation
// against a compiled base mapping. The measured interval covers everything
// a developer waits for: cloning the model, the store-side directive, and
// the incremental compile itself.
func RunOp(base *frag.Mapping, views *frag.Views, op NamedOp) Result {
	ic := core.NewIncremental()
	start := time.Now()
	m := base.Clone()
	smo, err := op.Make(m)
	if err == nil {
		_, _, err = ic.Apply(m, views, smo)
	}
	return Result{
		Name: op.Name,
		D:    time.Since(start),
		Err:  err,
		Note: fmt.Sprintf("containments=%d", ic.Stats.Containments),
	}
}

// RunSuite measures every operation of a suite.
func RunSuite(base *frag.Mapping, views *frag.Views, suite []NamedOp) []Result {
	out := make([]Result, 0, len(suite))
	for _, op := range suite {
		out = append(out, RunOp(base, views, op))
	}
	return out
}
