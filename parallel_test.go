// Determinism tests for the parallel validation pipeline: for every seed
// model — and for mappings engineered to fail each validation check — a
// compile at any worker count must produce byte-identical errors and
// structurally identical views to the sequential compile.
package incmap_test

import (
	"errors"
	"reflect"
	"testing"

	incmap "github.com/ormkit/incmap"
	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/workload"
)

// seedModels returns fresh copies of every healthy model the suite
// compiles, keyed by name. Fresh copies matter: compilation must not be
// asked to share mutable mapping state across worker counts.
func seedModels() map[string]func() *frag.Mapping {
	return map[string]func() *frag.Mapping{
		"PaperInitial":    workload.PaperInitial,
		"PaperFull":       workload.PaperFull,
		"PartitionedAge":  workload.PartitionedAgeModel,
		"Chain30":         func() *frag.Mapping { return workload.Chain(30) },
		"HubRimTPH_N2_M3": func() *frag.Mapping { return workload.HubRim(workload.HubRimOptions{N: 2, M: 3, TPH: true}) },
		"HubRimTPT_N2_M4": func() *frag.Mapping { return workload.HubRim(workload.HubRimOptions{N: 2, M: 4, TPH: false}) },
		"CustomerSmall": func() *frag.Mapping {
			return workload.Customer(workload.CustomerOptions{
				Types: 30, Hierarchies: 5, LargestTPH: 12, Associations: 6, SharedTableFKs: 1,
			})
		},
	}
}

// brokenModels returns mappings that each trip a different validation
// check, so the error-selection path is exercised per check kind.
func brokenModels(t *testing.T) map[string]func() *frag.Mapping {
	t.Helper()
	return map[string]func() *frag.Mapping{
		// Association whose endpoint set has no entity fragments.
		"UnmappedSet": func() *frag.Mapping {
			m := workload.PaperFull()
			var keep []*frag.Fragment
			for _, f := range m.Frags {
				if f.Set == "" || f.Set != "Persons" {
					keep = append(keep, f)
				}
			}
			m.Frags = keep
			return m
		},
		// Foreign key referencing a table no fragment maps.
		"FKUnmappedTable": func() *frag.Mapping {
			m := workload.PaperInitial()
			if err := m.Store.AddForeignKey("HR", rel.ForeignKey{
				Name: "fk_bad", Cols: []string{"Id"}, RefTable: "Client", RefCols: []string{"Cid"},
			}); err != nil {
				t.Fatal(err)
			}
			return m
		},
		// Overlapping, non-equivalent fragments forced onto one table.
		"OverlappingFrags": func() *frag.Mapping {
			m := workload.PartitionedAgeModel()
			for _, f := range m.Frags {
				if f.Table == "Adult" {
					f.ClientCond = cond.NewAnd(
						cond.TypeIs{Type: "Person"},
						cond.Cmp{Attr: "Age", Op: cond.OpGe, Val: cond.Int(10)},
					)
				}
			}
			for _, f := range m.Frags {
				f.Table = "Adult"
			}
			return m
		},
		// Two fragments writing one column from different attributes.
		"ConflictingWriters": func() *frag.Mapping {
			c := edm.NewSchema()
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			must(c.AddType(edm.EntityType{
				Name: "T",
				Attrs: []edm.Attribute{
					{Name: "Id", Type: cond.KindInt},
					{Name: "A", Type: cond.KindString, Nullable: true},
					{Name: "B", Type: cond.KindString, Nullable: true},
				},
				Key: []string{"Id"},
			}))
			must(c.AddSet(edm.EntitySet{Name: "Ts", Type: "T"}))
			s := rel.NewSchema()
			must(s.AddTable(rel.Table{
				Name: "Tab",
				Cols: []rel.Column{
					{Name: "Id", Type: cond.KindInt},
					{Name: "X", Type: cond.KindString, Nullable: true},
				},
				Key: []string{"Id"},
			}))
			m := &frag.Mapping{Client: c, Store: s}
			m.Frags = append(m.Frags,
				&frag.Fragment{
					ID: "fa", Set: "Ts", ClientCond: cond.TypeIs{Type: "T"},
					Attrs: []string{"Id", "A"}, Table: "Tab", StoreCond: cond.True{},
					ColOf: map[string]string{"Id": "Id", "A": "X"},
				},
				&frag.Fragment{
					ID: "fb", Set: "Ts", ClientCond: cond.TypeIs{Type: "T"},
					Attrs: []string{"Id", "B"}, Table: "Tab", StoreCond: cond.True{},
					ColOf: map[string]string{"Id": "Id", "B": "X"},
				},
			)
			return m
		},
		// A type none of the fragments' conditions admit into a cell it
		// should occupy: drop a rim attribute mapping so an attribute is
		// lost in some client cell (exercises the per-set cell walk).
		"LostAttribute": func() *frag.Mapping {
			m := workload.HubRim(workload.HubRimOptions{N: 2, M: 2, TPH: true})
			for _, f := range m.Frags {
				if len(f.Attrs) > 1 {
					f.Attrs = f.Attrs[:len(f.Attrs)-1]
					break
				}
			}
			return m
		},
	}
}

// compileAt compiles a fresh instance of the model at the given worker
// count and returns the views, stats, and error.
func compileAt(mk func() *frag.Mapping, workers int) (*incmap.Views, incmap.CompileStats, error) {
	return incmap.CompileWith(mk(), incmap.CompilerOptions{Parallelism: workers})
}

// TestParallelCompileDeterministic: on healthy models every worker count
// yields views structurally identical to the sequential compile, and the
// same cell count.
func TestParallelCompileDeterministic(t *testing.T) {
	for name, mk := range seedModels() {
		t.Run(name, func(t *testing.T) {
			seqViews, seqStats, err := compileAt(mk, 1)
			if err != nil {
				t.Fatalf("sequential compile failed: %v", err)
			}
			for _, workers := range []int{2, 3, 8} {
				views, stats, err := compileAt(mk, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(seqViews, views) {
					t.Fatalf("workers=%d produced different views", workers)
				}
				if stats.CellsVisited != seqStats.CellsVisited {
					t.Fatalf("workers=%d visited %d cells, sequential visited %d",
						workers, stats.CellsVisited, seqStats.CellsVisited)
				}
				if stats.Workers != int64(workers) {
					t.Fatalf("stats.Workers = %d, want %d", stats.Workers, workers)
				}
			}
		})
	}
}

// TestParallelCompileErrorsByteIdentical: on broken models every worker
// count reports the exact error string the sequential compile reports —
// the first error in canonical order, not an arbitrary worker's.
func TestParallelCompileErrorsByteIdentical(t *testing.T) {
	for name, mk := range brokenModels(t) {
		t.Run(name, func(t *testing.T) {
			_, _, seqErr := compileAt(mk, 1)
			if seqErr == nil {
				t.Fatal("broken model compiled cleanly; recipe is stale")
			}
			var ve *compiler.ValidationError
			wantValidation := errors.As(seqErr, &ve)
			for _, workers := range []int{2, 3, 8} {
				// Repeat each count a few times: a racy error selection
				// would only fail intermittently.
				for round := 0; round < 4; round++ {
					_, _, err := compileAt(mk, workers)
					if err == nil {
						t.Fatalf("workers=%d round=%d: error lost", workers, round)
					}
					if err.Error() != seqErr.Error() {
						t.Fatalf("workers=%d round=%d:\n  parallel:   %v\n  sequential: %v",
							workers, round, err, seqErr)
					}
					if wantValidation && !errors.As(err, &ve) {
						t.Fatalf("workers=%d: error lost its *ValidationError type: %v", workers, err)
					}
				}
			}
		})
	}
}

// TestParallelSharedSatCache: a cache shared across compilations changes
// cost (second run is all hits) but never results. Hub-rim TPT, because
// every decision of the TPH model is type-only and none reaches a cache.
func TestParallelSharedSatCache(t *testing.T) {
	cache := incmap.NewSatCache()
	mk := func() *frag.Mapping {
		return workload.HubRim(workload.HubRimOptions{N: 2, M: 3})
	}
	opts := incmap.CompilerOptions{Parallelism: 4, SatCache: cache}
	cold, coldStats, err := incmap.CompileWith(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := incmap.CompileWith(mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-cache compile produced different views")
	}
	if warmStats.CacheMisses != 0 {
		t.Fatalf("warm compile missed the cache %d times (hits=%d)",
			warmStats.CacheMisses, warmStats.CacheHits)
	}
	if coldStats.CacheMisses == 0 || warmStats.CacheHits == 0 {
		t.Fatalf("cache counters implausible: cold=%+v warm=%+v", coldStats, warmStats)
	}
	if st := cache.Stats(); st.Entries == 0 {
		t.Fatalf("shared cache is empty: %+v", st)
	}
}

// TestParallelDefaultWorkers: Parallelism 0 resolves to GOMAXPROCS and
// still matches sequential output on a model with a real cell space.
func TestParallelDefaultWorkers(t *testing.T) {
	mk := func() *frag.Mapping {
		return workload.HubRim(workload.HubRimOptions{N: 2, M: 3, TPH: true})
	}
	seqViews, _, err := compileAt(mk, 1)
	if err != nil {
		t.Fatal(err)
	}
	views, stats, err := compileAt(mk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers < 1 {
		t.Fatalf("Workers = %d", stats.Workers)
	}
	if !reflect.DeepEqual(seqViews, views) {
		t.Fatal("default-parallelism compile differs from sequential")
	}
}

// TestParallelNaiveCells: the NaiveCells ablation composes with the worker
// pool (spans degrade to a single sequential span) without changing
// results.
func TestParallelNaiveCells(t *testing.T) {
	mk := func() *frag.Mapping {
		return workload.HubRim(workload.HubRimOptions{N: 1, M: 3, TPH: true})
	}
	base, baseStats, err := incmap.CompileWith(mk(), incmap.CompilerOptions{NaiveCells: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, parStats, err := incmap.CompileWith(mk(), incmap.CompilerOptions{NaiveCells: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, par) {
		t.Fatal("naive-cells parallel compile differs from sequential")
	}
	if baseStats.CellsVisited != parStats.CellsVisited {
		t.Fatalf("naive cell counts differ: %d vs %d", baseStats.CellsVisited, parStats.CellsVisited)
	}
}
