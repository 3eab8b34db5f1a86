package exec

import (
	"context"
	"fmt"
	"strings"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/obsv"
)

// joinIter is a streaming hash join with the semantics of the reference
// evaluator in internal/difftest: the right input is the build side (drained
// fully into a hash index on first pull), the left input streams through
// as probe. Tuples with a NULL join key never match; merging keeps the
// left tuple's values on column collision and errors on conflicting
// subject types; LeftOuter/FullOuter emit unmatched probe tuples as-is
// (absent columns read as NULL); FullOuter additionally emits unmatched
// build tuples once the probe side is exhausted. Only the build side is
// held in memory, and crossing the spill threshold is counted.
type joinIter struct {
	opBase
	l, r Iterator
	kind cqt.JoinKind
	lOn  []string
	rOn  []string

	built   bool
	build   []Tuple
	index   map[string][]int
	matched []bool

	out []Tuple

	// drain walks unmatched build tuples after probe exhaustion (FullOuter).
	draining bool
	drainAt  int
}

func openJoin(ctx context.Context, env *Env, j cqt.Join, cols []string, opts Options, parent *obsv.Span) (Iterator, error) {
	lcols, err := env.Catalog.Cols(j.L)
	if err != nil {
		return nil, err
	}
	rcols, err := env.Catalog.Cols(j.R)
	if err != nil {
		return nil, err
	}
	// Shared column names must be equated by the join (checked at open
	// time, before any row moves).
	shared := map[string]bool{}
	for _, lc := range lcols {
		for _, rc := range rcols {
			if lc == rc {
				shared[lc] = true
			}
		}
	}
	for s := range shared {
		ok := false
		for _, p := range j.On {
			if p[0] == s && p[1] == s {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("cqt: join inputs share column %q without equating it", s)
		}
	}

	l, err := open(ctx, env, j.L, opts, parent)
	if err != nil {
		return nil, err
	}
	r, err := open(ctx, env, j.R, opts, parent)
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	lOn := make([]string, len(j.On))
	rOn := make([]string, len(j.On))
	for i, p := range j.On {
		lOn[i], rOn[i] = p[0], p[1]
	}
	return &joinIter{
		opBase: opBase{cols: cols, sp: parent.Child("exec.join", obsv.String("kind", joinKindName(j.Kind)))},
		l:      l, r: r, kind: j.Kind,
		lOn: lOn, rOn: rOn,
	}, nil
}

func joinKindName(k cqt.JoinKind) string {
	switch k {
	case cqt.LeftOuter:
		return "left-outer"
	case cqt.FullOuter:
		return "full-outer"
	}
	return "inner"
}

// joinKey renders the tuple's join-key columns; ok=false when any key
// column is NULL (NULL never matches).
func joinKey(t Tuple, cols []string) (string, bool) {
	var b strings.Builder
	for _, c := range cols {
		v, ok := t.Data[c]
		if !ok {
			return "", false
		}
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String(), true
}

// buildIndex drains the build (right) input into the hash index. Build
// tuples outlive their source batches, so their structs are copied out.
func (j *joinIter) buildIndex() error {
	j.index = map[string][]int{}
	spilled := false
	for {
		batch, ok, err := j.r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, t := range batch {
			i := len(j.build)
			j.build = append(j.build, t)
			if k, hasKey := joinKey(t, j.rOn); hasKey {
				j.index[k] = append(j.index[k], i)
			}
			if !spilled && len(j.build) > DefaultSpillThreshold {
				spilled = true
				obsv.Add(obsv.MExecSpills, 1)
				j.sp.Annotate(obsv.String("spill", "build"))
			}
		}
	}
	j.matched = make([]bool, len(j.build))
	j.built = true
	obsv.Add(obsv.MExecJoinBuildRows, int64(len(j.build)))
	j.sp.Annotate(obsv.String("build_rows", fmt.Sprint(len(j.build))))
	// The build input is exhausted; release it now so a long probe phase
	// does not pin its resources.
	return j.r.Close()
}

func (j *joinIter) merge(l, r Tuple) (Tuple, error) {
	types := map[string]string{}
	for s, ty := range l.Types {
		types[s] = ty
	}
	for s, ty := range r.Types {
		if prev, dup := types[s]; dup && prev != ty {
			return Tuple{}, fmt.Errorf("cqt: join merges conflicting subject types %q/%q", prev, ty)
		}
		types[s] = ty
	}
	data := l.Data.Clone()
	for c, v := range r.Data {
		if _, exists := data[c]; !exists {
			data[c] = v
		}
	}
	return Tuple{Types: types, Data: data}, nil
}

func (j *joinIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := j.gate(); handled {
		return t, ok, err
	}
	if !j.built {
		if err := j.buildIndex(); err != nil {
			return j.fail(err)
		}
	}
	for !j.draining {
		batch, ok, err := j.l.Next()
		if err != nil {
			return j.fail(err)
		}
		if !ok {
			if j.kind == cqt.FullOuter {
				j.draining = true
				break
			}
			return nil, false, nil
		}
		j.out = j.out[:0]
		for _, l := range batch {
			matchedAny := false
			if k, hasKey := joinKey(l, j.lOn); hasKey {
				for _, ri := range j.index[k] {
					m, err := j.merge(l, j.build[ri])
					if err != nil {
						return j.fail(err)
					}
					j.out = append(j.out, m)
					matchedAny = true
					j.matched[ri] = true
				}
			}
			if !matchedAny && (j.kind == cqt.LeftOuter || j.kind == cqt.FullOuter) {
				// Pad the build side with NULLs: keep the probe tuple,
				// since absent keys already read as NULL. Cloned because
				// the batch's row maps are only borrowed.
				j.out = append(j.out, Tuple{Types: l.Types, Data: l.Data.Clone()})
			}
		}
		if len(j.out) == 0 {
			continue
		}
		j.emit(len(j.out))
		return j.out, true, nil
	}
	// FullOuter tail: unmatched build tuples.
	j.out = j.out[:0]
	for j.drainAt < len(j.build) && len(j.out) < DefaultBatchSize {
		i := j.drainAt
		j.drainAt++
		if j.matched[i] {
			continue
		}
		r := j.build[i]
		j.out = append(j.out, Tuple{Types: r.Types, Data: r.Data.Clone()})
	}
	if len(j.out) == 0 {
		return nil, false, nil
	}
	j.emit(len(j.out))
	return j.out, true, nil
}

func (j *joinIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	errL := j.l.Close()
	errR := j.r.Close() // idempotent if build already closed it
	j.build, j.index, j.matched, j.out = nil, nil, nil, nil
	j.finish()
	if errL != nil {
		return errL
	}
	return errR
}
