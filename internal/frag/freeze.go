package frag

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Freezing. A generation becomes frozen when a session starts serving it
// (internal/pipeline). From then on it is never written: its schemas are
// frozen too, every in-place mutator panics, and Clone writes nothing to it.
// That makes data derived from a frozen generation's content a pure
// function of it, so it can be computed once and shared — which is what
// the memo is for. modelio keeps each entry's compact encoding there, and
// a generation cloned from a frozen one re-encodes only the entries its
// SMO created or copied.

// memo caches data derived from a frozen generation, built once and read
// without a lock afterwards. Until a generation builds its own, base holds
// the nearest ancestor's, so the build can carry over what the two share.
// The link is to the ancestor's value, not the ancestor, and it is dropped
// once the generation has its own: memos die with their generations.
type memo struct {
	once sync.Once
	err  error // the build's, read only after once
	own  atomic.Pointer[memoValue]
	base atomic.Pointer[memoValue]
}

type memoValue struct{ v any }

// get returns the memo's value, building it first if needed. A frozen
// generation's content cannot change, so a failed build is not retried.
func (c *memo) get(build func(base any) (any, error)) (any, error) {
	c.once.Do(func() {
		v, err := build(c.baseValue())
		if c.err = err; err == nil {
			c.own.Store(&memoValue{v})
			c.base.Store(nil)
		}
	})
	if mv := c.own.Load(); mv != nil {
		return mv.v, nil
	}
	return nil, c.err
}

// baseValue returns the ancestor's value, or nil.
func (c *memo) baseValue() any {
	if mv := c.base.Load(); mv != nil {
		return mv.v
	}
	return nil
}

// inherit returns what a clone links to: this generation's own value if
// it has one, else its ancestor's.
func (c *memo) inherit() *memoValue {
	if mv := c.own.Load(); mv != nil {
		return mv
	}
	return c.base.Load()
}

// Freeze marks the generation immutable, its client and store schemas
// included. From then on MutableFrag and RemoveFrag panic, and Clone
// leaves the receiver untouched. Freezing twice is a no-op.
func (m *Mapping) Freeze() {
	if !m.frozen.CompareAndSwap(false, true) {
		return
	}
	m.fragsShared = true
	m.Client.Freeze()
	m.Store.Freeze()
}

// Frozen reports whether Freeze was called.
func (m *Mapping) Frozen() bool { return m.frozen.Load() }

// Memo returns the value build derives from the frozen generation,
// building it on first use only, however many goroutines ask at once; a
// failed build's error is returned to every caller. build receives the
// nearest frozen ancestor's memo value (nil if there is none) and must not
// mutate it. Memo panics on an unfrozen generation, whose content may
// still change.
func (m *Mapping) Memo(build func(base any) (any, error)) (any, error) {
	if !m.Frozen() {
		panic("frag: Memo on a generation that is not frozen")
	}
	return m.memo.get(build)
}

// BaseMemo returns the memo value of the nearest frozen ancestor the
// generation was cloned from, or nil. Entries the two generations share
// are immutable, so data derived from them there still holds here.
func (m *Mapping) BaseMemo() any { return m.memo.baseValue() }

func (m *Mapping) mustNotBeFrozen(op, id string) {
	if m.Frozen() {
		panic(fmt.Sprintf("frag: %s(%q) on a frozen generation (%d fragments): clone it first", op, id, len(m.Frags)))
	}
}

// Freeze marks the view set immutable: MutableQuery, MutableAssoc,
// MutableUpdate and the Set methods panic from then on, and Clone leaves
// the receiver untouched. Freezing twice is a no-op.
func (v *Views) Freeze() {
	if v.frozen.CompareAndSwap(false, true) {
		v.owned = nil
	}
}

// Frozen reports whether Freeze was called.
func (v *Views) Frozen() bool { return v.frozen.Load() }

// Memo is Mapping.Memo for a frozen view set.
func (v *Views) Memo(build func(base any) (any, error)) (any, error) {
	if !v.Frozen() {
		panic("frag: Memo on a view set that is not frozen")
	}
	return v.memo.get(build)
}

// BaseMemo is Mapping.BaseMemo for view sets.
func (v *Views) BaseMemo() any { return v.memo.baseValue() }

func (v *Views) mustNotBeFrozen(op, name string) {
	if v.Frozen() {
		panic(fmt.Sprintf("frag: %s(%q) on a frozen generation's views (%d query views): clone them first", op, name, len(v.Query)))
	}
}
