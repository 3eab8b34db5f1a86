package cond

// The incremental theory index: shared machinery for exhaustive cell
// enumeration (EnumerateCells, and EnumerateAssignments in tests) and for
// the CDCL solver's theory propagator (cdcl.go).
//
// The previous enumerator re-derived the feasibility of the touched
// attribute group from scratch at every DFS node — gathering the group's
// assigned literals into a scratch slice and re-running interval or enum
// reasoning over them — and mirrored every assignment into a map[Atom]bool.
// For the hub-and-rim TPH store tables of Figure 4 that made each of the
// 2^(N·M) search nodes cost O(group · |enum|) value comparisons plus map
// churn. The engine instead precomputes, per atom, how its assignment
// constrains its group, and maintains per-group summaries that make the
// post-assignment feasibility check a handful of word operations:
//
//   - enum/bool domains keep a bitmask of domain values compatible with the
//     assigned comparison literals (each literal contributes a precomputed
//     satisfying-value mask),
//   - nullability is two counters (literals forcing NULL / forcing a value),
//   - typed subjects keep a bitmask of concrete-type candidates compatible
//     with the assigned type literals, and a per-attribute-group mask of
//     candidates the group's state still admits (present or absent),
//
// all undone in O(1) on backtrack via per-atom save slots. Domains wider
// than 64 values fall back to the gather-and-recheck path, preserving exact
// semantics. Subjects of more than 64 candidates keep no incremental state:
// their type atoms' candidate sets and their groups' has-attribute sets are
// multi-word bitsets, intersected afresh at each check.

// maxMaskBits is the widest enum domain / candidate set the bitmask fast
// path covers; wider groups use the slow gather path.
const maxMaskBits = 64

// onesMask returns a mask with the low n bits set (n in 1..64).
func onesMask(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// eAtomKind classifies how an atom's assignment feeds the index.
type eAtomKind uint8

const (
	// eaTypeUntyped is a type atom whose subject has no concrete types: a
	// positive assignment is infeasible, a negative one vacuous.
	eaTypeUntyped eAtomKind = iota
	// eaType is a type atom on a typed subject: it narrows the candidate
	// mask.
	eaType
	// eaNull is an A IS NULL atom: it moves the group's null counters.
	eaNull
	// eaCmp is an A θ c atom: it narrows the group's value mask (fast
	// groups) and moves the non-null counter when positive.
	eaCmp
)

// eAtom is the precomputed per-atom index entry.
type eAtom struct {
	kind  eAtomKind
	group int32 // attr-group index, -1 for type atoms
	subj  int32 // subject index, -1 when the subject is untyped
	// mask is, for eaType, the candidate-type bits where the literal holds
	// positively; for eaCmp in a fast group, the domain-value bits where
	// the comparison holds.
	mask uint64
	// wide is mask for eaType atoms of slow subjects: one bit per
	// candidate, over ⌈candidates/64⌉ words.
	wide []uint64
}

// eGroup is one attribute's literal group with its incremental state.
type eGroup struct {
	attr    string
	subj    int32   // owning typed subject, -1 for standalone groups
	members []int32 // atom indices, for the gather path
	info    domEntry
	// fast marks enum/bool domains of ≤ maxMaskBits values, whose
	// feasibility is tracked by valueMask instead of re-derivation.
	fast     bool
	enumVals []Value
	fullVals uint64
	// skipState marks groups owned by a slow (>64-candidate) subject:
	// assignments only record vals; feasibility re-derives everything.
	skipState bool
	hasMask   uint64   // typed subjects: candidates carrying the attribute
	hasWide   []uint64 // hasMask of a slow subject's group

	// Dynamic state.
	valueMask     uint64 // fast groups: values compatible with assigned cmps
	nonNullForced int32  // literals forcing a non-NULL value
	nullForced    int32  // IS NULL literals assigned true
	allowed       uint64 // typed subjects: candidates this group still admits
}

// eSubject is a typed condition subject (one with concrete-type candidates).
type eSubject struct {
	name        string
	candidates  []string
	slow        bool     // >maxMaskBits candidates: wide bitsets
	fullWide    []uint64 // slow subjects: every candidate
	fullMask    uint64
	candMask    uint64 // candidates compatible with assigned type literals
	groups      []int32
	typeMembers []int32
}

// undoSlot holds the saved words restored when an atom is unassigned.
type undoSlot struct{ x, y uint64 }

// enumEngine drives exhaustive theory-consistent enumeration over a fixed
// atom list. It is not safe for concurrent use.
type enumEngine struct {
	t     Theory
	atoms []Atom
	vals  []int8
	// asg, when non-nil, mirrors vals as an Assignment (for the tests'
	// EnumerateAssignments).
	asg Assignment

	ea     []eAtom
	groups []eGroup
	subjs  []eSubject
	undo   []undoSlot

	dom     map[string]domEntry
	litsBuf []attrLit
	cmpsBuf []attrLit
	wideBuf []uint64
}

func newEnumEngine(t Theory, atoms []Atom) *enumEngine {
	e := &enumEngine{
		t:     t,
		atoms: atoms,
		vals:  make([]int8, len(atoms)),
		ea:    make([]eAtom, len(atoms)),
		undo:  make([]undoSlot, len(atoms)),
		dom:   map[string]domEntry{},
	}
	for i := range e.vals {
		e.vals[i] = -1
	}

	subjIdx := map[string]int32{}
	groupIdx := map[string]int32{}
	getSubj := func(name string) int32 {
		if si, ok := subjIdx[name]; ok {
			return si
		}
		cands := t.ConcreteTypes(name)
		si := int32(-1)
		if len(cands) > 0 {
			si = int32(len(e.subjs))
			s := eSubject{name: name, candidates: cands}
			if len(cands) > maxMaskBits {
				s.slow = true
				s.fullWide = wideSet(len(cands), func(int) bool { return true })
			} else {
				s.fullMask = onesMask(len(cands))
				s.candMask = s.fullMask
			}
			e.subjs = append(e.subjs, s)
		}
		subjIdx[name] = si
		return si
	}
	getGroup := func(attr string, si int32) int32 {
		if gi, ok := groupIdx[attr]; ok {
			return gi
		}
		gi := int32(len(e.groups))
		g := eGroup{attr: attr, subj: si}
		g.info = e.attrInfo(attr)
		if si >= 0 && e.subjs[si].slow {
			// Slow subjects skip incremental mask state, but the group must
			// still be linked so slowSubjectConsistent and subjectAssigned
			// see its literals and has-attribute set.
			g.skipState = true
			cands := e.subjs[si].candidates
			g.hasWide = wideSet(len(cands), func(ci int) bool { return t.HasAttr(cands[ci], bareAttr(attr)) })
			e.subjs[si].groups = append(e.subjs[si].groups, gi)
		} else {
			switch {
			case g.info.known && len(g.info.dom.Enum) > 0:
				g.enumVals = g.info.dom.Enum
			case g.info.known && g.info.dom.Kind == KindBool:
				g.enumVals = boolEnum
			}
			if len(g.enumVals) > 0 && len(g.enumVals) <= maxMaskBits {
				g.fast = true
				g.fullVals = onesMask(len(g.enumVals))
				g.valueMask = g.fullVals
			} else {
				g.enumVals = nil
			}
			if si >= 0 {
				for ci, c := range e.subjs[si].candidates {
					if t.HasAttr(c, bareAttr(attr)) {
						g.hasMask |= 1 << uint(ci)
					}
				}
				e.subjs[si].groups = append(e.subjs[si].groups, gi)
			}
		}
		e.groups = append(e.groups, g)
		groupIdx[attr] = gi
		return gi
	}

	for i, a := range atoms {
		switch a.Kind {
		case AtomType:
			si := getSubj(a.Var)
			if si < 0 {
				e.ea[i] = eAtom{kind: eaTypeUntyped, group: -1, subj: -1}
				continue
			}
			s := &e.subjs[si]
			s.typeMembers = append(s.typeMembers, int32(i))
			ea := eAtom{kind: eaType, group: -1, subj: si}
			holds := func(ci int) bool {
				if a.Only {
					return s.candidates[ci] == a.Type
				}
				return t.IsSubtype(s.candidates[ci], a.Type)
			}
			if s.slow {
				ea.wide = wideSet(len(s.candidates), holds)
			} else {
				for ci := range s.candidates {
					if holds(ci) {
						ea.mask |= 1 << uint(ci)
					}
				}
			}
			e.ea[i] = ea
		default:
			si := getSubj(a.subject())
			gi := getGroup(a.Attr, si)
			g := &e.groups[gi]
			g.members = append(g.members, int32(i))
			kind := eaNull
			var mask uint64
			if a.Kind == AtomCmp {
				kind = eaCmp
				if g.fast {
					for vi, v := range g.enumVals {
						if cmpHolds(v, a.Op, a.Val) {
							mask |= 1 << uint(vi)
						}
					}
				}
			}
			e.ea[i] = eAtom{kind: kind, group: gi, subj: si, mask: mask}
		}
	}
	// Seed the per-group candidate-admission masks from the empty state.
	for gi := range e.groups {
		g := &e.groups[gi]
		if g.subj >= 0 && !g.skipState {
			g.allowed = e.groupAllowed(g)
		}
	}
	return e
}

// boolEnum is the implicit two-value domain of boolean attributes.
var boolEnum = []Value{Bool(false), Bool(true)}

func (e *enumEngine) attrInfo(attr string) domEntry {
	if d, ok := e.dom[attr]; ok {
		return d
	}
	var d domEntry
	d.dom, d.known = e.t.Domain(attr)
	d.nullable = e.t.Nullable(attr)
	e.dom[attr] = d
	return d
}

// assign records atom i as val (1 or 0) and updates the touched group's
// incremental state, saving whatever unassign must restore.
func (e *enumEngine) assign(i int, val int8) {
	e.vals[i] = val
	if e.asg != nil {
		e.asg[e.atoms[i]] = val == 1
	}
	ea := &e.ea[i]
	switch ea.kind {
	case eaTypeUntyped:
		// No state: feasibility is the atom's own polarity.
	case eaType:
		s := &e.subjs[ea.subj]
		if s.slow {
			return
		}
		e.undo[i].x = s.candMask
		if val == 1 {
			s.candMask &= ea.mask
		} else {
			s.candMask &^= ea.mask
		}
	default:
		g := &e.groups[ea.group]
		if g.skipState {
			return
		}
		e.undo[i] = undoSlot{x: g.valueMask, y: g.allowed}
		if ea.kind == eaNull {
			if val == 1 {
				g.nullForced++
			} else {
				g.nonNullForced++
			}
		} else {
			if val == 1 {
				g.nonNullForced++
				if g.fast {
					g.valueMask &= ea.mask
				}
			} else if g.fast {
				g.valueMask &^= ea.mask
			}
		}
		if g.subj >= 0 {
			g.allowed = e.groupAllowed(g)
		}
	}
}

// unassign reverts assign(i, ·). vals[i] must still hold the assigned value.
func (e *enumEngine) unassign(i int) {
	val := e.vals[i]
	e.vals[i] = -1
	if e.asg != nil {
		delete(e.asg, e.atoms[i])
	}
	ea := &e.ea[i]
	switch ea.kind {
	case eaTypeUntyped:
	case eaType:
		s := &e.subjs[ea.subj]
		if s.slow {
			return
		}
		s.candMask = e.undo[i].x
	default:
		g := &e.groups[ea.group]
		if g.skipState {
			return
		}
		g.valueMask = e.undo[i].x
		g.allowed = e.undo[i].y
		if ea.kind == eaNull {
			if val == 1 {
				g.nullForced--
			} else {
				g.nonNullForced--
			}
		} else if val == 1 {
			g.nonNullForced--
		}
	}
}

// feasibleAfter reports whether the theory still admits a witness after
// atom i was assigned. Only the structure the atom touches is re-checked:
// the enumeration invariant guarantees everything else was feasible before
// the assignment and is unaffected by it.
func (e *enumEngine) feasibleAfter(i int) bool {
	ea := &e.ea[i]
	switch ea.kind {
	case eaTypeUntyped:
		return e.vals[i] != 1
	case eaType:
		s := &e.subjs[ea.subj]
		if s.slow {
			return e.slowSubjectConsistent(s)
		}
		return e.subjFeasible(s)
	default:
		g := &e.groups[ea.group]
		if g.skipState {
			return e.slowSubjectConsistent(&e.subjs[ea.subj])
		}
		if g.subj < 0 {
			return e.groupFeasible(g)
		}
		return e.subjFeasible(&e.subjs[g.subj])
	}
}

// groupFeasible decides a standalone (untyped-subject) group from its
// incremental state, falling back to literal gathering for slow domains.
func (e *enumEngine) groupFeasible(g *eGroup) bool {
	if g.fast {
		return (g.info.nullable && g.nonNullForced == 0) ||
			(g.nullForced == 0 && g.valueMask != 0)
	}
	return attrFeasibleLits(g.info, e.gatherLits(g), &e.cmpsBuf)
}

// groupAllowed computes the candidate-type mask a typed subject's group
// admits: candidates carrying the attribute when the group is feasible with
// a value or NULL, plus candidates lacking it when nothing forces non-NULL
// (an absent attribute reads as NULL regardless of declared nullability).
func (e *enumEngine) groupAllowed(g *eGroup) uint64 {
	s := &e.subjs[g.subj]
	absentOK := g.nonNullForced == 0
	var presentOK bool
	if g.fast {
		presentOK = (g.info.nullable && g.nonNullForced == 0) ||
			(g.nullForced == 0 && g.valueMask != 0)
	} else {
		presentOK = attrFeasibleLits(g.info, e.gatherLits(g), &e.cmpsBuf)
	}
	var m uint64
	if presentOK {
		m |= g.hasMask
	}
	if absentOK {
		m |= s.fullMask &^ g.hasMask
	}
	return m
}

// subjFeasible intersects the subject's candidate mask with every group's
// admission mask: some concrete type must satisfy the type literals and
// admit every attribute group at once.
func (e *enumEngine) subjFeasible(s *eSubject) bool {
	m := s.candMask
	for _, gi := range s.groups {
		m &= e.groups[gi].allowed
		if m == 0 {
			return false
		}
	}
	return m != 0
}

// gatherLits collects the group's assigned literals into the engine's
// scratch buffer (the slow path).
func (e *enumEngine) gatherLits(g *eGroup) []attrLit {
	lits := e.litsBuf[:0]
	for _, mi := range g.members {
		v := e.vals[mi]
		if v < 0 {
			continue
		}
		a := e.atoms[mi]
		if a.Kind == AtomNull {
			lits = append(lits, attrLit{null: true, pos: v == 1})
		} else {
			lits = append(lits, attrLit{op: a.Op, val: a.Val, pos: v == 1})
		}
	}
	e.litsBuf = lits
	return lits
}

// slowSubjectConsistent decides a subject with more concrete candidates
// than one mask word covers: the candidates its assigned type literals
// admit, narrowed by each attribute group to the candidates carrying the
// attribute (when only a value or NULL is feasible) or lacking it (when only
// absence is), must be non-empty.
func (e *enumEngine) slowSubjectConsistent(s *eSubject) bool {
	m := append(e.wideBuf[:0], s.fullWide...)
	e.wideBuf = m
	for _, ti := range s.typeMembers {
		w := e.ea[ti].wide
		switch e.vals[ti] {
		case 1:
			for i := range m {
				m[i] &= w[i]
			}
		case 0:
			for i := range m {
				m[i] &^= w[i]
			}
		}
	}
	if !anyBit(m) {
		return false
	}
	for _, gi := range s.groups {
		g := &e.groups[gi]
		lits := e.gatherLits(g)
		// An absent attribute reads as NULL, whatever its declared
		// nullability.
		absentOK := !forcedNonNull(lits)
		presentOK := attrFeasibleLits(g.info, lits, &e.cmpsBuf)
		switch {
		case presentOK && absentOK:
			continue
		case presentOK:
			for i := range m {
				m[i] &= g.hasWide[i]
			}
		case absentOK:
			for i := range m {
				m[i] &^= g.hasWide[i]
			}
		default:
			return false
		}
		if !anyBit(m) {
			return false
		}
	}
	return true
}

// wideSet returns the n-bit set of the indexes at which in holds.
func wideSet(n int, in func(int) bool) []uint64 {
	w := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if in(i) {
			w[i>>6] |= 1 << uint(i&63)
		}
	}
	return w
}

func anyBit(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// seedPrefix replays already-decided leading atoms into the index without
// feasibility checks (the caller guarantees the prefix is consistent).
func (e *enumEngine) seedPrefix(prefix []int8, start int) {
	for i := 0; i < start && i < len(e.atoms); i++ {
		if i < len(prefix) && prefix[i] >= 0 {
			e.assign(i, prefix[i])
		}
	}
}

// run enumerates, in the canonical order (atom index order, true before
// false), every theory-consistent completion of the current state over
// atoms[i:]. It stops early when visit returns false and reports whether
// the enumeration ran to completion.
func (e *enumEngine) run(i int, visit func([]int8) bool) bool {
	if i >= len(e.atoms) {
		return visit(e.vals)
	}
	e.assign(i, 1)
	if e.feasibleAfter(i) && !e.run(i+1, visit) {
		e.unassign(i)
		return false
	}
	e.unassign(i)
	e.assign(i, 0)
	if e.feasibleAfter(i) && !e.run(i+1, visit) {
		e.unassign(i)
		return false
	}
	e.unassign(i)
	return true
}

// EnumerateCells visits every theory-consistent full assignment of the
// atoms that extends the dense prefix over atoms[:start] (prefix[i] is the
// truth of atoms[i]; the prefix must itself be theory-consistent). The
// visitor receives the dense truth slice indexed like atoms, valid only for
// the duration of the call; no Assignment map is maintained, which keeps
// the exhaustive cell walks of the validation pipeline off the allocator.
// It stops early when visit returns false and reports whether the
// enumeration ran to completion.
func EnumerateCells(t Theory, atoms []Atom, prefix []int8, start int, visit func([]int8) bool) bool {
	e := newEnumEngine(t, atoms)
	e.seedPrefix(prefix, start)
	return e.run(start, visit)
}

// AssignmentFromVals materializes a dense truth slice as an Assignment
// (for error reporting and other cold paths).
func AssignmentFromVals(atoms []Atom, vals []int8) Assignment {
	asg := make(Assignment, len(atoms))
	for i, a := range atoms {
		if i < len(vals) && vals[i] >= 0 {
			asg[a] = vals[i] == 1
		}
	}
	return asg
}
