package edm

// index is the derived, immutable lookup structure of one schema: every
// hierarchy and attribute question the compiler asks, answered without
// walking base chains through the type map. A Schema builds it on the
// first read and drops it in every mutator, so each generation pays for one
// build however many SatCache keys, solver set-ups and catalog lookups it
// serves.
//
// Types get dense IDs in declaration order. Hierarchy lists and attribute
// lists are CSR-packed — one backing slice per list kind plus per-type
// offsets — so the index makes no per-type allocations. Every served slice
// is capacity-clamped: a caller's append copies instead of writing into the
// index.
type index struct {
	ids  map[string]int32 // type name → ID
	ents []*EntityType    // ID → entry
	root []int32          // ID → ID of the hierarchy root
	// pre is each type's position in a pre-order walk of the hierarchy
	// forest and size the number of types in its sub-hierarchy (itself
	// included), so a descendant's pre falls in [pre, pre+size).
	pre, size []int32
	// cpre is the number of concrete types before each type in that walk.
	// A type's sub-hierarchy is a pre-order interval, so its concrete types
	// are ranks [cpre, cpre+len(concrete)) of the walk's concrete types:
	// TypeBits serves type atoms from these intervals.
	cpre []int32

	anc       csr[string]    // proper ancestors, nearest first
	desc      csr[string]    // proper descendants, declaration order
	concrete  csr[string]    // non-abstract types of the sub-hierarchy, declaration order
	attrs     csr[Attribute] // AllAttrs of derived types; roots serve their own Attrs
	attrNames csr[string]    // AttrNames
	// subNames holds, for types with descendants, every attribute name of
	// the sub-hierarchy without duplicates; a leaf serves its attrNames.
	subNames csr[string]

	sets     map[string]*EntitySet   // by name
	setOf    map[string]*EntitySet   // by root type
	assocs   map[string]*Association // by name
	firstDef map[rootAttr]Attribute  // see hierarchyAttr; multi-type hierarchies only
}

type rootAttr struct {
	root int32
	attr string
}

// csr is one list per type ID: list i is buf[off[i]:off[i+1]].
type csr[T any] struct {
	off []int32
	buf []T
}

// at returns list id, capacity-clamped, or nil when it is empty.
func (c *csr[T]) at(id int32) []T {
	a, b := c.off[id], c.off[id+1]
	if a == b {
		return nil
	}
	return c.buf[a:b:b]
}

// sized allocates buf for per-type lengths n[i] and sets off accordingly.
func (c *csr[T]) sized(n []int32) {
	c.off = make([]int32, len(n)+1)
	for i, k := range n {
		c.off[i+1] = c.off[i] + k
	}
	c.buf = make([]T, c.off[len(n)])
}

// index returns the schema's index, building it on first use. Concurrent
// first readers may each build one; the builds are equal and either may be
// kept.
func (s *Schema) index() *index {
	if x := s.idx.Load(); x != nil {
		return x
	}
	x := buildIndex(s)
	s.idx.CompareAndSwap(nil, x)
	return x
}

// invalidate drops the index; every mutator calls it.
func (s *Schema) invalidate() { s.idx.Store(nil) }

func buildIndex(s *Schema) *index {
	n := int32(len(s.order))
	x := &index{
		ids:  make(map[string]int32, n),
		ents: make([]*EntityType, n),
		root: make([]int32, n),
		pre:  make([]int32, n),
		size: make([]int32, n),
		cpre: make([]int32, n),
	}
	for i, name := range s.order {
		x.ids[name] = int32(i)
		x.ents[i] = s.types[name]
	}
	// One temporary buffer holds the parent links, the children lists and
	// the per-type counts that size each CSR kind.
	tmp := make([]int32, 5*n+1)
	parent, childOff, counts := tmp[:n], tmp[n:2*n+1], tmp[2*n+1:3*n+1]
	child, cursor := tmp[3*n+1:4*n+1], tmp[4*n+1:]
	for i, t := range x.ents {
		parent[i] = -1
		if t.Base != "" {
			parent[i] = x.ids[t.Base]
			childOff[parent[i]+1]++
		}
	}
	for i := int32(0); i < n; i++ {
		childOff[i+1] += childOff[i]
	}
	copy(cursor, childOff[:n])
	for i := int32(0); i < n; i++ {
		if p := parent[i]; p >= 0 {
			child[cursor[p]] = i
			cursor[p]++
		}
	}

	// Pre-order walk of each hierarchy, with cursor reused as the walk
	// stack; the reversed walk then sums sub-hierarchy sizes bottom-up.
	order := make([]int32, 0, n)
	for r := int32(0); r < n; r++ {
		if parent[r] >= 0 {
			continue
		}
		stack := append(cursor[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x.pre[v] = int32(len(order))
			order = append(order, v)
			stack = append(stack, child[childOff[v]:childOff[v+1]]...)
		}
	}
	var conc int32
	for _, v := range order {
		r := v
		for parent[r] >= 0 {
			r = parent[r]
		}
		x.root[v] = r
		x.size[v] = 1
		x.cpre[v] = conc
		if !x.ents[v].Abstract {
			conc++
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		if p := parent[order[i]]; p >= 0 {
			x.size[p] += x.size[order[i]]
		}
	}

	// Ancestors, nearest first.
	for i := range counts {
		counts[i] = 0
		for p := parent[i]; p >= 0; p = parent[p] {
			counts[i]++
		}
	}
	x.anc.sized(counts)
	for i := int32(0); i < n; i++ {
		k := x.anc.off[i]
		for p := parent[i]; p >= 0; p = parent[p] {
			x.anc.buf[k] = x.ents[p].Name
			k++
		}
	}

	// Descendants and concrete types: walking the types in declaration
	// order and appending each to the lists of its ancestors keeps every
	// list in declaration order, even where a rerooted type precedes its
	// new base.
	for i := range counts {
		counts[i] = x.size[i] - 1
	}
	x.desc.sized(counts)
	copy(cursor, x.desc.off[:n])
	for i := int32(0); i < n; i++ {
		for p := parent[i]; p >= 0; p = parent[p] {
			x.desc.buf[cursor[p]] = x.ents[i].Name
			cursor[p]++
		}
	}
	clear(counts)
	for i := int32(0); i < n; i++ {
		if !x.ents[i].Abstract {
			for p := i; p >= 0; p = parent[p] {
				counts[p]++
			}
		}
	}
	x.concrete.sized(counts)
	copy(cursor, x.concrete.off[:n])
	for i := int32(0); i < n; i++ {
		if !x.ents[i].Abstract {
			for p := i; p >= 0; p = parent[p] {
				x.concrete.buf[cursor[p]] = x.ents[i].Name
				cursor[p]++
			}
		}
	}

	// Attributes, root-most first: a derived type's list concatenates its
	// chain's declared attributes; a root's is its own Attrs.
	for i := range counts {
		counts[i] = 0
		if parent[i] >= 0 {
			for p := int32(i); p >= 0; p = parent[p] {
				counts[i] += int32(len(x.ents[p].Attrs))
			}
		}
	}
	x.attrs.sized(counts)
	for i := int32(0); i < n; i++ {
		a, b := x.attrs.off[i], x.attrs.off[i+1]
		for p := i; p >= 0 && b > a; p = parent[p] {
			own := x.ents[p].Attrs
			b -= int32(len(own))
			copy(x.attrs.buf[b:], own)
		}
	}
	for i := int32(0); i < n; i++ {
		counts[i] = int32(len(x.allAttrs(i)))
	}
	x.attrNames.sized(counts)
	for i := int32(0); i < n; i++ {
		k := x.attrNames.off[i]
		for _, a := range x.allAttrs(i) {
			x.attrNames.buf[k] = a.Name
			k++
		}
	}

	// Sub-hierarchy attribute names of inner types: the type's own names,
	// then each descendant's new ones. seen stamps each name with the ID
	// (plus one) of the type whose list last took it.
	seen := map[string]int32{}
	x.subNames.off = make([]int32, n+1)
	for i := int32(0); i < n; i++ {
		x.subNames.off[i] = int32(len(x.subNames.buf))
		if x.size[i] == 1 {
			continue
		}
		desc := x.desc.at(i)
		for k := -1; k < len(desc); k++ { // k = -1 is the type itself
			t := i
			if k >= 0 {
				t = x.ids[desc[k]]
			}
			for _, a := range x.attrNames.at(t) {
				if seen[a] != i+1 {
					seen[a] = i + 1
					x.subNames.buf = append(x.subNames.buf, a)
				}
			}
		}
	}
	x.subNames.off[n] = int32(len(x.subNames.buf))

	// The first type in declaration order of each multi-type hierarchy to
	// carry an attribute name decides its domain and nullability.
	for i := int32(0); i < n; i++ {
		r := x.root[i]
		if x.size[r] == 1 {
			continue
		}
		if x.firstDef == nil {
			x.firstDef = map[rootAttr]Attribute{}
		}
		for _, a := range x.allAttrs(i) {
			k := rootAttr{r, a.Name}
			if _, ok := x.firstDef[k]; !ok {
				x.firstDef[k] = a
			}
		}
	}

	x.sets = make(map[string]*EntitySet, len(s.sets))
	x.setOf = make(map[string]*EntitySet, len(s.sets))
	for _, e := range s.sets {
		if _, ok := x.sets[e.Name]; !ok {
			x.sets[e.Name] = e
		}
		if _, ok := x.setOf[e.Type]; !ok {
			x.setOf[e.Type] = e
		}
	}
	x.assocs = make(map[string]*Association, len(s.assocs))
	for _, a := range s.assocs {
		if _, ok := x.assocs[a.Name]; !ok {
			x.assocs[a.Name] = a
		}
	}
	return x
}

// allAttrs is AllAttrs by ID.
func (x *index) allAttrs(id int32) []Attribute {
	if x.ents[id].Base == "" {
		a := x.ents[id].Attrs
		if len(a) == 0 {
			return nil
		}
		return a[:len(a):len(a)]
	}
	return x.attrs.at(id)
}

// concreteSpan returns the ranks [lo, hi) of the concrete types of id's
// sub-hierarchy among the pre-order walk's concrete types.
func (x *index) concreteSpan(id int32) (lo, hi int32) {
	return x.cpre[id], x.cpre[id] + x.concrete.off[id+1] - x.concrete.off[id]
}

// attr finds an attribute of the type by ID.
func (x *index) attr(id int32, name string) (Attribute, bool) {
	for _, a := range x.allAttrs(id) {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// lookup resolves a type name to its ID.
func (s *Schema) lookup(typeName string) (*index, int32, bool) {
	x := s.index()
	id, ok := x.ids[typeName]
	return x, id, ok
}

// hierarchyAttr returns the attribute named attr as the hierarchy of
// typeName carries it: that of the first type, in declaration order, whose
// attributes (declared or inherited) include the name. Sibling types may
// declare the same name, so the answer depends on that order.
func (s *Schema) hierarchyAttr(typeName, attr string) (Attribute, bool) {
	x, id, ok := s.lookup(typeName)
	if !ok {
		return Attribute{}, false
	}
	r := x.root[id]
	if x.size[r] == 1 {
		return x.attr(r, attr)
	}
	a, ok := x.firstDef[rootAttr{r, attr}]
	return a, ok
}
