package cond

import (
	"fmt"
	"sort"
	"strings"
)

// Op is a comparison operator in an A θ c atom.
type Op int

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary operator under a non-null operand
// (e.g. the negation of < is >=).
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return o
}

// Expr is a boolean condition over a single scan subject (entity or row) or,
// when attribute names are qualified as "alias.attr" and type atoms carry a
// Var, over several subjects at once. Expr values are immutable; rewrites
// build new trees.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// True is the always-true condition.
type True struct{}

// False is the always-false condition.
type False struct{}

// TypeIs is the atom IS OF T (Only=false) or IS OF (ONLY T) (Only=true).
// Var names the subject when the condition ranges over several scans;
// it is empty for single-subject conditions.
type TypeIs struct {
	Var  string
	Type string
	Only bool
}

// Null is the atom A IS NULL.
type Null struct {
	Attr string
}

// Cmp is the atom Attr Op Val. Its SQL semantics are three-valued collapsed
// to two: the atom is true iff Attr is non-null and the comparison holds.
type Cmp struct {
	Attr string
	Op   Op
	Val  Value
}

// Not is logical negation. Composite nodes (Not, And, Or) are pointer
// types built only through the New* constructors, which hash-cons them in
// a process-wide intern table: structurally identical composites share one
// node. Every dynamic type of Expr is therefore comparable — atoms by
// value, composites by pointer — and == on two interned expressions is a
// structural-equality test.
type Not struct {
	X Expr

	key   string // canonical structural encoding (intern key)
	ck    string // content address: hash of key, stable across processes
	atoms []Atom // memoized Atoms result, fixed at construction
	ref   uint32 // second-chance bit for intern-table eviction (atomic)
}

// And is n-ary conjunction (hash-consed; see Not). The constructors never
// produce an empty or single-element And.
type And struct {
	Xs []Expr

	key   string
	ck    string
	atoms []Atom
	ref   uint32
}

// Or is n-ary disjunction (hash-consed; see Not). The constructors never
// produce an empty or single-element Or.
type Or struct {
	Xs []Expr

	key   string
	ck    string
	atoms []Atom
	ref   uint32
}

func (True) isExpr()   {}
func (False) isExpr()  {}
func (TypeIs) isExpr() {}
func (Null) isExpr()   {}
func (Cmp) isExpr()    {}
func (*Not) isExpr()   {}
func (*And) isExpr()   {}
func (*Or) isExpr()    {}

func (True) String() string  { return "TRUE" }
func (False) String() string { return "FALSE" }

func (t TypeIs) String() string {
	subj := t.Var
	if subj == "" {
		subj = "e"
	}
	if t.Only {
		return fmt.Sprintf("%s IS OF (ONLY %s)", subj, t.Type)
	}
	return fmt.Sprintf("%s IS OF %s", subj, t.Type)
}

func (n Null) String() string { return n.Attr + " IS NULL" }

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Val) }

func (n *Not) String() string {
	if in, ok := n.X.(Null); ok {
		return in.Attr + " IS NOT NULL"
	}
	return "NOT (" + n.X.String() + ")"
}

func (a *And) String() string { return joinExprs(a.Xs, " AND ", "TRUE") }
func (o *Or) String() string  { return joinExprs(o.Xs, " OR ", "FALSE") }

func joinExprs(xs []Expr, sep, empty string) string {
	if len(xs) == 0 {
		return empty
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		s := x.String()
		if needsParens(x) {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func needsParens(x Expr) bool {
	switch x.(type) {
	case *And, *Or:
		return true
	}
	return false
}

// NotNull returns the condition Attr IS NOT NULL.
func NotNull(attr string) Expr { return NewNot(Null{Attr: attr}) }

// NewAnd builds a conjunction, flattening nested Ands and applying the
// obvious True/False simplifications.
func NewAnd(xs ...Expr) Expr {
	var out []Expr
	for _, x := range xs {
		switch v := x.(type) {
		case nil:
		case True:
		case False:
			return False{}
		case *And:
			out = append(out, v.Xs...)
		default:
			out = append(out, x)
		}
	}
	switch len(out) {
	case 0:
		return True{}
	case 1:
		return out[0]
	}
	return internAnd(out)
}

// NewOr builds a disjunction, flattening nested Ors and applying the obvious
// True/False simplifications.
func NewOr(xs ...Expr) Expr {
	var out []Expr
	for _, x := range xs {
		switch v := x.(type) {
		case nil:
		case False:
		case True:
			return True{}
		case *Or:
			out = append(out, v.Xs...)
		default:
			out = append(out, x)
		}
	}
	switch len(out) {
	case 0:
		return False{}
	case 1:
		return out[0]
	}
	return internOr(out)
}

// NewNot negates an expression, pushing negation through constants and
// collapsing double negation.
func NewNot(x Expr) Expr {
	switch v := x.(type) {
	case True:
		return False{}
	case False:
		return True{}
	case *Not:
		return v.X
	}
	return internNot(x)
}

// AtomKind distinguishes the atom families.
type AtomKind int

// Atom families.
const (
	AtomType AtomKind = iota // IS OF T (possibly ONLY)
	AtomNull                 // A IS NULL
	AtomCmp                  // A θ c
)

// Atom is a canonical, comparable identity for an atomic condition. It is
// usable as a map key.
type Atom struct {
	Kind AtomKind
	Var  string // type atoms only
	Type string // type atoms only
	Only bool   // type atoms only
	Attr string // null and cmp atoms
	Op   Op     // cmp atoms only
	Val  Value  // cmp atoms only
}

// String renders the atom as its positive-expression form.
func (a Atom) String() string { return a.Expr().String() }

// Expr returns the positive expression form of the atom.
func (a Atom) Expr() Expr {
	switch a.Kind {
	case AtomType:
		return TypeIs{Var: a.Var, Type: a.Type, Only: a.Only}
	case AtomNull:
		return Null{Attr: a.Attr}
	case AtomCmp:
		return Cmp{Attr: a.Attr, Op: a.Op, Val: a.Val}
	}
	return False{}
}

func atomOf(x Expr) (Atom, bool) {
	switch v := x.(type) {
	case TypeIs:
		return Atom{Kind: AtomType, Var: v.Var, Type: v.Type, Only: v.Only}, true
	case Null:
		return Atom{Kind: AtomNull, Attr: v.Attr}, true
	case Cmp:
		return Atom{Kind: AtomCmp, Attr: v.Attr, Op: v.Op, Val: v.Val}, true
	}
	return Atom{}, false
}

// Atoms returns the distinct atoms of the expression in a deterministic
// order. Composite nodes memoize the result at construction, so repeated
// calls on interned trees are O(1), and a bare atom is its own list.
// Callers must not modify the returned slice.
func Atoms(x Expr) []Atom {
	switch v := x.(type) {
	case TypeIs, Null, Cmp:
		a, _ := atomOf(x)
		return []Atom{a}
	case *Not:
		if v.atoms != nil {
			return v.atoms
		}
	case *And:
		if v.atoms != nil {
			return v.atoms
		}
	case *Or:
		if v.atoms != nil {
			return v.atoms
		}
	}
	return collectAtoms(x)
}

// collectAtoms walks the tree, using child memos where present.
func collectAtoms(x Expr) []Atom {
	seen := map[Atom]bool{}
	var collect func(Expr)
	collect = func(e Expr) {
		if a, ok := atomOf(e); ok {
			seen[a] = true
			return
		}
		switch v := e.(type) {
		case *Not:
			if v.atoms != nil {
				for _, a := range v.atoms {
					seen[a] = true
				}
				return
			}
			collect(v.X)
		case *And:
			if v.atoms != nil {
				for _, a := range v.atoms {
					seen[a] = true
				}
				return
			}
			for _, c := range v.Xs {
				collect(c)
			}
		case *Or:
			if v.atoms != nil {
				for _, a := range v.atoms {
					seen[a] = true
				}
				return
			}
			for _, c := range v.Xs {
				collect(c)
			}
		}
	}
	collect(x)
	out := make([]Atom, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

func (a Atom) less(b Atom) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Only != b.Only {
		return !a.Only
	}
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Val.String() < b.Val.String()
}

// MapAtoms rewrites every atom of x through f, preserving the boolean
// structure. f receives the atom's expression form and returns its
// replacement.
func MapAtoms(x Expr, f func(Expr) Expr) Expr {
	switch v := x.(type) {
	case True, False:
		return x
	case TypeIs, Null, Cmp:
		return f(x)
	case *Not:
		return NewNot(MapAtoms(v.X, f))
	case *And:
		out := make([]Expr, len(v.Xs))
		for i, c := range v.Xs {
			out[i] = MapAtoms(c, f)
		}
		return NewAnd(out...)
	case *Or:
		out := make([]Expr, len(v.Xs))
		for i, c := range v.Xs {
			out[i] = MapAtoms(c, f)
		}
		return NewOr(out...)
	}
	return x
}

// QualifyAttrs prefixes every attribute reference and unqualified type-atom
// subject with the given alias, producing a multi-subject condition suitable
// for use inside joins.
func QualifyAttrs(x Expr, alias string) Expr {
	return MapAtoms(x, func(e Expr) Expr {
		switch v := e.(type) {
		case TypeIs:
			if v.Var == "" {
				v.Var = alias
			}
			return v
		case Null:
			v.Attr = alias + "." + v.Attr
			return v
		case Cmp:
			v.Attr = alias + "." + v.Attr
			return v
		}
		return e
	})
}

// RenameAttrs rewrites attribute references through the given map; names
// absent from the map are kept.
func RenameAttrs(x Expr, ren map[string]string) Expr {
	get := func(a string) string {
		if n, ok := ren[a]; ok {
			return n
		}
		return a
	}
	return MapAtoms(x, func(e Expr) Expr {
		switch v := e.(type) {
		case Null:
			v.Attr = get(v.Attr)
			return v
		case Cmp:
			v.Attr = get(v.Attr)
			return v
		}
		return e
	})
}

// AttrsOf returns the distinct attribute names referenced by null and
// comparison atoms of x, sorted.
func AttrsOf(x Expr) []string {
	set := map[string]bool{}
	for _, a := range Atoms(x) {
		if a.Kind == AtomNull || a.Kind == AtomCmp {
			set[a.Attr] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
