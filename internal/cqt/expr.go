// Package cqt implements canonical query trees: the internal representation
// of query and update views in the incremental mapping compiler, analogous
// to Entity Framework's canonical query trees described in §4.1 of
// Bernstein et al. (SIGMOD 2013). A tree is a relational-algebra expression
// over entity sets, association sets and tables, built from project (with
// rename and computed constants), select, inner/left-outer/full-outer join
// and union-all. A view pairs a tree with a constructor that assembles
// typed entities from the tree's relational output (the paper's (Q | τ)
// notation).
package cqt

import (
	"fmt"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/rel"
)

// Expr is a relational query tree node.
type Expr interface {
	isQ()
}

// ScanTable reads all rows of a store table.
type ScanTable struct {
	Table string
}

// ScanSet reads all entities of a client entity set as rows. The output has
// one column per attribute occurring anywhere in the set's hierarchy;
// attributes an entity lacks are NULL. Rows keep their entity type for
// IS OF conditions.
type ScanSet struct {
	Set string
}

// ScanAssoc reads all pairs of a client association set as rows with the
// qualified end-key columns given by AssocEndCols.
type ScanAssoc struct {
	Assoc string
}

// Select filters rows by a condition.
type Select struct {
	In   Expr
	Cond cond.Expr
}

// Literal is a constant projection source, possibly a typed NULL.
type Literal struct {
	Null bool
	Kind cond.Kind
	Val  cond.Value
}

// Value returns the literal's value; ok is false for NULL.
func (l Literal) Value() (cond.Value, bool) {
	if l.Null {
		return cond.Value{}, false
	}
	return l.Val, true
}

// NullOf returns a typed NULL literal.
func NullOf(k cond.Kind) *Literal { return &Literal{Null: true, Kind: k} }

// Const returns a constant literal.
func Const(v cond.Value) *Literal { return &Literal{Kind: v.K, Val: v} }

// ProjCol is one output column of a projection: either a (possibly renamed)
// input column or a literal.
type ProjCol struct {
	As  string
	Src string   // input column when Lit == nil
	Lit *Literal // literal when non-nil
}

// Col projects an input column under its own name.
func Col(name string) ProjCol { return ProjCol{As: name, Src: name} }

// ColAs projects an input column under a new name.
func ColAs(src, as string) ProjCol { return ProjCol{As: as, Src: src} }

// LitAs projects a literal under the given name.
func LitAs(l *Literal, as string) ProjCol { return ProjCol{As: as, Lit: l} }

// Project renames, reorders, drops and computes columns.
type Project struct {
	In   Expr
	Cols []ProjCol
}

// JoinKind distinguishes join flavours.
type JoinKind int

// Join flavours.
const (
	Inner JoinKind = iota
	LeftOuter
	FullOuter
)

// String renders the join kind in SQL.
func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "INNER JOIN"
	case LeftOuter:
		return "LEFT OUTER JOIN"
	case FullOuter:
		return "FULL OUTER JOIN"
	}
	return "JOIN"
}

// Join combines two inputs on column equalities. Columns shared by both
// sides must appear as an equated pair; the merged output carries each
// output column once, coalescing the two sides for outer joins.
type Join struct {
	Kind JoinKind
	L, R Expr
	// On lists [leftCol, rightCol] equality pairs.
	On [][2]string
}

// UnionAll concatenates inputs with identical column sets.
type UnionAll struct {
	Inputs []Expr
}

func (ScanTable) isQ() {}
func (ScanSet) isQ()   {}
func (ScanAssoc) isQ() {}
func (Select) isQ()    {}
func (Project) isQ()   {}
func (Join) isQ()      {}
func (UnionAll) isQ()  {}

// Catalog resolves scan targets to their output columns.
type Catalog struct {
	Client *edm.Schema
	Store  *rel.Schema
}

// AssocEndCols returns the output column names of an association scan:
// the key attributes of each end, qualified by the end's type name (or the
// type name with an end index when both ends have the same type). This
// matches the paper's Customer.Id / Employee.Id convention, with '_' in
// place of '.' so the names stay unqualified for condition reasoning.
func AssocEndCols(s *edm.Schema, a *edm.Association) (end1, end2 []string) {
	b1, b2 := a.End1.Type, a.End2.Type
	if b1 == b2 {
		b1 += "1"
		b2 += "2"
	}
	for _, k := range s.KeyOf(a.End1.Type) {
		end1 = append(end1, b1+"_"+k)
	}
	for _, k := range s.KeyOf(a.End2.Type) {
		end2 = append(end2, b2+"_"+k)
	}
	return end1, end2
}

// SetCols returns the output columns of an entity-set scan: every attribute
// occurring anywhere in the set's hierarchy, in hierarchy declaration
// order, without duplicates. The result is shared with the schema and must
// not be written into.
func SetCols(s *edm.Schema, set *edm.EntitySet) []string {
	return s.SubtreeAttrNames(set.Type)
}

// Cols computes the output column names of an expression. The result may
// be shared with the schemas and must not be written into.
func (c *Catalog) Cols(e Expr) ([]string, error) {
	switch v := e.(type) {
	case ScanTable:
		t := c.Store.Table(v.Table)
		if t == nil {
			return nil, fmt.Errorf("cqt: unknown table %q", v.Table)
		}
		return t.ColNames(), nil
	case ScanSet:
		set := c.Client.Set(v.Set)
		if set == nil {
			return nil, fmt.Errorf("cqt: unknown entity set %q", v.Set)
		}
		return SetCols(c.Client, set), nil
	case ScanAssoc:
		a := c.Client.Association(v.Assoc)
		if a == nil {
			return nil, fmt.Errorf("cqt: unknown association %q", v.Assoc)
		}
		e1, e2 := AssocEndCols(c.Client, a)
		return append(e1, e2...), nil
	case Select:
		return c.Cols(v.In)
	case Project:
		out := make([]string, len(v.Cols))
		for i, pc := range v.Cols {
			out[i] = pc.As
		}
		return out, nil
	case Join:
		lc, err := c.Cols(v.L)
		if err != nil {
			return nil, err
		}
		rc, err := c.Cols(v.R)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out []string
		for _, n := range lc {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		for _, n := range rc {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		return out, nil
	case UnionAll:
		if len(v.Inputs) == 0 {
			return nil, fmt.Errorf("cqt: empty union")
		}
		return c.Cols(v.Inputs[0])
	}
	return nil, fmt.Errorf("cqt: unknown expression %T", e)
}

// KeyCols returns the primary-key output columns of an expression when they
// can be traced through projections and selections to a base scan's key;
// ok is false otherwise. It is used to justify join-elimination rewrites.
func (c *Catalog) KeyCols(e Expr) (key []string, ok bool) {
	switch v := e.(type) {
	case ScanTable:
		t := c.Store.Table(v.Table)
		if t == nil {
			return nil, false
		}
		return t.Key, true
	case ScanSet:
		set := c.Client.Set(v.Set)
		if set == nil {
			return nil, false
		}
		return c.Client.KeyOf(set.Type), true
	case ScanAssoc:
		a := c.Client.Association(v.Assoc)
		if a == nil {
			return nil, false
		}
		e1, e2 := AssocEndCols(c.Client, a)
		// An end with multiplicity at most one is determined by the other
		// end, so the other end's columns key the association set.
		switch {
		case a.End2.Mult != edm.Many:
			return e1, true
		case a.End1.Mult != edm.Many:
			return e2, true
		default:
			return append(append([]string(nil), e1...), e2...), true
		}
	case Select:
		return c.KeyCols(v.In)
	case Project:
		inner, ok := c.KeyCols(v.In)
		if !ok {
			return nil, false
		}
		// Every key column must survive the projection (possibly renamed).
		var out []string
		for _, k := range inner {
			found := ""
			for _, pc := range v.Cols {
				if pc.Lit == nil && pc.Src == k {
					found = pc.As
					break
				}
			}
			if found == "" {
				return nil, false
			}
			out = append(out, found)
		}
		return out, true
	}
	return nil, false
}
