package cqt

import (
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/state"
)

// Result is the relational output of evaluating a query tree.
type Result struct {
	Cols []string
	Rows []state.Row
}

// queryTheory wraps the client schema so IS OF conditions inside query
// trees see the real hierarchy.
type queryTheory struct {
	cat *Catalog
}

func (t queryTheory) ConcreteTypes(string) []string { return nil }
func (t queryTheory) IsSubtype(sub, typ string) bool {
	return t.cat.Client.IsSubtype(sub, typ)
}
func (t queryTheory) Domain(string) (cond.Domain, bool) { return cond.Domain{}, false }
func (t queryTheory) Nullable(string) bool              { return true }
func (t queryTheory) HasAttr(string, string) bool       { return true }

// QueryTheory returns the condition theory query evaluation runs under:
// IS OF sees the catalog's real client hierarchy, everything else is free.
// Every evaluator of query trees selects under it.
func QueryTheory(cat *Catalog) cond.Theory { return queryTheory{cat: cat} }
