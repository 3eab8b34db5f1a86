package cqt

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/state"
)

// Case is one branch of an entity constructor τ: when the condition over
// the query's output columns holds, construct an entity of the given type,
// reading each attribute from the named output column.
type Case struct {
	When  cond.Expr
	Type  string
	Attrs map[string]string // attribute -> output column
}

// View is a compiled (Q | τ) pair. For query views of entity types, Cases
// is the constructor; the first matching case wins. For update views and
// association query views Cases is nil and the relational output is used
// directly.
type View struct {
	Q     Expr
	Cases []Case
}

// Clone returns a deep copy of the view. Query trees are immutable, so only
// the case slice is copied.
func (v *View) Clone() *View {
	if v == nil {
		return nil
	}
	out := &View{Q: v.Q}
	out.Cases = make([]Case, len(v.Cases))
	for i, c := range v.Cases {
		attrs := make(map[string]string, len(c.Attrs))
		for k, vv := range c.Attrs {
			attrs[k] = vv
		}
		out.Cases[i] = Case{When: c.When, Type: c.Type, Attrs: attrs}
	}
	return out
}

// ConstructEntity applies a view constructor τ to one relational row: the
// first matching case builds the entity. A row matching no case is an
// error — every row a query view emits must be constructible.
func ConstructEntity(cases []Case, row state.Row) (*state.Entity, error) {
	if e, ok := ConstructVisible(cases, row); ok {
		return e, nil
	}
	return nil, fmt.Errorf("cqt: no constructor case matched row {%s}", row.Canonical())
}

// ConstructVisible applies a constructor whose case list may have been
// restricted (cross-version reads drop cases for types the old version
// does not know): a row matching no case is invisible, not an error.
func ConstructVisible(cases []Case, row state.Row) (*state.Entity, bool) {
	for _, c := range cases {
		if !cond.EvalOn(cond.FreeTheory, c.When, state.RowInstance{R: row}) {
			continue
		}
		attrs := state.Row{}
		for attr, col := range c.Attrs {
			if val, ok := row[col]; ok {
				attrs[attr] = val
			}
		}
		return &state.Entity{Type: c.Type, Attrs: attrs}, true
	}
	return nil, false
}

// FormatConstructor renders τ in the paper's if/else style.
func (v *View) FormatConstructor() string {
	if len(v.Cases) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range v.Cases {
		if i > 0 {
			b.WriteString("\nelse ")
		}
		if _, isTrue := c.When.(cond.True); !isTrue {
			fmt.Fprintf(&b, "if (%s) then ", c.When)
		}
		attrs := make([]string, 0, len(c.Attrs))
		for a := range c.Attrs {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		fmt.Fprintf(&b, "%s(%s)", c.Type, strings.Join(attrs, ", "))
	}
	return b.String()
}
