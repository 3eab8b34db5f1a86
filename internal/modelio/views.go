// Structural serialization of compiled views. Unlike the mapping document
// (modelio.go), which renders conditions in Entity-SQL text for human
// readability, compiled artifacts round-trip through a structural JSON form:
// the esql grammar cannot represent every expression the compiler builds
// (e.g. multi-subject conditions with explicit empty subjects), and the
// decode path must rebuild conditions through the cond constructors so the
// hash-consing invariant — structurally equal composites are pointer-equal —
// holds for loaded views exactly as for freshly compiled ones.
package modelio

import (
	"fmt"
	"io"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
)

// EncodeViews writes a compiled view set as JSON: AppendViews's compact
// form ended by a newline.
func EncodeViews(w io.Writer, v *frag.Views) error {
	b, err := AppendViews(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func joinKindName(k cqt.JoinKind) string {
	switch k {
	case cqt.Inner:
		return "inner"
	case cqt.LeftOuter:
		return "left"
	case cqt.FullOuter:
		return "full"
	}
	return "?"
}

func joinKindOf(name string) (cqt.JoinKind, error) {
	switch name {
	case "inner":
		return cqt.Inner, nil
	case "left":
		return cqt.LeftOuter, nil
	case "full":
		return cqt.FullOuter, nil
	}
	return 0, fmt.Errorf("unknown join kind %q", name)
}

func cmpOpName(o cond.Op) string { return o.String() }

func cmpOpOf(name string) (cond.Op, error) {
	switch name {
	case "=":
		return cond.OpEq, nil
	case "<>":
		return cond.OpNe, nil
	case "<":
		return cond.OpLt, nil
	case "<=":
		return cond.OpLe, nil
	case ">":
		return cond.OpGt, nil
	case ">=":
		return cond.OpGe, nil
	}
	return 0, fmt.Errorf("unknown comparison operator %q", name)
}
