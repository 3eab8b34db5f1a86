// Package modelio serializes mappings — client schema, store schema and
// fragment set — to and from a JSON document. Conditions use the
// Entity-SQL-like syntax of package esql so the files stay readable, in
// the spirit of EF's MSL mapping-specification files.
package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
)

// Encode writes a mapping as indented JSON: AppendMapping's compact
// document, indented two spaces and ended by a newline.
func Encode(w io.Writer, m *frag.Mapping) error {
	b, err := AppendMapping(nil, m)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, b, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err = w.Write(out.Bytes())
	return err
}

func kindName(k cond.Kind) string { return k.String() }

func kindOf(name string) (cond.Kind, error) {
	switch name {
	case "string":
		return cond.KindString, nil
	case "int":
		return cond.KindInt, nil
	case "float":
		return cond.KindFloat, nil
	case "bool":
		return cond.KindBool, nil
	}
	return 0, fmt.Errorf("modelio: unknown kind %q", name)
}

func multName(m edm.Mult) string { return m.String() }

func multOf(name string) (edm.Mult, error) {
	switch name {
	case "1":
		return edm.One, nil
	case "0..1":
		return edm.ZeroOne, nil
	case "*":
		return edm.Many, nil
	}
	return 0, fmt.Errorf("modelio: unknown multiplicity %q", name)
}
