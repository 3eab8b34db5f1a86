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
	"github.com/ormkit/incmap/internal/esql"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// Document is the JSON shape of a mapping.
type Document struct {
	Client    ClientDoc     `json:"client"`
	Store     StoreDoc      `json:"store"`
	Fragments []FragmentDoc `json:"fragments"`
}

// ClientDoc is the JSON shape of a client schema.
type ClientDoc struct {
	Types        []TypeDoc  `json:"types"`
	Sets         []SetDoc   `json:"sets"`
	Associations []AssocDoc `json:"associations,omitempty"`
}

// TypeDoc is the JSON shape of an entity type.
type TypeDoc struct {
	Name     string    `json:"name"`
	Base     string    `json:"base,omitempty"`
	Abstract bool      `json:"abstract,omitempty"`
	Attrs    []AttrDoc `json:"attrs,omitempty"`
	Key      []string  `json:"key,omitempty"`
}

// AttrDoc is the JSON shape of an attribute or column.
type AttrDoc struct {
	Name     string            `json:"name"`
	Type     string            `json:"type"`
	Nullable bool              `json:"nullable,omitempty"`
	Enum     []json.RawMessage `json:"enum,omitempty"`
}

// SetDoc is the JSON shape of an entity set.
type SetDoc struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// AssocDoc is the JSON shape of an association.
type AssocDoc struct {
	Name string `json:"name"`
	End1 EndDoc `json:"end1"`
	End2 EndDoc `json:"end2"`
}

// EndDoc is the JSON shape of an association end.
type EndDoc struct {
	Type string `json:"type"`
	Mult string `json:"mult"`
}

// StoreDoc is the JSON shape of a store schema.
type StoreDoc struct {
	Tables []TableDoc `json:"tables"`
}

// TableDoc is the JSON shape of a table.
type TableDoc struct {
	Name string    `json:"name"`
	Cols []AttrDoc `json:"cols"`
	Key  []string  `json:"key"`
	FKs  []FKDoc   `json:"fks,omitempty"`
}

// FKDoc is the JSON shape of a foreign key.
type FKDoc struct {
	Name     string   `json:"name"`
	Cols     []string `json:"cols"`
	RefTable string   `json:"refTable"`
	RefCols  []string `json:"refCols"`
}

// FragmentDoc is the JSON shape of a mapping fragment.
type FragmentDoc struct {
	ID         string            `json:"id"`
	Set        string            `json:"set,omitempty"`
	Assoc      string            `json:"assoc,omitempty"`
	ClientCond string            `json:"clientCond"`
	Attrs      []string          `json:"attrs"`
	Table      string            `json:"table"`
	StoreCond  string            `json:"storeCond"`
	ColOf      map[string]string `json:"colOf"`
}

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

// Decode reads a mapping from JSON and validates it.
func Decode(r io.Reader) (*frag.Mapping, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	return fromDocument(&doc)
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

func decodeEnum(k cond.Kind, raws []json.RawMessage) ([]cond.Value, error) {
	out := make([]cond.Value, 0, len(raws))
	for _, raw := range raws {
		switch k {
		case cond.KindString:
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			out = append(out, cond.String(s))
		case cond.KindInt:
			var i int64
			if err := json.Unmarshal(raw, &i); err != nil {
				return nil, err
			}
			out = append(out, cond.Int(i))
		case cond.KindFloat:
			var f float64
			if err := json.Unmarshal(raw, &f); err != nil {
				return nil, err
			}
			out = append(out, cond.Float(f))
		case cond.KindBool:
			var b bool
			if err := json.Unmarshal(raw, &b); err != nil {
				return nil, err
			}
			out = append(out, cond.Bool(b))
		}
	}
	return out, nil
}

func fromDocument(doc *Document) (*frag.Mapping, error) {
	c := edm.NewSchema()
	for _, td := range doc.Client.Types {
		t := edm.EntityType{Name: td.Name, Base: td.Base, Abstract: td.Abstract, Key: td.Key}
		for _, ad := range td.Attrs {
			k, err := kindOf(ad.Type)
			if err != nil {
				return nil, err
			}
			enum, err := decodeEnum(k, ad.Enum)
			if err != nil {
				return nil, err
			}
			t.Attrs = append(t.Attrs, edm.Attribute{Name: ad.Name, Type: k, Nullable: ad.Nullable, Enum: enum})
		}
		if err := c.AddType(t); err != nil {
			return nil, err
		}
	}
	for _, sd := range doc.Client.Sets {
		if err := c.AddSet(edm.EntitySet{Name: sd.Name, Type: sd.Type}); err != nil {
			return nil, err
		}
	}
	for _, ad := range doc.Client.Associations {
		m1, err := multOf(ad.End1.Mult)
		if err != nil {
			return nil, err
		}
		m2, err := multOf(ad.End2.Mult)
		if err != nil {
			return nil, err
		}
		if err := c.AddAssociation(edm.Association{
			Name: ad.Name,
			End1: edm.End{Type: ad.End1.Type, Mult: m1},
			End2: edm.End{Type: ad.End2.Type, Mult: m2},
		}); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}

	s := rel.NewSchema()
	for _, td := range doc.Store.Tables {
		t := rel.Table{Name: td.Name, Key: td.Key}
		for _, cd := range td.Cols {
			k, err := kindOf(cd.Type)
			if err != nil {
				return nil, err
			}
			enum, err := decodeEnum(k, cd.Enum)
			if err != nil {
				return nil, err
			}
			t.Cols = append(t.Cols, rel.Column{Name: cd.Name, Type: k, Nullable: cd.Nullable, Enum: enum})
		}
		for _, fd := range td.FKs {
			t.FKs = append(t.FKs, rel.ForeignKey{Name: fd.Name, Cols: fd.Cols, RefTable: fd.RefTable, RefCols: fd.RefCols})
		}
		if err := s.AddTable(t); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}

	m := &frag.Mapping{Client: c, Store: s}
	for _, fd := range doc.Fragments {
		cc, err := esql.ParseCond(fd.ClientCond)
		if err != nil {
			return nil, fmt.Errorf("modelio: fragment %s client condition: %w", fd.ID, err)
		}
		sc, err := esql.ParseCond(fd.StoreCond)
		if err != nil {
			return nil, fmt.Errorf("modelio: fragment %s store condition: %w", fd.ID, err)
		}
		m.Frags = append(m.Frags, &frag.Fragment{
			ID:         fd.ID,
			Set:        fd.Set,
			Assoc:      fd.Assoc,
			ClientCond: cc,
			Attrs:      fd.Attrs,
			Table:      fd.Table,
			StoreCond:  sc,
			ColOf:      fd.ColOf,
		})
	}
	if err := m.CheckWellFormed(); err != nil {
		return nil, err
	}
	return m, nil
}
