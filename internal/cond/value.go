// Package cond implements the boolean condition language used by mapping
// fragments, query views, and update views in the incremental mapping
// compiler. The language follows §2.1 of Bernstein et al. (SIGMOD 2013): an
// AND-OR combination of atoms of the form IS OF E, IS OF (ONLY E),
// A IS NULL, A IS NOT NULL, and A θ c, closed under negation.
//
// Besides the syntax, the package provides theory-aware reasoning:
// satisfiability, implication, equivalence and tautology checking over a
// theory describing the entity-type hierarchy, attribute domains and
// nullability. These checks are the computational core of mapping
// validation and are exponential in the worst case, as the paper requires.
package cond

import (
	"fmt"
	"strconv"
)

// Kind enumerates the primitive value kinds supported by client attributes
// and store columns.
type Kind int

// Supported primitive kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is an immutable typed constant. The zero value is the empty string.
// Value is comparable and can be used as a map key.
type Value struct {
	K Kind
	s string
	i int64
	f float64
	b bool
}

// String returns a string Value.
func String(s string) Value { return Value{K: KindString, s: s} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{K: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{K: KindFloat, f: f} }

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{K: KindBool, b: b} }

// Str reports the underlying string of a KindString value.
func (v Value) Str() string { return v.s }

// IntVal reports the underlying integer of a KindInt value.
func (v Value) IntVal() int64 { return v.i }

// FloatVal reports the underlying float of a KindFloat value.
func (v Value) FloatVal() float64 { return v.f }

// BoolVal reports the underlying bool of a KindBool value.
func (v Value) BoolVal() bool { return v.b }

// String renders the value as an Entity SQL literal.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends String's rendering of the value to dst: a string
// between single quotes, verbatim; an integer in decimal; a float in the
// shortest 'g' form that reads back; true or false; and ? for a value of
// no known kind.
func (v Value) AppendText(dst []byte) []byte {
	switch v.K {
	case KindString:
		dst = append(dst, '\'')
		dst = append(dst, v.s...)
		return append(dst, '\'')
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	default:
		return append(dst, '?')
	}
}

// Compare compares two values of the same kind. It returns a negative,
// zero, or positive integer in the usual way. Comparing values of
// different kinds returns ok == false.
func Compare(a, b Value) (c int, ok bool) {
	if a.K != b.K {
		return 0, false
	}
	switch a.K {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, true
		case a.s > b.s:
			return 1, true
		}
		return 0, true
	case KindInt:
		switch {
		case a.i < b.i:
			return -1, true
		case a.i > b.i:
			return 1, true
		}
		return 0, true
	case KindFloat:
		switch {
		case a.f < b.f:
			return -1, true
		case a.f > b.f:
			return 1, true
		}
		return 0, true
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1, true
		case a.b && !b.b:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
