package store

import (
	"encoding/binary"
	"math/bits"
)

// validJSON reports whether data is one JSON value, optionally surrounded
// by whitespace: the language encoding/json's Valid accepts, including its
// limit of 10,000 nested arrays and objects and its leniency inside
// strings, where any byte but a control byte, the quote and the backslash
// stands for itself (invalid UTF-8 included). It walks the value once with
// an explicit stack, reading strings eight bytes at a time, instead of
// Valid's per-byte state machine; the package tests fuzz it against
// json.Valid.
func validJSON(data []byte) bool {
	const maxDepth = 10000
	// open holds one entry per open container: true for an object.
	var stack [64]bool
	open := stack[:0]
	n := len(data)
	i := 0
	key := false // the value at i is an object member's key
	for {
		// A value (or a key) starts at i.
		if i = skipSpace(data, i); i >= n {
			return false
		}
		c := data[i]
		if key && c != '"' {
			return false
		}
		switch {
		case c == '"':
			i++
			for {
				if i+8 <= n {
					w := binary.LittleEndian.Uint64(data[i:])
					q := w ^ ('"' * lsb)
					bs := w ^ ('\\' * lsb)
					// The has-less-than test: a top bit survives for each
					// byte of w below 0x20 and each zero byte of q or bs (a
					// quote or a backslash). A borrow can set one above a
					// hit too, never below, so the lowest marks the first
					// special byte.
					hit := ((w-0x20*lsb)&^w | (q-lsb)&^q | (bs-lsb)&^bs) & msb
					if hit == 0 {
						i += 8
						continue
					}
					i += bits.TrailingZeros64(hit) >> 3
				} else {
					for i < n && plainByte[data[i]] {
						i++
					}
					if i >= n {
						return false
					}
				}
				if data[i] == '"' {
					i++
					break
				}
				if i = escapeEnd(data, i); i < 0 {
					return false
				}
			}
			if key {
				if i = skipSpace(data, i); i >= n || data[i] != ':' {
					return false
				}
				i++
				key = false
				continue
			}
		case c == '{' || c == '[':
			if len(open) == maxDepth {
				return false
			}
			if i = skipSpace(data, i+1); i < n && data[i] == c+2 { // '}' or ']'
				i++
				break
			}
			open = append(open, c == '{')
			key = c == '{'
			continue
		case c == '-' || '0' <= c && c <= '9':
			i = numberEnd(data, i)
		case c == 't':
			i = literalEnd(data, i, "true")
		case c == 'f':
			i = literalEnd(data, i, "false")
		case c == 'n':
			i = literalEnd(data, i, "null")
		default:
			return false
		}
		// A value ended at i: close containers until one takes another.
		for {
			if i < 0 {
				return false
			}
			i = skipSpace(data, i)
			if len(open) == 0 {
				return i == n
			}
			if i >= n {
				return false
			}
			obj := open[len(open)-1]
			c := data[i]
			i++
			if c == ',' {
				key = obj
				break
			}
			if obj && c != '}' || !obj && c != ']' {
				return false
			}
			open = open[:len(open)-1]
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// plainByte marks the bytes a string holds verbatim: all but the control
// bytes, the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < 256; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// escapeEnd returns the index after the escape sequence inside a string at
// i, or -1 when there is none: a byte that is not a backslash there is a
// control byte, which a string must not hold.
func escapeEnd(data []byte, i int) int {
	if data[i] != '\\' || i+1 >= len(data) {
		return -1
	}
	switch data[i+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return i + 2
	case 'u':
		if i+6 > len(data) {
			return -1
		}
		for _, h := range data[i+2 : i+6] {
			if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
				return -1
			}
		}
		return i + 6
	}
	return -1
}

// numberEnd returns the index after the number that starts at i, or -1:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberEnd(data []byte, i int) int {
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digitsEnd(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		j := digitsEnd(data, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digitsEnd(data, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// literalEnd returns the index after lit, which must start at i, or -1.
func literalEnd(data []byte, i int, lit string) int {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}
