package state

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
)

// fmtValue is the fmt-era rendering of a value, the oracle for
// cond.Value.AppendText and String.
func fmtValue(v cond.Value) string {
	switch v.K {
	case cond.KindString:
		return "'" + v.Str() + "'"
	case cond.KindInt:
		return strconv.FormatInt(v.IntVal(), 10)
	case cond.KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case cond.KindBool:
		if v.BoolVal() {
			return "true"
		}
		return "false"
	}
	return "?"
}

// fmtCanonical is the fmt-era Row.Canonical, the oracle for
// AppendCanonical.
func fmtCanonical(r Row) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, fmtValue(r[k]))
	}
	return b.String()
}

// TestAppendCanonicalMatchesFmt holds the append forms to the fmt forms
// on random rows of every value kind, with names and strings that hold
// commas, quotes, '=' and non-ASCII bytes, and rows wider than the
// 16-column fast path.
func TestAppendCanonicalMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"", "a", "Id", ",", "'", `"`, "=", "é", "日本", "\xff", " ", "a=b,c", "\x00"}
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	floats := []float64{0, -0.0, 1.5, 1e21, 1e-7, -3, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	value := func() cond.Value {
		switch rng.Intn(5) {
		case 0:
			return cond.String(word())
		case 1:
			return cond.Int(rng.Int63() - rng.Int63())
		case 2:
			return cond.Float(floats[rng.Intn(len(floats))])
		case 3:
			return cond.Bool(rng.Intn(2) == 0)
		}
		return cond.Value{K: cond.Kind(4 + rng.Intn(3))}
	}
	var buf []byte
	for i := 0; i < 2000; i++ {
		r := Row{}
		for n := rng.Intn(20); n > 0; n-- {
			r[word()] = value()
		}
		want := fmtCanonical(r)
		if got := r.Canonical(); got != want {
			t.Fatalf("Canonical = %q, want %q", got, want)
		}
		buf = r.AppendCanonical(append(buf[:0], "prefix"...))
		if got := string(buf); got != "prefix"+want {
			t.Fatalf("AppendCanonical = %q, want prefix%q", got, want)
		}
		for _, v := range r {
			if got := v.String(); got != fmtValue(v) {
				t.Fatalf("String = %q, want %q", got, fmtValue(v))
			}
			if got := string(v.AppendText([]byte("x"))); got != "x"+fmtValue(v) {
				t.Fatalf("AppendText = %q, want x%q", got, fmtValue(v))
			}
		}
	}
}
