package qfile

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"joinopt/internal/catalog"
)

// Append appends the query's JSON form to dst and returns the extended
// slice. The bytes are exactly what encoding/json's Encoder with
// SetIndent("", "  ") writes for the schema: two-space indentation, a
// trailing newline, "relations" and "predicates" as null when empty,
// the omitempty fields (name, selections, leftDistinct, rightDistinct,
// selectivity, leftHist, rightHist) left out when zero, floats in
// encoding/json's ES6 format, and HTML-safe string escapes. Like
// encoding/json, it refuses a NaN or infinite float; dst is then
// returned unextended.
func Append(dst []byte, q *catalog.Query) ([]byte, error) {
	start := len(dst)
	w := writer{b: dst}
	w.b = append(w.b, "{\n  \"relations\": "...)
	if len(q.Relations) == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i := range q.Relations {
			r := &q.Relations[i]
			w.elem(i, 2)
			w.b = append(w.b, '{')
			if r.Name != "" {
				w.key(3, "name")
				w.b = AppendString(w.b, r.Name)
				w.b = append(w.b, ',')
			}
			w.key(3, "cardinality")
			w.b = strconv.AppendInt(w.b, r.Cardinality, 10)
			if len(r.Selections) > 0 {
				w.b = append(w.b, ',')
				w.key(3, "selections")
				w.b = append(w.b, '[')
				for j, s := range r.Selections {
					w.elem(j, 4)
					w.b = append(w.b, '{')
					w.key(5, "selectivity")
					w.float(s.Selectivity)
					w.close(4, '}')
				}
				w.close(3, ']')
			}
			w.close(2, '}')
		}
		w.close(1, ']')
	}
	w.b = append(w.b, ",\n  \"predicates\": "...)
	if len(q.Predicates) == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i := range q.Predicates {
			p := &q.Predicates[i]
			w.elem(i, 2)
			w.b = append(w.b, '{')
			w.key(3, "left")
			w.b = strconv.AppendInt(w.b, int64(p.Left), 10)
			w.b = append(w.b, ',')
			w.key(3, "right")
			w.b = strconv.AppendInt(w.b, int64(p.Right), 10)
			w.omitEmpty("leftDistinct", p.LeftDistinct)
			w.omitEmpty("rightDistinct", p.RightDistinct)
			w.omitEmpty("selectivity", p.Selectivity)
			w.hist("leftHist", p.LeftHist)
			w.hist("rightHist", p.RightHist)
			w.close(2, '}')
		}
		w.close(1, ']')
	}
	w.b = append(w.b, "\n}\n"...)
	if w.err != nil {
		return dst[:start], w.err
	}
	return w.b, nil
}

// writer appends one indented document; the first float it cannot
// encode is kept in err.
type writer struct {
	b   []byte
	err error
}

func (w *writer) newline(depth int) {
	w.b = append(w.b, '\n')
	for i := 0; i < depth; i++ {
		w.b = append(w.b, "  "...)
	}
}

// elem starts element i of an array whose elements sit at depth.
func (w *writer) elem(i, depth int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
}

// key starts an object member at depth; the caller writes the ','
// before every member but the first.
func (w *writer) key(depth int, name string) {
	w.newline(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, "\": "...)
}

// close ends an object or array whose members sit at depth+1.
func (w *writer) close(depth int, c byte) {
	w.newline(depth)
	w.b = append(w.b, c)
}

// omitEmpty writes a predicate's omitempty float member, a member
// after the always-present "left" and "right".
func (w *writer) omitEmpty(name string, f float64) {
	if f == 0 {
		return
	}
	w.b = append(w.b, ',')
	w.key(3, name)
	w.float(f)
}

func (w *writer) hist(name string, h *catalog.Histogram) {
	if h == nil {
		return
	}
	w.b = append(w.b, ',')
	w.key(3, name)
	w.b = append(w.b, '{')
	w.key(4, "domain")
	w.b = strconv.AppendInt(w.b, h.Domain, 10)
	w.b = append(w.b, ',')
	w.key(4, "counts")
	if len(h.Counts) == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i, c := range h.Counts {
			w.elem(i, 5)
			w.float(c)
		}
		w.close(4, ']')
	}
	w.close(3, '}')
}

// float writes f as encoding/json does, and like encoding/json keeps a
// NaN or infinite f out, recording the first in err.
func (w *writer) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("qfile: unsupported value: %v", f)
		}
		return
	}
	w.b = AppendFloat(w.b, f)
}

// AppendFloat appends the finite f as encoding/json writes a float64:
// the shortest representation that round-trips, in exponent form below
// 1e-6 and from 1e21 up, with a one-digit exponent kept unpadded.
// encoding/json refuses a NaN or infinite value, so callers check for
// one first.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendString appends s quoted as a JSON string, byte for byte as
// encoding/json quotes it with HTML escaping on (its default):
// '"' and '\\' escaped with a backslash; \b, \f, \n, \r and \t as
// short escapes; other control characters and '<', '>' and '&' as
// \u00XX; U+2028 and U+2029 as \u2028 and \u2029; each byte of
// invalid UTF-8 as \ufffd. Everything else is copied as is.
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		// At most utf8.UTFMax bytes are converted, so a []byte s is
		// decoded from a stack copy.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
