package qfile

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

// FuzzRead checks the decoder against encoding/json. Both must accept
// or reject each input, and accepted inputs must yield deep-equal
// queries. The one exception: an input that only encoding/json accepts
// must hold bytes after the first value or a repeated key, the two
// inputs Decode refuses on purpose. Every accepted query must also
// write through Append exactly as encoding/json writes it and decode
// back to itself.
func FuzzRead(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`null`,
		`{"relations":[{"cardinality":5}],"predicates":[]}`,
		`{"relations":[{"cardinality":5},{"cardinality":9}],
		  "predicates":[{"left":0,"right":1,"leftDistinct":2,"rightDistinct":3}]}`,
		// Histograms.
		`{"relations":[{"cardinality":5},{"cardinality":9}],"predicates":[{"left":1,"right":0,"selectivity":0.5,
		  "leftHist":{"domain":40,"counts":[5,7,9,3]},"rightHist":{"domain":40,"counts":[1,2,3,4]}}]}`,
		// Names needing escapes, non-ASCII and invalid UTF-8.
		`{"relations":[{"name":"a\"b\\c","cardinality":1},{"name":"<&>","cardinality":2},
		  {"name":"line\nbreak ","cardinality":3},{"name":"café 日本","cardinality":4},
		  {"name":"\ud800 lone","cardinality":5},{"name":"a&b>c","cardinality":6}]}`,
		"{\"relations\":[{\"name\":\"bad \xff\xfe utf8\",\"cardinality\":5}]}",
		"{\"relations\":[{\"name\":\"raw\ttab\",\"cardinality\":5}]}",
		// Float-format edges.
		`{"relations":[{"cardinality":5,"selections":[{"selectivity":1e-7},{"selectivity":0.000001}]},{"cardinality":9}],
		  "predicates":[{"left":0,"right":1,"leftDistinct":1e21,"rightDistinct":-0,"selectivity":-0,
		  "leftHist":{"domain":3,"counts":[-0,0,1E+2]}}]}`,
		// Number grammar and range edges: only the first is accepted.
		`{"relations":[{"cardinality":9223372036854775807,"selections":[{"selectivity":1E-0}]}]}`,
		`{"relations":[{"cardinality":05}]}`,
		`{"relations":[{"cardinality":+5}]}`,
		`{"relations":[{"cardinality":5.0}]}`,
		`{"relations":[{"cardinality":5e0}]}`,
		`{"relations":[{"cardinality":9223372036854775808}]}`,
		`{"relations":[{"cardinality":5,"selections":[{"selectivity":.5}]}]}`,
		`{"relations":[{"cardinality":5},{"cardinality":9}],"predicates":[{"left":0,"right":1,"selectivity":0.5,"leftDistinct":1e400}]}`,
		// Case-folded keys, including the Unicode folds encoding/json honours.
		`{"RELATIONS":[{"Name":"x","CARDINALITY":5,"SeLeCtIoNs":[{"ſelectivity":0.5}]},{"\u0063ardinality":9}],
		  "Predicates":[{"LEFT":0,"Right":1,"leftdistinct":4}]}`,
		// null in every field: accepted where zero or nil is valid, rejected elsewhere.
		`{"relations":[{"name":null,"cardinality":5,"selections":null},{"cardinality":9}],
		  "predicates":[{"left":null,"right":1,"leftDistinct":null,"rightDistinct":2,"selectivity":null,
		  "leftHist":null,"rightHist":{"domain":4,"counts":[null,2]}}]}`,
		`{"relations":[{"cardinality":null,"selections":[{"selectivity":null}]}],
		  "predicates":[{"left":0,"right":1,"leftHist":{"domain":null,"counts":null}}]}`,
		`{"relations":[{"cardinality":5},{"cardinality":9}],"predicates":[{"left":0,"right":1,"selectivity":0.5,"leftHist":{"domain":4,"counts":[]}}]}`,
		`{"relations":null,"predicates":null}`,
		`{"relations":[null],"predicates":[null]}`,
		// Empty versus missing arrays.
		`{"relations":[{"cardinality":5,"selections":[]}],"predicates":[]}`,
		`{"relations":[{"cardinality":5}]}`,
		// Bytes after the value, and a repeated key.
		`{"relations":[{"cardinality":5}]} {"relations":[{"cardinality":6}]}`,
		`{"relations":[{"cardinality":5,"name":"a"}],"relations":[{"cardinality":7}]}`,
	} {
		f.Add([]byte(s))
	}
	q := workload.Default().Generate(12, rand.New(rand.NewSource(1)))
	b, err := Append(nil, q)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		want, end, refErr := refRead(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("Decode accepted what encoding/json rejects: %v", refErr)
		case err != nil && refErr == nil:
			if hasRepeatedKey(data) {
				return
			}
			if len(bytes.TrimLeft(data[end:], " \t\r\n")) == 0 {
				t.Fatalf("Decode rejected what encoding/json accepts: %v", err)
			}
			// Without the bytes after the first value, the two agree.
			if got, err = Decode(data[:end]); err != nil {
				t.Fatalf("Decode rejected the first value, which encoding/json accepts: %v", err)
			}
		case err != nil:
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode and encoding/json disagree:\n got %+v\nwant %+v", got, want)
		}
		checkAppend(t, got)
	})
}

// checkAppend asserts Append writes q as encoding/json does and that
// Decode reads the bytes back to q.
func checkAppend(t *testing.T, q *catalog.Query) {
	t.Helper()
	b, err := Append(nil, q)
	if err != nil {
		t.Fatalf("accepted query failed to serialize: %v", err)
	}
	want, err := refWrite(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("Append differs from encoding/json:\n%s", firstDiff(b, want))
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if !reflect.DeepEqual(back, q) {
		t.Fatalf("round trip changed the query:\n got %+v\nwant %+v", back, q)
	}
}

// FuzzAppendString checks AppendString against json.Marshal, which
// escapes HTML by default, on arbitrary strings, and checks that the
// string and []byte forms agree.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `a"b\c`, "<&>", "\b\f\n\r\t\x00\x1f\x7f",
		"café ⋈ 日本", "  ", "bad \xff\xfe utf8", "\xed\xa0\x80", "trunc \xe2\x8b",
		"plan: total cost 1.5e+06\n  component 0 (cost 12): R0 ⋈ R1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		if got := AppendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("AppendString([]byte(%q)) = %s, encoding/json writes %s", s, got, want)
		}
	})
}
