package qfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/workload"
)

// The reference codec: the schema as encoding/json struct tags, and
// the reflection-based read and write Decode and Append must reproduce.

// jsonQuery mirrors catalog.Query with JSON tags.
type jsonQuery struct {
	Relations  []jsonRelation  `json:"relations"`
	Predicates []jsonPredicate `json:"predicates"`
}

type jsonRelation struct {
	Name        string          `json:"name,omitempty"`
	Cardinality int64           `json:"cardinality"`
	Selections  []jsonSelection `json:"selections,omitempty"`
}

type jsonSelection struct {
	Selectivity float64 `json:"selectivity"`
}

type jsonPredicate struct {
	Left          int            `json:"left"`
	Right         int            `json:"right"`
	LeftDistinct  float64        `json:"leftDistinct,omitempty"`
	RightDistinct float64        `json:"rightDistinct,omitempty"`
	Selectivity   float64        `json:"selectivity,omitempty"`
	LeftHist      *jsonHistogram `json:"leftHist,omitempty"`
	RightHist     *jsonHistogram `json:"rightHist,omitempty"`
}

type jsonHistogram struct {
	Domain int64     `json:"domain"`
	Counts []float64 `json:"counts"`
}

func histToJSON(h *catalog.Histogram) *jsonHistogram {
	if h == nil {
		return nil
	}
	return &jsonHistogram{Domain: h.Domain, Counts: append([]float64(nil), h.Counts...)}
}

func histFromJSON(j *jsonHistogram) *catalog.Histogram {
	if j == nil {
		return nil
	}
	return &catalog.Histogram{Domain: j.Domain, Counts: append([]float64(nil), j.Counts...)}
}

func toJSON(q *catalog.Query) *jsonQuery {
	out := &jsonQuery{}
	for _, r := range q.Relations {
		jr := jsonRelation{Name: r.Name, Cardinality: r.Cardinality}
		for _, s := range r.Selections {
			jr.Selections = append(jr.Selections, jsonSelection{Selectivity: s.Selectivity})
		}
		out.Relations = append(out.Relations, jr)
	}
	for _, p := range q.Predicates {
		out.Predicates = append(out.Predicates, jsonPredicate{
			Left: int(p.Left), Right: int(p.Right),
			LeftDistinct: p.LeftDistinct, RightDistinct: p.RightDistinct,
			Selectivity: p.Selectivity,
			LeftHist:    histToJSON(p.LeftHist),
			RightHist:   histToJSON(p.RightHist),
		})
	}
	return out
}

func fromJSON(j *jsonQuery) *catalog.Query {
	q := &catalog.Query{}
	for _, r := range j.Relations {
		cr := catalog.Relation{Name: r.Name, Cardinality: r.Cardinality}
		for _, s := range r.Selections {
			cr.Selections = append(cr.Selections, catalog.Selection{Selectivity: s.Selectivity})
		}
		q.Relations = append(q.Relations, cr)
	}
	for _, p := range j.Predicates {
		q.Predicates = append(q.Predicates, catalog.Predicate{
			Left: catalog.RelID(p.Left), Right: catalog.RelID(p.Right),
			LeftDistinct: p.LeftDistinct, RightDistinct: p.RightDistinct,
			Selectivity: p.Selectivity,
			LeftHist:    histFromJSON(p.LeftHist),
			RightHist:   histFromJSON(p.RightHist),
		})
	}
	return q
}

// refWrite is the reference writer: encoding/json's indented encoder.
func refWrite(q *catalog.Query) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(toJSON(q))
	return buf.Bytes(), err
}

// refRead is the reference reader: encoding/json's strict decoder over
// the first value in data, then the same validation and normalization
// as Decode. end is the offset just past that value.
func refRead(data []byte) (q *catalog.Query, end int64, err error) {
	var j jsonQuery
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return nil, 0, err
	}
	q = fromJSON(&j)
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	q.Normalize()
	return q, dec.InputOffset(), nil
}

// hasRepeatedKey walks the first JSON value in data by tokens and
// reports whether an object in it holds two keys equal under case
// folding.
func hasRepeatedKey(data []byte) bool {
	type object struct {
		keys    []string
		wantKey bool
	}
	var stack []*object // nil for an array
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1] != nil {
			stack[n-1].wantKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &object{wantKey: true})
		case json.Delim('['):
			stack = append(stack, nil)
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			valueDone()
		default:
			if n := len(stack); n > 0 && stack[n-1] != nil && stack[n-1].wantKey {
				top, k := stack[n-1], tok.(string)
				for _, seen := range top.keys {
					if strings.EqualFold(seen, k) {
						return true
					}
				}
				top.keys = append(top.keys, k)
				top.wantKey = false
				continue
			}
			valueDone()
		}
		if len(stack) == 0 {
			return false
		}
	}
}

func TestWriteMatchesReference(t *testing.T) {
	for n := 1; n <= 60; n++ {
		for seed := int64(1); seed <= 4; seed++ {
			q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
			want, err := refWrite(q)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := Write(&got, q); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("N=%d seed=%d: Write differs from encoding/json:\n%s", n, seed, firstDiff(got.Bytes(), want))
			}
		}
	}
}

// firstDiff renders the neighbourhood of the first byte where got and
// want part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d\n got: %q\nwant: %q", i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz%30)
		q := workload.Default().Generate(n, rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := Write(&buf, q); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Relations) != len(q.Relations) || len(got.Predicates) != len(q.Predicates) {
			return false
		}
		for i := range q.Relations {
			if got.Relations[i].Cardinality != q.Relations[i].Cardinality ||
				got.Relations[i].Name != q.Relations[i].Name ||
				len(got.Relations[i].Selections) != len(q.Relations[i].Selections) {
				return false
			}
		}
		for i := range q.Predicates {
			if got.Predicates[i] != q.Predicates[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`,                                   // syntax error
		`{"relations": [], "predicates": []}`, // no relations
		`{"relations": [{"cardinality": -5}], "predicates": []}`,  // bad cardinality
		`{"relations": [{"cardinality": 5}], "bogusField": true}`, // unknown field
		`{"relations": [{"cardinality": 5}, {"cardinality": 5}],
		  "predicates": [{"left": 0, "right": 7, "selectivity": 0.5}]}`, // out of range
		`{"relations": [{"cardinality": 5}]}{"relations": [{"cardinality": 6}]}`,       // two queries
		`{"relations": [{"cardinality": 5}]} garbage`,                                  // trailing bytes
		`{"relations":[{"cardinality":5,"name":"a"}],"relations":[{"cardinality":7}]}`, // repeated key
		`{"relations": [{"cardinality": 5, "Cardinality": 6}]}`,                        // repeated after folding
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestReadNormalizes(t *testing.T) {
	in := `{"relations": [{"cardinality": 10}, {"cardinality": 20}],
	        "predicates": [{"left": 1, "right": 0, "leftDistinct": 4, "rightDistinct": 8}]}`
	q, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	p := q.Predicates[0]
	if p.Left != 0 || p.Right != 1 {
		t.Fatal("endpoints not normalized")
	}
	if p.Selectivity != 0.125 { // 1/max(8,4) after the endpoint swap
		t.Fatalf("selectivity %g", p.Selectivity)
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.json")
	q := workload.Default().Generate(10, rand.New(rand.NewSource(1)))
	if err := WriteFile(path, q); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRelations() != q.NumRelations() {
		t.Fatal("file round trip lost relations")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRoundTrip(t *testing.T) {
	q := workload.Default().Generate(3, rand.New(rand.NewSource(2)))
	q.Predicates[0].LeftHist = &catalog.Histogram{Domain: 40, Counts: []float64{5, 7, 9, 3}}
	q.Predicates[0].RightHist = &catalog.Histogram{Domain: 40, Counts: []float64{1, 2, 3, 4}}
	var buf bytes.Buffer
	if err := Write(&buf, q); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := got.Predicates[0].LeftHist
	if h == nil || h.Domain != 40 || len(h.Counts) != 4 || h.Counts[2] != 9 {
		t.Fatalf("left histogram lost: %+v", h)
	}
	if got.Predicates[0].RightHist == nil {
		t.Fatal("right histogram lost")
	}
	if got.Predicates[1].LeftHist != nil {
		t.Fatal("phantom histogram appeared")
	}
}

func TestWritePlan(t *testing.T) {
	q := workload.Default().Generate(4, rand.New(rand.NewSource(7)))
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	eval := plan.NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited())
	perm := plan.Perm{0, 1, 2, 3, 4}
	pl := plan.Assemble(eval, []plan.Result{{Perm: perm, Cost: eval.Cost(perm)}})
	var buf bytes.Buffer
	if err := WritePlan(&buf, q, pl, eval); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["totalCost"].(float64) <= 0 {
		t.Fatal("total cost missing")
	}
	order := decoded["order"].([]any)
	if len(order) != 5 {
		t.Fatalf("order length %d", len(order))
	}
	comps := decoded["components"].([]any)
	steps := comps[0].(map[string]any)["steps"].([]any)
	if len(steps) != 4 {
		t.Fatalf("steps %d", len(steps))
	}
	if steps[0].(map[string]any)["method"].(string) == "" {
		t.Fatal("step method missing")
	}
}

// TestAppendFloatMatchesEncodingJSON pins AppendFloat to encoding/json
// at the edges of its format switch and of float64 itself.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99999e-7, 1e-7, -1e-7, 123456789,
		1e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1.0 / 3, 18000, 1.2345678901234567e8,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}
