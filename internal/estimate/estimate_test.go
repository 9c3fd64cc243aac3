package estimate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"joinopt/internal/catalog"
	"joinopt/internal/joingraph"
)

// build wires a query into Stats.
func build(q *catalog.Query) *Stats {
	q.Normalize()
	return NewStats(q, joingraph.New(q))
}

func chain3() *catalog.Query {
	return &catalog.Query{
		Relations: []catalog.Relation{
			{Cardinality: 100},
			{Cardinality: 200, Selections: []catalog.Selection{{Selectivity: 0.5}}},
			{Cardinality: 300},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, LeftDistinct: 50, RightDistinct: 100},
			{Left: 1, Right: 2, LeftDistinct: 20, RightDistinct: 30},
		},
	}
}

func TestCardinality(t *testing.T) {
	st := build(chain3())
	if st.Cardinality(0) != 100 {
		t.Fatalf("card 0: %g", st.Cardinality(0))
	}
	if st.Cardinality(1) != 100 { // 200 × 0.5
		t.Fatalf("card 1 after selection: %g", st.Cardinality(1))
	}
}

func TestJoinSizeStaticFallback(t *testing.T) {
	q := &catalog.Query{
		Relations: []catalog.Relation{{Cardinality: 100}, {Cardinality: 100}},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.25},
		},
	}
	st := build(q)
	inSet := makeBitset(2, 0)
	got := st.JoinSize(100, inSet, 1)
	if got != 100*100*0.25 {
		t.Fatalf("static selectivity path: got %g, want 2500", got)
	}
}

func TestJoinSizeDynamicDistinct(t *testing.T) {
	st := build(chain3())
	inSet := makeBitset(3, 0)
	// Outer size 100 ≥ D_left=50, so J = 1/max(50 capped at 100? no:
	// min(Douter=50, outer=100)=50, max(50, Dinner=100) = 100 → J=0.01.
	got := st.JoinSize(100, inSet, 1)
	want := 100 * st.Cardinality(1) / 100
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("dynamic J: got %g, want %g", got, want)
	}
	// A tiny outer crushes the outer-side distinct count: outer=2 →
	// min(50,2)=2, max(2,100)=100 → same J here; crush the other way:
	inSet = makeBitset(3, 1)
	// joining relation 0 (D=50 on its side, prefix side D=100) with a
	// 2-tuple prefix: min(100,2)=2, max(2, 50)=50 → J = 1/50.
	got = st.JoinSize(2, inSet, 0)
	want = 2 * 100.0 / 50
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("crushed outer distinct: got %g, want %g", got, want)
	}
}

func TestJoinSizeCrossProduct(t *testing.T) {
	st := build(chain3())
	inSet := makeBitset(3, 0)
	got := st.JoinSize(100, inSet, 2) // no edge 0–2
	if got != 100*300 {
		t.Fatalf("cross product: got %g, want 30000", got)
	}
}

func TestPrefixExtend(t *testing.T) {
	st := build(chain3())
	p := NewPrefix(st)
	outer, inner, result := p.Extend(0)
	if outer != 0 || inner != 100 || result != 100 {
		t.Fatalf("first extend: %g %g %g", outer, inner, result)
	}
	if p.Len() != 1 || !p.Contains(0) || p.Contains(1) {
		t.Fatal("prefix bookkeeping wrong after first extend")
	}
	outer, inner, result = p.Extend(1)
	if outer != 100 || inner != 100 {
		t.Fatalf("second extend inputs: %g %g", outer, inner)
	}
	if result != p.Size() {
		t.Fatalf("size mismatch: %g vs %g", result, p.Size())
	}
}

func TestPrefixReset(t *testing.T) {
	st := build(chain3())
	p := NewPrefix(st)
	p.Extend(0)
	p.Extend(1)
	p.Reset()
	if p.Len() != 0 || p.Size() != 0 || p.Contains(0) {
		t.Fatal("reset did not clear state")
	}
}

func TestPrefixCopyFrom(t *testing.T) {
	st := build(chain3())
	a := NewPrefix(st)
	a.Extend(0)
	a.Extend(1)
	b := NewPrefix(st)
	b.CopyFrom(a)
	if b.Len() != a.Len() || b.Size() != a.Size() || !b.Contains(1) {
		t.Fatal("CopyFrom incomplete")
	}
	// Diverge: extending b must not affect a.
	b.Extend(2)
	if a.Contains(2) || a.Len() != 2 {
		t.Fatal("CopyFrom aliases state")
	}
}

func TestPrefixJoins(t *testing.T) {
	st := build(chain3())
	p := NewPrefix(st)
	p.Extend(0)
	if !p.Joins(1) || p.Joins(2) {
		t.Fatal("Joins frontier wrong")
	}
}

// TestStaticSizeOrderIndependence is the invariant the DP baseline
// relies on: under the static estimator, the estimated size of a join
// result depends only on the SET of joined relations, never on their
// order.
func TestStaticSizeOrderIndependence(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz%8)
		rng := rand.New(rand.NewSource(seed))
		q := &catalog.Query{}
		for i := 0; i < n; i++ {
			q.Relations = append(q.Relations, catalog.Relation{Cardinality: int64(1 + rng.Intn(500))})
		}
		for i := 1; i < n; i++ {
			q.Predicates = append(q.Predicates, catalog.Predicate{
				Left: catalog.RelID(rng.Intn(i)), Right: catalog.RelID(i),
				LeftDistinct:  float64(1 + rng.Intn(50)),
				RightDistinct: float64(1 + rng.Intn(50)),
			})
		}
		st := build(q)
		st.UseStaticSelectivity()
		// Two random orders of all relations.
		perm1 := rng.Perm(n)
		perm2 := rng.Perm(n)
		size := func(perm []int) float64 {
			p := NewPrefix(st)
			for _, r := range perm {
				p.Extend(catalog.RelID(r))
			}
			return p.Size()
		}
		s1, s2 := size(perm1), size(perm2)
		if s1 == 0 && s2 == 0 {
			return true
		}
		return math.Abs(s1-s2)/math.Max(s1, s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicCrushInflatesLaterJoins checks the dynamic estimator's
// defining behaviour (the paper's §4.1 intuition): an intermediate
// result smaller than a column's distinct count raises the effective
// selectivity of the next join above its static value.
func TestDynamicCrushInflatesLaterJoins(t *testing.T) {
	q := &catalog.Query{
		Relations: []catalog.Relation{{Cardinality: 1000}, {Cardinality: 1000}},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, LeftDistinct: 500, RightDistinct: 200},
		},
	}
	st := build(q)
	inSet := makeBitset(2, 0)
	static := 1.0 / 500 // static: 1/max(500,200)
	// A 10-tuple prefix crushes the outer-side distinct count to 10:
	// J = 1/max(min(500,10), 200) = 1/200 > 1/500.
	dyn := st.SelectivityInto(10, inSet, 1)
	if math.Abs(dyn-1.0/200) > 1e-12 {
		t.Fatalf("dynamic J: got %g, want %g", dyn, 1.0/200)
	}
	if dyn <= static {
		t.Fatal("dynamic selectivity did not inflate after crush")
	}
	// A large prefix leaves the static value intact.
	dynBig := st.SelectivityInto(1e6, inSet, 1)
	if math.Abs(dynBig-static) > 1e-12 {
		t.Fatalf("large-prefix J: got %g, want static %g", dynBig, static)
	}
	// Static mode ignores the prefix size entirely.
	st.UseStaticSelectivity()
	if got := st.SelectivityInto(10, inSet, 1); math.Abs(got-static) > 1e-12 {
		t.Fatalf("static mode J: got %g, want %g", got, static)
	}
	if st.Dynamic() {
		t.Fatal("Dynamic() should report false after UseStaticSelectivity")
	}
}

func TestSelectivityIntoMultiEdge(t *testing.T) {
	// Triangle: joining the third relation crosses two edges; their
	// selectivities multiply.
	q := &catalog.Query{
		Relations: []catalog.Relation{{Cardinality: 100}, {Cardinality: 100}, {Cardinality: 100}},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.5},
			{Left: 0, Right: 2, Selectivity: 0.1},
			{Left: 1, Right: 2, Selectivity: 0.2},
		},
	}
	st := build(q)
	inSet := makeBitset(3, 0, 1)
	got := st.SelectivityInto(100, inSet, 2)
	if math.Abs(got-0.1*0.2) > 1e-12 {
		t.Fatalf("multi-edge selectivity: got %g, want 0.02", got)
	}
}

// makeBitset builds a joingraph.Bitset of capacity n with the given members set.
func makeBitset(n int, members ...int) joingraph.Bitset {
	b := joingraph.NewBitset(n)
	for _, m := range members {
		b.Set(catalog.RelID(m))
	}
	return b
}

// TestMinMaxMatchMath pins maxf and minf to math.Max and math.Min bit
// for bit over every ordered pair of special and boundary values — NaN,
// ±Inf and ±0 included, where the builtin max and min differ.
func TestMinMaxMatchMath(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, 1e-12, 1, math.MaxFloat64, -1, -math.MaxFloat64,
	}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := maxf(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("maxf(%v, %v) = %v (%#x), math.Max = %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := minf(x, y), math.Min(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("minf(%v, %v) = %v (%#x), math.Min = %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSelectivityIntoSkipsEdgesOutsideSet: on the chain 0-1-2-3 with
// prefix {1, 2}, relation 2's edge to 3 leads outside the prefix and
// must not contribute, and 2's own membership adds nothing either;
// only the 1-2 edge's selectivity remains.
func TestSelectivityIntoSkipsEdgesOutsideSet(t *testing.T) {
	q := &catalog.Query{
		Relations: []catalog.Relation{{Cardinality: 100}, {Cardinality: 100}, {Cardinality: 100}, {Cardinality: 100}},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.5},
			{Left: 1, Right: 2, Selectivity: 0.1},
			{Left: 2, Right: 3, Selectivity: 0.2},
		},
	}
	st := build(q)
	if got := st.SelectivityInto(100, makeBitset(4, 1, 2), 2); got != 0.1 {
		t.Fatalf("selectivity into {1,2}: got %g, want 0.1", got)
	}
	if got := st.SelectivityInto(100, makeBitset(4, 0), 3); got != 1 {
		t.Fatalf("selectivity with no edge into the set: got %g, want 1 (cross product)", got)
	}
}
