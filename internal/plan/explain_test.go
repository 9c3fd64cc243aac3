package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"joinopt/internal/catalog"
)

// fmtExplain is Explain as fmt renders it, the oracle for AppendExplain:
// the plan's positions map through order (nil is the identity) and
// each relation is named by q.RelationName.
func fmtExplain(pl *Plan, q *catalog.Query, order []catalog.RelID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: total cost %.6g\n", pl.TotalCost)
	if pl.Degraded {
		fmt.Fprintf(&b, "  DEGRADED (%s): the optimizer could not complete normally; this is the fallback plan\n", pl.DegradeReason)
	}
	for i, c := range pl.Components {
		fmt.Fprintf(&b, "  component %d (cost %.6g): ", i, c.Cost)
		for j, r := range c.Perm {
			if j > 0 {
				b.WriteString(" ⋈ ")
			}
			if order != nil {
				r = order[r]
			}
			b.WriteString(q.RelationName(r))
		}
		b.WriteByte('\n')
	}
	if len(pl.Components) > 1 {
		fmt.Fprintf(&b, "  cross products: cost %.6g\n", pl.CrossCost)
	}
	return b.String()
}

// explainFloats are the %.6g edge cases: non-finite values, signed
// zeros, subnormals, and both sides of the exponent-form switches.
var explainFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, math.MaxFloat64,
	1e21, 1e20, 1e-7, 1e-4, 1e-5, 999999, 1e6, 999999.5, 123456789, 1.0 / 3, -2.5, 42, 18000,
}

// TestAppendFloatG6MatchesFmt pins the claim AppendExplain rests on:
// strconv's 'g' format at precision 6 prints what %.6g prints.
func TestAppendFloatG6MatchesFmt(t *testing.T) {
	check := func(f float64) {
		if got, want := string(strconv.AppendFloat(nil, f, 'g', 6, 64)), fmt.Sprintf("%.6g", f); got != want {
			t.Fatalf("AppendFloat(%v, 'g', 6) = %q, %%.6g prints %q", f, got, want)
		}
	}
	for _, f := range explainFloats {
		check(f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestAppendExplainMatchesFmt compares AppendExplain with the fmt
// oracle on degraded, multi-component and unnamed-relation plans, with
// and without an order, appending after existing bytes.
func TestAppendExplainMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		q := &catalog.Query{Relations: make([]catalog.Relation, n)}
		for i := range q.Relations {
			if rng.Intn(3) > 0 {
				q.Relations[i].Name = fmt.Sprintf("rel_%d<%c>", i, 'a'+rune(rng.Intn(26)))
			}
		}
		perm := rng.Perm(n)
		pl := &Plan{
			TotalCost: explainFloats[rng.Intn(len(explainFloats))],
			CrossCost: explainFloats[rng.Intn(len(explainFloats))],
		}
		if rng.Intn(3) == 0 {
			pl.Degraded, pl.DegradeReason = true, DegradePanic+": boom \"x\""
		}
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			c := Result{Cost: explainFloats[rng.Intn(len(explainFloats))] * rng.Float64()}
			for _, p := range perm[lo:hi] {
				c.Perm = append(c.Perm, catalog.RelID(p))
			}
			pl.Components = append(pl.Components, c)
			lo = hi
		}
		var order []catalog.RelID
		if trial%2 == 1 {
			for _, p := range rng.Perm(n) {
				order = append(order, catalog.RelID(p))
			}
		}
		got := string(pl.AppendExplain([]byte("prefix|"), q, order))
		if want := "prefix|" + fmtExplain(pl, q, order); got != want {
			t.Fatalf("trial %d: AppendExplain differs from fmt:\n got %q\nwant %q", trial, got, want)
		}
		if order == nil {
			if got, want := pl.Explain(q), fmtExplain(pl, q, nil); got != want {
				t.Fatalf("trial %d: Explain differs from fmt:\n got %q\nwant %q", trial, got, want)
			}
		}
	}
}

// TestAppendExplainWarmBufferAllocatesNothing: rendering into a buffer
// with room costs no allocation, unnamed relations included.
func TestAppendExplainWarmBufferAllocatesNothing(t *testing.T) {
	e, q := fixture(nil)
	q.Relations[2].Name = ""
	pl := Assemble(e, []Result{{Perm: Perm{0, 1, 2, 3}, Cost: 42}})
	order := []catalog.RelID{3, 2, 1, 0}
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(100, func() { buf = pl.AppendExplain(buf[:0], q, order) }); allocs != 0 {
		t.Fatalf("AppendExplain allocated %v times into a warm buffer", allocs)
	}
}
