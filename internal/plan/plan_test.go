package plan

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/joingraph"
)

// fixture builds a 4-relation chain query evaluator with an unlimited
// budget (unless one is supplied).
func fixture(b *cost.Budget) (*Evaluator, *catalog.Query) {
	q := &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "a", Cardinality: 10},
			{Name: "b", Cardinality: 20},
			{Name: "c", Cardinality: 30},
			{Name: "d", Cardinality: 40},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.1},
			{Left: 1, Right: 2, Selectivity: 0.1},
			{Left: 2, Right: 3, Selectivity: 0.1},
		},
	}
	q.Normalize()
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	if b == nil {
		b = cost.Unlimited()
	}
	return NewEvaluator(st, cost.NewMemoryModel(), b), q
}

func TestPermString(t *testing.T) {
	p := Perm{2, 0, 1}
	if got := p.String(); got != "(R2 R0 R1)" {
		t.Fatalf("got %q", got)
	}
}

func TestPermClone(t *testing.T) {
	p := Perm{1, 2, 3}
	c := p.Clone()
	c[0] = 9
	if p[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestCostMatchesManualSum(t *testing.T) {
	e, _ := fixture(nil)
	m := cost.NewMemoryModel()
	p := Perm{0, 1, 2, 3}
	// Manual: sizes 10 → 10·20·0.1=20 → 20·30·0.1=60 → 60·40·0.1=240.
	want := m.JoinCost(10, 20, 20) + m.JoinCost(20, 30, 60) + m.JoinCost(60, 40, 240)
	if got := e.Cost(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %g, want %g", got, want)
	}
}

func TestCostChargesBudget(t *testing.T) {
	b := cost.NewBudget(1000)
	e, _ := fixture(b)
	e.Cost(Perm{0, 1, 2, 3})
	if got := b.Used(); got != 3*EvalUnitsPerJoin {
		t.Fatalf("charged %d units, want %d", got, 3*EvalUnitsPerJoin)
	}
}

func TestValid(t *testing.T) {
	e, _ := fixture(nil)
	cases := []struct {
		p    Perm
		want bool
	}{
		{Perm{0, 1, 2, 3}, true},
		{Perm{3, 2, 1, 0}, true},
		{Perm{1, 0, 2, 3}, true},
		{Perm{0, 2, 1, 3}, false}, // 2 does not join {0}
		{Perm{0, 3, 1, 2}, false},
		{Perm{0}, true},
		{Perm{}, true},
	}
	for _, tc := range cases {
		if got := e.Valid(tc.p); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestValidSuffixFromAgreesWithValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, _ := fixture(nil)
		p := Perm{0, 1, 2, 3}
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		from := rng.Intn(len(p))
		// ValidSuffixFrom assumes the prefix is valid; emulate a caller
		// that knows the full answer.
		full := e.Valid(p)
		prefixValid := e.Valid(p[:from])
		if !prefixValid {
			return true // precondition not met; nothing to check
		}
		return e.ValidSuffixFrom(p, from) == full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixCostIsPrefixOfCost: a Trail's running total at position
// k−1 is the cost of p's first k relations, the full cost included.
func TestPrefixCostIsPrefixOfCost(t *testing.T) {
	e, _ := fixture(nil)
	p := Perm{0, 1, 2, 3}
	tr := Trail{Size: make([]float64, len(p)), Total: make([]float64, len(p))}
	e.CostFrom(p, 0, tr)
	for k := 1; k <= len(p); k++ {
		if got, want := tr.Total[k-1], e.Cost(p[:k]); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trail total over %d relations = %g, want the prefix's cost %g", k, got, want)
		}
	}
	m := cost.NewMemoryModel()
	if want := m.JoinCost(10, 20, 20); math.Abs(tr.Total[1]-want) > 1e-9 {
		t.Fatalf("cost of the first join = %g, want %g", tr.Total[1], want)
	}
}

func TestPlanOrderAndExplain(t *testing.T) {
	e, q := fixture(nil)
	pl := Assemble(e, []Result{{Perm: Perm{0, 1, 2, 3}, Cost: 42}})
	if len(pl.Order()) != 4 {
		t.Fatalf("order covers %d relations", len(pl.Order()))
	}
	if pl.TotalCost != 42 || pl.CrossCost != 0 {
		t.Fatalf("single component totals: %g / %g", pl.TotalCost, pl.CrossCost)
	}
	ex := pl.Explain(q)
	for _, name := range []string{"a", "b", "c", "d"} {
		if !strings.Contains(ex, name) {
			t.Fatalf("explain missing %q:\n%s", name, ex)
		}
	}
	if strings.Contains(ex, "cross products") {
		t.Fatal("single-component plan mentions cross products")
	}
}

// disconnected builds a query whose join graph has two components:
// {0,1} and {2,3}.
func disconnected() (*Evaluator, *catalog.Query) {
	q := &catalog.Query{
		Relations: []catalog.Relation{
			{Name: "a", Cardinality: 10},
			{Name: "b", Cardinality: 20},
			{Name: "c", Cardinality: 1000},
			{Name: "d", Cardinality: 2000},
		},
		Predicates: []catalog.Predicate{
			{Left: 0, Right: 1, Selectivity: 0.1},
			{Left: 2, Right: 3, Selectivity: 0.001},
		},
	}
	q.Normalize()
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	return NewEvaluator(st, cost.NewMemoryModel(), cost.Unlimited()), q
}

func TestAssembleOrdersComponentsBySize(t *testing.T) {
	e, _ := disconnected()
	// Component {2,3} result: 1000·2000·0.001 = 2000 tuples;
	// component {0,1}: 10·20·0.1 = 20 tuples → {0,1} must come first.
	pl := Assemble(e, []Result{
		{Perm: Perm{2, 3}, Cost: 5},
		{Perm: Perm{0, 1}, Cost: 3},
	})
	if pl.Components[0].Perm[0] != 0 {
		t.Fatalf("smaller component not first: %v", pl.Components[0].Perm)
	}
	if pl.CrossCost <= 0 {
		t.Fatal("cross product not priced")
	}
	wantCross := cost.NewMemoryModel().JoinCost(20, 2000, 40000)
	if math.Abs(pl.CrossCost-wantCross) > 1e-9 {
		t.Fatalf("cross cost %g, want %g", pl.CrossCost, wantCross)
	}
	if math.Abs(pl.TotalCost-(8+wantCross)) > 1e-9 {
		t.Fatalf("total %g", pl.TotalCost)
	}
	if !strings.Contains(pl.Explain(e.Stats().Query()), "cross products") {
		t.Fatal("explain omits cross products")
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	b := cost.NewBudget(5)
	e, _ := fixture(b)
	if e.Budget() != b {
		t.Fatal("Budget accessor")
	}
	if e.Model().Name() != "memory" {
		t.Fatal("Model accessor")
	}
	if e.Stats() == nil {
		t.Fatal("Stats accessor")
	}
}
