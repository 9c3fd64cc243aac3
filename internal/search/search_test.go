package search

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/testutil"
)

func newSpace(rng *rand.Rand, n int, budget *cost.Budget) *Space {
	q := testutil.RandomQuery(rng, n)
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	if budget == nil {
		budget = cost.Unlimited()
	}
	eval := plan.NewEvaluator(st, cost.NewMemoryModel(), budget)
	comp := g.Components()[0]
	return NewSpace(eval, comp, rng)
}

func TestRandomStateIsValidProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(sz%20)
		sp := newSpace(rng, n, nil)
		p := sp.RandomState()
		if len(p) != n {
			return false
		}
		return sp.Evaluator().Valid(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomStateCoversAllRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := newSpace(rng, 12, nil)
	p := sp.RandomState()
	seen := map[catalog.RelID]bool{}
	for _, r := range p {
		if seen[r] {
			t.Fatalf("duplicate relation %d", r)
		}
		seen[r] = true
	}
	if len(seen) != 12 {
		t.Fatalf("covered %d relations", len(seen))
	}
}

func TestNeighborProducesValidAdjacentState(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(sz%20)
		sp := newSpace(rng, n, nil)
		p := sp.RandomState()
		q, c, ok := sp.Neighbor(p)
		if !ok {
			return true // no valid neighbor found within MaxProposals
		}
		if !sp.Evaluator().Valid(q) {
			return false
		}
		if c != sp.Evaluator().Cost(q) {
			return false
		}
		// Same multiset of relations.
		seen := map[catalog.RelID]bool{}
		for _, r := range q {
			seen[r] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sp := newSpace(rng, 10, nil)
	p := sp.RandomState()
	orig := p.Clone()
	sp.Neighbor(p)
	for i := range p {
		if p[i] != orig[i] {
			t.Fatal("Neighbor mutated its input")
		}
	}
}

// TestNeighborResumedCostMatchesCost drives Neighbor the way every
// caller does — accept (a clone of) the candidate, propose again from
// the same state, switch to a state the space has never seen, return
// to an older state, mutate a state in place — and checks each
// returned cost against a full Cost on a second evaluator, bit for
// bit. It pins the trail's keying: a trail reused for the wrong state
// shows up as a cost mismatch.
func TestNeighborResumedCostMatchesCost(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := newSpace(rng, 4+rng.Intn(30), nil)
		sp.SwapWeight = 0.5
		eval := sp.Evaluator()
		check := plan.NewEvaluator(eval.Stats(), eval.Model(), cost.Unlimited())
		p := sp.RandomState()
		older := p.Clone()
		for step := 0; step < 300; step++ {
			q, c, ok := sp.Neighbor(p)
			if ok {
				if want := check.Cost(q); math.Float64bits(c) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: Neighbor priced %v at %v, Cost %v", seed, step, q, c, want)
				}
			}
			switch k := rng.Intn(10); {
			case ok && k < 5:
				older, p = p, q.Clone()
			case k == 5:
				p = sp.RandomState()
			case k == 6:
				p, older = older, p
			case k == 7 && ok:
				// Mutate the state in place into the candidate's
				// contents: the space must key on contents.
				copy(p, q)
			}
		}
	}
}

// TestNeighborOfItsOwnResult hands Neighbor its own last result, the
// scratch candidate, and checks the walk against a twin space on the
// same seed that is handed a clone instead: the same moves, the same
// cost bits, each equal to a full Cost.
func TestNeighborOfItsOwnResult(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		own := newSpace(rand.New(rand.NewSource(seed)), 4+int(seed), nil)
		twin := newSpace(rand.New(rand.NewSource(seed)), 4+int(seed), nil)
		own.SwapWeight, twin.SwapWeight = 0.5, 0.5
		eval := own.Evaluator()
		check := plan.NewEvaluator(eval.Stats(), eval.Model(), cost.Unlimited())
		p, pt := own.RandomState(), twin.RandomState()
		for step := 0; step < 200; step++ {
			q, c, ok := own.Neighbor(p)
			qt, ct, okt := twin.Neighbor(pt)
			if ok != okt {
				t.Fatalf("seed %d step %d: ok %v, twin %v", seed, step, ok, okt)
			}
			if !ok {
				break
			}
			if !slices.Equal(q, qt) || math.Float64bits(c) != math.Float64bits(ct) {
				t.Fatalf("seed %d step %d: %v at %v, twin %v at %v", seed, step, q, c, qt, ct)
			}
			if want := check.Cost(q); math.Float64bits(c) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: priced %v at %v, Cost %v", seed, step, q, c, want)
			}
			p, pt = q, qt.Clone()
		}
	}
}

// TestNeighborAllocatesNothing pins the scratch contract: a proposal
// allocates nothing, whether it starts from a state the space has seen
// or from its own last result.
func TestNeighborAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sp := newSpace(rand.New(rand.NewSource(9)), 30, nil)
	sp.SwapWeight = 0.5
	p := sp.RandomState()
	if a := testing.AllocsPerRun(200, func() { sp.Neighbor(p) }); a != 0 {
		t.Fatalf("Neighbor from a fixed state: %v allocs/op, want 0", a)
	}
	q := p
	if a := testing.AllocsPerRun(200, func() {
		if next, _, ok := sp.Neighbor(q); ok {
			q = next
		}
	}); a != 0 {
		t.Fatalf("Neighbor from its own result: %v allocs/op, want 0", a)
	}
}

// TestRandomStateAllocatesOnlyItsResult: the frontier scan and the
// unplaced relations live in the space's scratch, so a random start
// allocates the permutation it returns and nothing else.
func TestRandomStateAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sp := newSpace(rand.New(rand.NewSource(9)), 30, nil)
	if a := testing.AllocsPerRun(100, func() { sp.RandomState() }); a != 1 {
		t.Fatalf("RandomState: %v allocs/op, want 1", a)
	}
}

func TestApplyInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := newSpace(rng, 8, nil)
	sp.SwapWeight = 0 // force inserts
	p := sp.RandomState()
	q, _, ok := sp.Neighbor(p)
	if ok {
		seen := map[catalog.RelID]bool{}
		for _, r := range q {
			seen[r] = true
		}
		if len(seen) != 8 {
			t.Fatalf("insert lost relations: %v", q)
		}
	}
}

func TestImproveRunNeverWorsens(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(sz%15)
		sp := newSpace(rng, n, nil)
		start := sp.RandomState()
		startCost := sp.Evaluator().Cost(start)
		end, endCost := ImproveRun(sp, DefaultIIConfig(), start, startCost)
		if endCost > startCost {
			return false
		}
		return sp.Evaluator().Valid(end)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImproveRunObservedReportsDescendingCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := newSpace(rng, 15, nil)
	start := sp.RandomState()
	startCost := sp.Evaluator().Cost(start)
	last := math.Inf(1)
	ImproveRunObserved(sp, DefaultIIConfig(), start, startCost, func(p plan.Perm, c float64) {
		if c >= last {
			t.Fatalf("onAccept costs not strictly descending: %g then %g", last, c)
		}
		last = c
	})
}

func TestImproveRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := cost.NewBudget(500)
	sp := newSpace(rng, 20, b)
	_, _, ok := Improve(sp, DefaultIIConfig(), RandomStarts{Space: sp})
	if !ok {
		t.Fatal("Improve produced no state at all")
	}
	// The budget may overshoot by at most one evaluation's worth.
	slack := int64(20 * plan.EvalUnitsPerJoin)
	if b.Used() > b.Limit()+slack {
		t.Fatalf("budget overshot: used %d of %d", b.Used(), b.Limit())
	}
}

func TestImproveExhaustsFiniteStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sp := newSpace(rng, 8, nil)
	starts := &finiteStarts{sp: sp, left: 3}
	best, bestCost, ok := Improve(sp, DefaultIIConfig(), starts)
	if !ok || best == nil {
		t.Fatal("no result")
	}
	if bestCost != sp.Evaluator().Cost(best) {
		t.Fatal("returned cost does not match returned state")
	}
	if starts.left != 0 {
		t.Fatalf("start source not drained: %d left", starts.left)
	}
}

type finiteStarts struct {
	sp   *Space
	left int
}

func (f *finiteStarts) NextStart() (plan.Perm, bool) {
	if f.left == 0 {
		return nil, false
	}
	f.left--
	return f.sp.RandomState(), true
}

func TestIIConfigThreshold(t *testing.T) {
	cfg := IIConfig{RejectFactor: 0.5, MinRejects: 16}
	if got := cfg.rejectThreshold(3); got != 16 {
		t.Fatalf("small n floors at MinRejects: %d", got)
	}
	if got := cfg.rejectThreshold(50); got != 612 {
		t.Fatalf("threshold(50) = %d", got)
	}
}

func TestAnnealNeverWorseThanStartBest(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(sz%12)
		b := cost.NewBudget(20000)
		sp := newSpace(rng, n, b)
		start := sp.RandomState()
		startCost := sp.Evaluator().Cost(start)
		best, bestCost := Anneal(sp, DefaultSAConfig(), start, startCost)
		return bestCost <= startCost && sp.Evaluator().Valid(best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealTerminatesUnlimitedBudget(t *testing.T) {
	// The freezing condition alone must stop SA.
	rng := rand.New(rand.NewSource(13))
	sp := newSpace(rng, 10, nil)
	start := sp.RandomState()
	Anneal(sp, DefaultSAConfig(), start, sp.Evaluator().Cost(start))
}

func TestAnnealObservedReportsImprovements(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := cost.NewBudget(50000)
	sp := newSpace(rng, 15, b)
	start := sp.RandomState()
	startCost := sp.Evaluator().Cost(start)
	calls := 0
	last := startCost
	_, bestCost := AnnealObserved(sp, DefaultSAConfig(), start, startCost, func(p plan.Perm, c float64) {
		calls++
		if c >= last {
			t.Fatalf("onBest not descending: %g then %g", last, c)
		}
		last = c
	})
	if calls > 0 && math.Abs(last-bestCost) > 1e-9 {
		t.Fatalf("final callback %g does not match returned best %g", last, bestCost)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func() (plan.Perm, float64) {
		rng := rand.New(rand.NewSource(99))
		b := cost.NewBudget(5000)
		sp := newSpace(rng, 12, b)
		start := sp.RandomState()
		return ImproveRun(sp, DefaultIIConfig(), start, sp.Evaluator().Cost(start))
	}
	p1, c1 := run()
	p2, c2 := run()
	if c1 != c2 {
		t.Fatalf("costs differ: %g vs %g", c1, c2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("permutations differ between identical seeded runs")
		}
	}
}

func TestTinyComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := newSpace(rng, 3, nil)
	one := plan.Perm{sp.Relations()[0]}
	if _, _, ok := sp.Neighbor(one); ok {
		t.Fatal("single-relation state should have no neighbors")
	}
	end, c := ImproveRun(sp, DefaultIIConfig(), one, 0)
	if len(end) != 1 || c != 0 {
		t.Fatal("II on singleton broken")
	}
	best, bc := Anneal(sp, DefaultSAConfig(), one, 0)
	if len(best) != 1 || bc != 0 {
		t.Fatal("SA on singleton broken")
	}
}

func TestGeneticProducesValidPlans(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(sz%12)
		b := cost.NewBudget(20000)
		sp := newSpace(rng, n, b)
		best, c, ok := Genetic(sp, DefaultGAConfig(), nil)
		if !ok {
			return false
		}
		if len(best) != n {
			return false
		}
		seen := map[catalog.RelID]bool{}
		for _, r := range best {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return c > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneticBeatsRandomBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := cost.NewBudget(40000)
	sp := newSpace(rng, 20, b)
	// Mean random cost as the baseline.
	probe := newSpace(rand.New(rand.NewSource(77)), 20, nil)
	sum := 0.0
	const k = 50
	for i := 0; i < k; i++ {
		sum += probe.Evaluator().Cost(probe.RandomState())
	}
	_, gaCost, ok := Genetic(sp, DefaultGAConfig(), nil)
	if !ok {
		t.Fatal("GA produced nothing")
	}
	if gaCost >= sum/k {
		t.Fatalf("GA (%g) no better than mean random (%g)", gaCost, sum/k)
	}
}

func TestCrossoverPreservesRelationSet(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	sp := newSpace(rng, 12, nil)
	a := sp.RandomState()
	b := sp.RandomState()
	child := sp.crossover(a, b)
	if len(child) != 12 {
		t.Fatalf("child has %d relations", len(child))
	}
	seen := map[catalog.RelID]bool{}
	for _, r := range child {
		if seen[r] {
			t.Fatalf("duplicate relation %d in child", r)
		}
		seen[r] = true
	}
}

func TestGeneticRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	b := cost.NewBudget(3000)
	sp := newSpace(rng, 15, b)
	if _, _, ok := Genetic(sp, DefaultGAConfig(), nil); !ok {
		t.Fatal("no result")
	}
	slack := int64(16*plan.EvalUnitsPerJoin) + 16*16
	if b.Used() > b.Limit()+slack {
		t.Fatalf("budget overshoot: %d of %d", b.Used(), b.Limit())
	}
}

func TestTabuProducesValidPlans(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(sz%12)
		b := cost.NewBudget(15000)
		sp := newSpace(rng, n, b)
		best, c, ok := Tabu(sp, DefaultTabuConfig(), nil)
		if !ok || len(best) != n {
			return false
		}
		if !sp.Evaluator().Valid(best) {
			return false
		}
		return c == sp.Evaluator().Cost(best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTabuEscapesAndImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	b := cost.NewBudget(60000)
	sp := newSpace(rng, 18, b)
	improvements := 0
	last := math.Inf(1)
	_, bestCost, ok := Tabu(sp, DefaultTabuConfig(), func(p plan.Perm, c float64) {
		if c >= last {
			t.Fatalf("onBest not descending: %g then %g", last, c)
		}
		last = c
		improvements++
	})
	if !ok || improvements < 2 {
		t.Fatalf("tabu made %d improvements", improvements)
	}
	if bestCost != last {
		t.Fatal("final best mismatch")
	}
}

func TestTabuSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	sp := newSpace(rng, 3, cost.NewBudget(100))
	sub := NewSpace(sp.Evaluator(), sp.Relations()[:1], rng)
	p, c, ok := Tabu(sub, DefaultTabuConfig(), nil)
	if !ok || len(p) != 1 || c != 0 {
		t.Fatal("singleton tabu broken")
	}
}
