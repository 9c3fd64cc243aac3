package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"joinopt/internal/catalog"
	"joinopt/internal/cost"
	"joinopt/internal/estimate"
	"joinopt/internal/heuristics"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/search"
	"joinopt/internal/telemetry"
)

// Options tunes a strategy run. The zero value selects the paper's
// defaults (criterion 3 everywhere, [SG88]/[JAMS87] parameters).
type Options struct {
	// IIConfig tunes iterative improvement; zero value = defaults.
	IIConfig search.IIConfig
	// SAConfig tunes simulated annealing; zero value = defaults.
	SAConfig search.SAConfig
	// Criterion is the augmentation chooseNext criterion (default 3,
	// min join selectivity — the Table 1 winner).
	Criterion heuristics.Criterion
	// Weight is the KBZ spanning-tree edge weight (default 3, join
	// selectivity — the Table 2 winner).
	Weight heuristics.WeightCriterion
	// StaticEstimator disables dynamic distinct-value propagation in
	// the size estimator. Required when comparing against the DP
	// baseline (whose optimality needs order-independent estimates).
	StaticEstimator bool
	// InsertMoveProb adds relation re-insertion moves to the move set
	// with the given probability (0 = the [SG88] swap-only default).
	// Kept as an ablation knob; see BenchmarkAblationMoveSet.
	InsertMoveProb float64
	// Incumbent, if non-empty, is a join order offered as the starting
	// incumbent before any strategy runs: its restriction to each
	// component is priced (charging the budget as usual) and fed to the
	// tracker, so the final plan is never worse than the incumbent under
	// this optimizer's cost function. The tiered serving layer passes
	// the greedy Tier-1 order here as the warm start for the background
	// upgrade. A restriction that is invalid or does not cover its
	// component is silently ignored — the warm start is an optimization,
	// never a correctness input.
	Incumbent plan.Perm
	// OnImprove, if non-nil, is invoked whenever the incumbent best
	// total cost improves, with the new cost and the budget units
	// consumed so far. Experiment harnesses use it to read off
	// best-so-far curves at checkpoint budgets.
	OnImprove func(cost float64, used int64)
	// Trace, if non-nil, receives the run's search-trace events
	// (strategy start/end, move proposed/accepted/rejected, restarts,
	// incumbent improvements, degradation steps), each stamped with the
	// budget meter instead of the wall clock, so two runs of the same
	// seed and budget trace byte-identically. nil (the default) is the
	// zero-overhead path: every emission site is behind a nil check.
	Trace *telemetry.Tracer
}

func (o *Options) fill() {
	if o.IIConfig == (search.IIConfig{}) {
		o.IIConfig = search.DefaultIIConfig()
	}
	if o.SAConfig == (search.SAConfig{}) {
		o.SAConfig = search.DefaultSAConfig()
	}
	if o.Criterion == 0 {
		o.Criterion = heuristics.CriterionMinSel
	}
	if o.Weight == 0 {
		o.Weight = heuristics.WeightSelectivity
	}
}

// Optimizer runs one strategy over one query under one budget.
type Optimizer struct {
	query  *catalog.Query
	graph  *joingraph.Graph
	stats  *estimate.Stats
	eval   *plan.Evaluator
	budget *cost.Budget
	rng    *rand.Rand
	opts   Options
}

// NewOptimizer prepares an optimizer. The query must validate; it is
// normalized in place. budget may be cost.Unlimited().
func NewOptimizer(q *catalog.Query, model cost.Model, budget *cost.Budget, rng *rand.Rand, opts Options) (*Optimizer, error) {
	if q == nil {
		return nil, errors.New("core: nil query")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Normalize()
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	opts.fill()
	g := joingraph.New(q)
	st := estimate.NewStats(q, g)
	if opts.StaticEstimator {
		st.UseStaticSelectivity()
	}
	return &Optimizer{
		query:  q,
		graph:  g,
		stats:  st,
		eval:   plan.NewEvaluator(st, model, budget),
		budget: budget,
		rng:    rng,
		opts:   opts,
	}, nil
}

// Evaluator exposes the optimizer's plan evaluator (tests and tools).
func (o *Optimizer) Evaluator() *plan.Evaluator { return o.eval }

// PanicError wraps a panic recovered from a strategy phase. RunContext
// returns it alongside the degraded fallback plan so callers (the
// portfolio, a service layer) can record the crash without losing the
// plan.
type PanicError struct {
	Method Method
	Value  any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: strategy %v panicked: %v", e.Method, e.Value)
}

// Unwrap exposes a panic value that is itself an error (for example a
// *faultinject.Fault) to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run executes the strategy and returns the best complete plan found.
// Queries whose join graph is disconnected are handled per the
// postpone-cross-products heuristic: each component is optimized
// separately (the budget is shared) and the results are combined
// cheapest-first by cross products.
//
// Run is RunContext with a background context; see RunContext for the
// anytime contract.
func (o *Optimizer) Run(m Method) (*plan.Plan, error) {
	//ljqlint:allow ctxflow -- public no-context compatibility wrapper: Run is documented as RunContext with a fresh background chain; callers wanting cancellation use RunContext
	return o.RunContext(context.Background(), m)
}

// RunContext is Run under a context: cancelling ctx (or its deadline
// passing) cancels the optimizer's budget, which stops every phase of
// the strategy at its next budget poll.
//
// RunContext is an *anytime* interface — it always returns a valid,
// complete plan, never (nil, err):
//
//   - On normal completion or ordinary unit-limit exhaustion, the best
//     plan found; plan.Degraded is false.
//   - On cancellation, the incumbent at the stop point, flagged
//     Degraded with reason plan.DegradeCancelled.
//   - If a strategy phase panics (a cost-model crash, say), the panic
//     is recovered, the incumbent found before the crash survives, and
//     the plan is flagged plan.DegradePanic. The recovered panic is
//     also returned as a *PanicError so callers can log it — the plan
//     accompanying a non-nil error is still valid.
//   - If no search result exists at all (zero budget, immediate cancel,
//     panic on the first evaluation), RunContext falls back through the
//     deterministic augmentation heuristic and finally a random valid
//     state (plan.DegradeStarved, unless a panic/cancel reason already
//     applies).
func (o *Optimizer) RunContext(ctx context.Context, m Method) (*plan.Plan, error) {
	if ctx != nil {
		o.budget.WithContext(ctx)
	}
	comps := o.graph.Components()
	results := make([]plan.Result, 0, len(comps))
	// Optimize large components first: they dominate cost, so they
	// deserve the budget when it is tight.
	orderComponentsBySize(o.stats, comps)
	multi := len(comps) > 1
	var panicErr *PanicError
	starved := false
	for _, comp := range comps {
		if len(comp) == 1 {
			results = append(results, plan.Result{
				Perm: plan.Perm{comp[0]},
				Cost: 0,
			})
			continue
		}
		sp := search.NewSpace(o.eval, comp, o.rng)
		sp.Trace = o.opts.Trace
		if o.opts.InsertMoveProb > 0 {
			sp.SwapWeight = 1 - o.opts.InsertMoveProb
		}
		onImprove := o.opts.OnImprove
		if multi {
			// Per-component incumbents do not translate to a total-plan
			// cost until assembly; suppress intermediate callbacks.
			onImprove = nil
		}
		t := newTracker(o.budget, onImprove, o.opts.Trace)
		if perr := o.runComponentIsolated(m, comp, sp, t); perr != nil && panicErr == nil {
			panicErr = perr
		}
		best, bestCost := t.best, t.bestCost
		if !t.ok {
			// No state was produced at all (budget exhausted or cancelled
			// before the first evaluation, or the strategy crashed
			// immediately): fall back to a deterministic valid state so a
			// plan always exists (the paper's optimizers likewise always
			// return *some* plan; quality is what the budget buys).
			best, bestCost = o.fallbackState(sp)
			starved = true
		} else if !t.finite {
			// Only non-finite incumbents (fault-corrupted costs): prefer
			// the deterministic fallback over a poisoned plan. Its cost
			// is finite or +Inf (safeCost coerces), never NaN, so NaN
			// cannot leak into the assembled total.
			best, bestCost = o.fallbackState(sp)
			starved = true
		}
		results = append(results, plan.Result{Perm: best, Cost: bestCost})
	}
	pl := safeAssemble(o.eval, results)
	switch {
	case panicErr != nil:
		pl.Degraded = true
		pl.DegradeReason = plan.DegradePanic + ": " + fmt.Sprint(panicErr.Value)
	case o.budget.Cancelled():
		pl.Degraded = true
		pl.DegradeReason = plan.DegradeCancelled
	case starved:
		pl.Degraded = true
		pl.DegradeReason = plan.DegradeStarved
	}
	if pl.Degraded {
		// The final verdict of the degradation ladder. The label keeps
		// only the reason class (the panic payload may carry addresses,
		// which would break byte-identical traces).
		reason, _, _ := strings.Cut(pl.DegradeReason, ":")
		o.opts.Trace.Emit(telemetry.EvDegrade, o.budget.Used(), reason)
	}
	if multi && o.opts.OnImprove != nil && isFinite(pl.TotalCost) {
		o.opts.OnImprove(pl.TotalCost, o.budget.Used())
	}
	if panicErr != nil {
		return pl, panicErr
	}
	return pl, nil
}

// runComponentIsolated runs one component's strategy behind a panic
// barrier: a crash in search, heuristic or cost-model code is recovered
// and reported, and the tracker's incumbent survives. The warm-start
// offer runs inside the same barrier, so a fault while pricing the
// incumbent degrades the run honestly instead of crashing it.
func (o *Optimizer) runComponentIsolated(m Method, comp []catalog.RelID, sp *search.Space, t *tracker) (perr *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			perr = &PanicError{Method: m, Value: r}
		}
	}()
	o.offerIncumbent(comp, t)
	o.runComponent(m, sp, t)
	return nil
}

// offerIncumbent seeds the tracker with the restriction of
// Options.Incumbent to comp, if that restriction is a valid complete
// order of the component. Pricing charges the budget like any other
// evaluation; an unusable incumbent is ignored.
func (o *Optimizer) offerIncumbent(comp []catalog.RelID, t *tracker) {
	inc := o.opts.Incumbent
	if len(inc) == 0 {
		return
	}
	in := make([]bool, o.query.NumRelations())
	for _, r := range comp {
		in[r] = true
	}
	sub := make(plan.Perm, 0, len(comp))
	for _, r := range inc {
		if int(r) >= 0 && int(r) < len(in) && in[r] {
			in[r] = false
			sub = append(sub, r)
		}
	}
	if len(sub) != len(comp) || !o.eval.Valid(sub) {
		return
	}
	t.offer(sub, o.eval.Cost(sub))
}

// fallbackState produces a valid state for a component when search
// yielded nothing: first the deterministic augmentation heuristic (the
// paper's cheapest reliable plan generator), then a random valid state.
// Each step is panic-isolated so an injected cost-evaluation fault
// cannot strip the anytime guarantee; a state whose cost cannot be
// computed is priced +Inf rather than dropped.
func (o *Optimizer) fallbackState(sp *search.Space) (plan.Perm, float64) {
	if p, c, ok := o.augmentFallback(sp); ok {
		o.opts.Trace.Emit(telemetry.EvDegrade, o.budget.Used(), "fallback-augmentation")
		return p, c
	}
	o.opts.Trace.Emit(telemetry.EvDegrade, o.budget.Used(), "fallback-random")
	p := sp.RandomState()
	return p, o.safeCost(p)
}

// augmentFallback grows one deterministic augmentation state. ok is
// false if generation itself crashed.
func (o *Optimizer) augmentFallback(sp *search.Space) (p plan.Perm, c float64, ok bool) {
	defer func() {
		if recover() != nil {
			p, c, ok = nil, 0, false
		}
	}()
	aug := heuristics.NewAugmentation(o.eval, sp.Relations(), o.opts.Criterion)
	p, ok = aug.NextStart()
	if !ok {
		return nil, 0, false
	}
	return p, o.safeCost(p), true
}

// safeCost prices p, converting a panicking or non-finite evaluation
// into +Inf (the plan is still returned; only its price is unknown).
func (o *Optimizer) safeCost(p plan.Perm) (c float64) {
	defer func() {
		if recover() != nil {
			c = math.Inf(1)
		}
	}()
	c = o.eval.Cost(p)
	if !isFinite(c) {
		c = math.Inf(1)
	}
	return c
}

// safeAssemble assembles the final plan behind a panic barrier: if
// pricing the cross products crashes (injected faults), the components
// are still combined, with the cross cost marked unknown (+Inf).
func safeAssemble(e *plan.Evaluator, results []plan.Result) (pl *plan.Plan) {
	defer func() {
		if recover() != nil {
			pl = &plan.Plan{Components: results, CrossCost: math.Inf(1), TotalCost: math.Inf(1)}
		}
	}()
	return plan.Assemble(e, results)
}

func isFinite(c float64) bool { return !math.IsNaN(c) && !math.IsInf(c, 0) }

func orderComponentsBySize(st *estimate.Stats, comps [][]catalog.RelID) {
	size := func(comp []catalog.RelID) float64 {
		s := 0.0
		for _, r := range comp {
			s += st.Cardinality(r)
		}
		return s
	}
	// Insertion sort by descending total cardinality (few components).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && size(comps[j]) > size(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
}

// tracker keeps the incumbent best of one component run and fires the
// improvement callback.
type tracker struct {
	best     plan.Perm
	bestCost float64
	ok       bool
	// finite reports that the incumbent's cost is a real number. A
	// non-finite offer (NaN/±Inf — estimator overflow or an injected
	// fault) is held only while no finite incumbent exists; any finite
	// offer replaces it. Without this guard the unconditional first
	// accept made NaN sticky: `c < NaN` is always false, so a poisoned
	// first offer froze the incumbent forever.
	finite    bool
	budget    *cost.Budget
	onImprove func(float64, int64)
	trace     *telemetry.Tracer
}

func newTracker(b *cost.Budget, onImprove func(float64, int64), trace *telemetry.Tracer) *tracker {
	return &tracker{bestCost: math.Inf(1), budget: b, onImprove: onImprove, trace: trace}
}

func (t *tracker) offer(p plan.Perm, c float64) {
	if !isFinite(c) {
		// Keep a non-finite state only as a last resort (so *some* valid
		// permutation exists), and never report it as an improvement.
		if !t.ok {
			t.best, t.bestCost, t.ok = p, c, true
		}
		return
	}
	if !t.ok || !t.finite || c < t.bestCost {
		t.best, t.bestCost, t.ok, t.finite = p, c, true, true
		if t.onImprove != nil {
			t.onImprove(c, t.budget.Used())
		}
		if tr := t.trace; tr != nil {
			tr.EmitCost(telemetry.EvImprove, t.budget.Used(), c, "")
		}
	}
}

// runComponent dispatches one strategy over one component's search
// space, streaming states into the tracker. An unknown method leaves
// the tracker empty; the caller's fallback chain takes over.
func (o *Optimizer) runComponent(m Method, sp *search.Space, t *tracker) {
	if tr := t.trace; tr != nil {
		tr.Emit(telemetry.EvStrategyStart, o.budget.Used(), m.String())
		defer func() {
			// The end event carries the component incumbent (or +Inf if
			// the strategy produced nothing — the fallback ladder's
			// problem now).
			tr.EmitCost(telemetry.EvStrategyEnd, o.budget.Used(), t.bestCost, m.String())
		}()
	}
	switch m {
	case II:
		o.iterativeImprovement(sp, t, search.RandomStarts{Space: sp})
	case SA:
		o.annealFrom(sp, t, sp.RandomState())
	case SAA:
		aug := heuristics.NewAugmentation(o.eval, sp.Relations(), o.opts.Criterion)
		start, ok := aug.NextStart()
		if !ok {
			start = sp.RandomState()
		}
		o.annealFrom(sp, t, start)
	case SAK:
		// The KBZ state is expensive to produce; stream every root's
		// order through the incumbent so SAK has *an* answer at any
		// stop time, then anneal from the best of them.
		kbz := heuristics.NewKBZ(o.eval, sp.Relations(), o.opts.Weight)
		for !o.budget.Exhausted() {
			p, more := kbz.NextStart()
			if !more {
				break
			}
			t.offer(p, o.eval.Cost(p))
		}
		start := t.best
		if !t.ok {
			start = sp.RandomState()
			t.offer(start, o.eval.Cost(start))
		}
		o.annealFrom(sp, t, start)
	case IAI:
		aug := heuristics.NewAugmentation(o.eval, sp.Relations(), o.opts.Criterion)
		o.iterativeImprovement(sp, t, chainStarts{aug, search.RandomStarts{Space: sp}})
	case IKI:
		kbz := heuristics.NewKBZ(o.eval, sp.Relations(), o.opts.Weight)
		o.iterativeImprovement(sp, t, chainStarts{kbz, search.RandomStarts{Space: sp}})
	case IAL:
		o.ial(sp, t)
	case AGI:
		aug := heuristics.NewAugmentation(o.eval, sp.Relations(), o.opts.Criterion)
		o.generateThenImprove(sp, t, aug)
	case KBI:
		kbz := heuristics.NewKBZ(o.eval, sp.Relations(), o.opts.Weight)
		o.generateThenImprove(sp, t, kbz)
	case AugOnly:
		aug := heuristics.NewAugmentation(o.eval, sp.Relations(), o.opts.Criterion)
		o.generateOnly(t, aug)
	case KBZOnly:
		kbz := heuristics.NewKBZ(o.eval, sp.Relations(), o.opts.Weight)
		o.generateOnly(t, kbz)
	case TPO:
		o.twoPhase(sp, t)
	case PW:
		o.perturbationWalk(sp, t)
	case GA:
		best, c, ok := search.Genetic(sp, search.DefaultGAConfig(), t.offer)
		if ok {
			t.offer(best, c)
		}
	case TS:
		best, c, ok := search.Tabu(sp, search.DefaultTabuConfig(), t.offer)
		if ok {
			t.offer(best, c)
		}
	}
}

// chainStarts concatenates two start-state sources.
type chainStarts struct{ first, then search.StartStater }

func (c chainStarts) NextStart() (plan.Perm, bool) {
	if p, ok := c.first.NextStart(); ok {
		return p, true
	}
	return c.then.NextStart()
}

// iterativeImprovement runs II repeatedly from the start source until
// the budget is exhausted, tracking the best local minimum. This is the
// II / IAI / IKI engine.
func (o *Optimizer) iterativeImprovement(sp *search.Space, t *tracker, starts search.StartStater) {
	for runs := 0; !o.budget.Exhausted(); runs++ {
		start, more := starts.NextStart()
		if !more {
			return
		}
		if runs > 0 {
			if tr := t.trace; tr != nil {
				tr.Emit(telemetry.EvRestart, o.budget.Used(), "ii-next-start")
			}
		}
		c := o.eval.Cost(start)
		t.offer(start, c)
		endState, endCost := search.ImproveRunObserved(sp, o.opts.IIConfig, start, c, t.offer)
		t.offer(endState, endCost)
	}
}

// generateThenImprove evaluates every state the heuristic generates
// directly (no descent), then spends the remaining budget on II from
// random states. This is the AGI / KBI engine.
func (o *Optimizer) generateThenImprove(sp *search.Space, t *tracker, gen search.StartStater) {
	for !o.budget.Exhausted() {
		p, more := gen.NextStart()
		if !more {
			break
		}
		t.offer(p, o.eval.Cost(p))
	}
	o.iterativeImprovement(sp, t, search.RandomStarts{Space: sp})
}

// generateOnly evaluates each state the heuristic produces and stops:
// the pure-heuristic baselines of Tables 1 and 2.
func (o *Optimizer) generateOnly(t *tracker, gen search.StartStater) {
	for !o.budget.Exhausted() {
		p, more := gen.NextStart()
		if !more {
			return
		}
		t.offer(p, o.eval.Cost(p))
	}
}

// perturbationWalk implements [SG88]'s perturbation walk: accept every
// valid move, remember the best state visited. No descent — the random
// baseline the 1988 paper showed both II and SA dominate.
func (o *Optimizer) perturbationWalk(sp *search.Space, t *tracker) {
	cur := sp.RandomState()
	curCost := o.eval.Cost(cur)
	t.offer(cur, curCost)
	for !o.budget.Exhausted() {
		next, nextCost, ok := sp.Neighbor(cur)
		if !ok {
			if tr := t.trace; tr != nil {
				tr.Emit(telemetry.EvRestart, o.budget.Used(), "walk-dead-end")
			}
			cur = sp.RandomState()
			curCost = o.eval.Cost(cur)
			t.offer(cur, curCost)
			continue
		}
		// Every valid move is accepted, and the tracker may keep it.
		cur, curCost = next.Clone(), nextCost
		t.offer(cur, curCost)
	}
}

// twoPhase implements the 2PO extension (Ioannidis & Kang 1990): spend
// a fraction of the budget on II runs from random starts, then anneal
// from the best local minimum with a cool starting temperature (small
// InitAccept) so SA only explores the neighborhood of the minimum.
func (o *Optimizer) twoPhase(sp *search.Space, t *tracker) {
	phase1 := o.budget.Limit() / 2
	for runs := 0; !o.budget.Exhausted() && (o.budget.Limit() <= 0 || o.budget.Used() < phase1); runs++ {
		if runs > 0 {
			if tr := t.trace; tr != nil {
				tr.Emit(telemetry.EvRestart, o.budget.Used(), "2po-next-start")
			}
		}
		start := sp.RandomState()
		c := o.eval.Cost(start)
		t.offer(start, c)
		endState, endCost := search.ImproveRunObserved(sp, o.opts.IIConfig, start, c, t.offer)
		t.offer(endState, endCost)
	}
	if !t.ok {
		start := sp.RandomState()
		t.offer(start, o.eval.Cost(start))
	}
	saCfg := o.opts.SAConfig
	saCfg.InitAccept = 0.05 // low temperature: stay near the minimum
	best, bestCost := search.AnnealObserved(sp, saCfg, t.best, t.bestCost, t.offer)
	t.offer(best, bestCost)
}

// annealFrom prices the start state and runs simulated annealing from
// it. This is the SA / SAA / SAK engine.
func (o *Optimizer) annealFrom(sp *search.Space, t *tracker, start plan.Perm) {
	c := o.eval.Cost(start)
	t.offer(start, c)
	best, bestCost := search.AnnealObserved(sp, o.opts.SAConfig, start, c, t.offer)
	t.offer(best, bestCost)
}

// ial implements IAL: II over the augmentation states, then repeated
// local-improvement passes on the best local minimum (the ladder picks
// the largest affordable (c,o) strategy), and finally — the paper leaves
// the tail unspecified — II from random states with any leftover budget.
func (o *Optimizer) ial(sp *search.Space, t *tracker) {
	aug := heuristics.NewAugmentation(o.eval, sp.Relations(), o.opts.Criterion)
	for !o.budget.Exhausted() {
		start, more := aug.NextStart()
		if !more {
			break
		}
		c := o.eval.Cost(start)
		t.offer(start, c)
		endState, endCost := search.ImproveRunObserved(sp, o.opts.IIConfig, start, c, t.offer)
		t.offer(endState, endCost)
	}
	for t.ok && !o.budget.Exhausted() {
		strat, ok := heuristics.ChooseStrategy(o.budget.Remaining(), len(t.best))
		if !ok {
			break
		}
		improved, improvedCost := heuristics.LocalImprove(o.eval, strat, t.best, t.bestCost)
		if improvedCost >= t.bestCost {
			break
		}
		t.offer(improved, improvedCost)
	}
	o.iterativeImprovement(sp, t, search.RandomStarts{Space: sp})
}
