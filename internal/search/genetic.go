package search

import (
	"math"
	"sort"

	"joinopt/internal/catalog"
	"joinopt/internal/plan"
	"joinopt/internal/telemetry"
)

// Genetic algorithm over valid join orders — the third classical
// metaheuristic family applied to join ordering (Bennett, Ferris &
// Ioannidis, SIGMOD 1991; compared against II/SA by Steinbrunn et al.).
// Included as an extension: the paper's §7 frames its benchmark as the
// arena for exactly such candidate strategies.
//
// Representation: a chromosome is a valid permutation. Crossover is
// precedence-preserving: a prefix of one parent is kept and the
// remaining relations are appended in the other parent's relative
// order, repaired to validity via the frontier rule. Mutation applies
// one random swap move. Selection is truncation: the best half
// survives and breeds.

// GAConfig tunes the genetic algorithm.
type GAConfig struct {
	// Population is the number of chromosomes (default 24).
	Population int
	// MutationProb is the per-offspring mutation probability.
	MutationProb float64
}

// DefaultGAConfig returns literature-typical parameters.
func DefaultGAConfig() GAConfig {
	return GAConfig{Population: 24, MutationProb: 0.3}
}

type chromosome struct {
	perm plan.Perm
	cost float64
}

// Genetic runs the GA until the budget is exhausted and returns the
// best chromosome ever seen.
func Genetic(s *Space, cfg GAConfig, onBest func(plan.Perm, float64)) (plan.Perm, float64, bool) {
	if cfg.Population < 4 {
		cfg.Population = 4
	}
	eval := s.Evaluator()
	budget := eval.Budget()
	if s.Size() == 0 {
		return nil, 0, false
	}
	if s.Size() == 1 {
		p := plan.Perm{s.Relations()[0]}
		return p, 0, true
	}

	pop := make([]chromosome, 0, cfg.Population)
	var best plan.Perm
	bestCost := math.Inf(1)
	offer := func(p plan.Perm, c float64) {
		if c < bestCost {
			best, bestCost = p, c
			if onBest != nil {
				onBest(p, c)
			}
		}
	}
	for i := 0; i < cfg.Population && !budget.Exhausted(); i++ {
		p := s.RandomState()
		c := eval.Cost(p)
		pop = append(pop, chromosome{p, c})
		offer(p, c)
	}
	if len(pop) == 0 {
		return nil, 0, false
	}

	for !budget.Exhausted() {
		sort.Slice(pop, func(i, j int) bool { return pop[i].cost < pop[j].cost })
		// Truncation selection: best half breeds to refill the rest.
		half := len(pop) / 2
		if half < 2 {
			half = len(pop)
		}
		for i := half; i < len(pop) && !budget.Exhausted(); i++ {
			a := pop[s.rng.Intn(half)]
			b := pop[s.rng.Intn(half)]
			child := s.crossover(a.perm, b.perm)
			if s.rng.Float64() < cfg.MutationProb {
				if m, _, ok := s.Neighbor(child); ok {
					// m is the space's scratch candidate; child is a
					// fresh crossover, so the mutation lands in it.
					// Neighbor already priced it, but we don't have the
					// value here; reprice below uniformly.
					copy(child, m)
				}
			}
			c := eval.Cost(child)
			if tr := s.Trace; tr != nil {
				// Offspring are the GA's move proposals; there is no
				// per-proposal accept/reject — truncation selection at
				// the next generation plays that role.
				tr.EmitCost(telemetry.EvMoveProposed, budget.Used(), c, "")
			}
			pop[i] = chromosome{child, c}
			offer(child, c)
		}
	}
	return best, bestCost, !math.IsInf(bestCost, 1)
}

// crossover keeps a random prefix of parent a, then appends the missing
// relations in parent b's relative order, repaired to validity: at each
// step the first frontier relation (one joining the prefix) in b-order
// is taken; if none joins, the first remaining is taken (forced cross
// product, priced not filtered).
func (s *Space) crossover(a, b plan.Perm) plan.Perm {
	n := len(a)
	cut := 1 + s.rng.Intn(n-1)
	out := make(plan.Perm, 0, n)
	out = append(out, a[:cut]...)

	s.inSet.Reset()
	for _, r := range out {
		s.inSet.Set(r)
	}
	remaining := make([]catalog.RelID, 0, n-cut)
	for _, r := range b {
		if !s.inSet.Test(r) {
			remaining = append(remaining, r)
		}
	}
	g := s.eval.Stats().Graph()
	budget := s.eval.Budget()
	for len(remaining) > 0 {
		pick := -1
		budget.Charge(int64(len(remaining)))
		for i, r := range remaining {
			if g.JoinsInto(r, s.inSet) {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0
		}
		r := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		out = append(out, r)
		s.inSet.Set(r)
	}
	return out
}
