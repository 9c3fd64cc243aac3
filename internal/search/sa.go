package search

import (
	"math"

	"joinopt/internal/plan"
	"joinopt/internal/telemetry"
)

// SAConfig tunes simulated annealing per the variant of Johnson, Aragon,
// McGeoch & Schevon [JAMS87] adopted by [SG88]: chains of sizeFactor·N
// moves at each temperature, geometric cooling, and a freezing condition
// based on vanishing acceptance with no improvement of the incumbent.
type SAConfig struct {
	// SizeFactor scales the chain length: chainLength = SizeFactor·n.
	SizeFactor int
	// InitAccept is the target initial acceptance probability used to
	// derive the starting temperature from sampled uphill deltas.
	InitAccept float64
	// CoolRate is the geometric temperature reduction factor.
	CoolRate float64
	// FrozenAccept is the acceptance ratio below which a chain counts
	// toward freezing.
	FrozenAccept float64
	// FrozenChains is the number of consecutive low-acceptance chains
	// without a new best solution required to declare the system frozen.
	FrozenChains int
	// TempSamples is the number of random moves sampled to estimate the
	// initial temperature.
	TempSamples int
}

// DefaultSAConfig returns the [JAMS87]-style defaults.
func DefaultSAConfig() SAConfig {
	return SAConfig{
		SizeFactor:   16,
		InitAccept:   0.4,
		CoolRate:     0.95,
		FrozenAccept: 0.02,
		FrozenChains: 4,
		TempSamples:  20,
	}
}

// initialTemp estimates the starting temperature so that an average
// uphill move from start is accepted with probability cfg.InitAccept.
func initialTemp(s *Space, cfg SAConfig, start plan.Perm, startCost float64) float64 {
	sumUp := 0.0
	nUp := 0
	budget := s.Evaluator().Budget()
	for i := 0; i < cfg.TempSamples && !budget.Exhausted(); i++ {
		_, c, ok := s.Neighbor(start)
		if !ok {
			break
		}
		if d := c - startCost; d > 0 {
			sumUp += d
			nUp++
		}
	}
	if nUp == 0 {
		// No uphill neighbors sampled: any positive temperature works;
		// tie it to the state's own cost scale.
		return math.Max(startCost*0.05, 1)
	}
	avg := sumUp / float64(nUp)
	return avg / math.Log(1/cfg.InitAccept)
}

// Anneal runs simulated annealing (Figure 2 of the paper) from the given
// start state until the system freezes or the budget is exhausted, and
// returns the best state visited. startCost must be the freshly
// evaluated cost of start.
func Anneal(s *Space, cfg SAConfig, start plan.Perm, startCost float64) (plan.Perm, float64) {
	return AnnealObserved(s, cfg, start, startCost, nil)
}

// AnnealObserved is Anneal with an incumbent callback: onBest is invoked
// whenever the best-seen state improves.
func AnnealObserved(s *Space, cfg SAConfig, start plan.Perm, startCost float64, onBest func(plan.Perm, float64)) (plan.Perm, float64) {
	cur := start.Clone()
	curCost := startCost
	best := cur.Clone()
	bestCost := curCost

	budget := s.Evaluator().Budget()
	n := len(cur)
	if n < 2 {
		return best, bestCost
	}
	temp := initialTemp(s, cfg, cur, curCost)
	chainLength := cfg.SizeFactor * n
	frozen := 0
	rng := s.RNG()

	tr := s.Trace
	for frozen < cfg.FrozenChains && !budget.Exhausted() {
		accepted := 0
		improvedBest := false
		for l := 0; l < chainLength && !budget.Exhausted(); l++ {
			next, nextCost, ok := s.Neighbor(cur)
			if !ok {
				continue
			}
			if tr != nil {
				tr.EmitCost(telemetry.EvMoveProposed, budget.Used(), nextCost, "")
			}
			delta := nextCost - curCost
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				// cur is this run's own buffer and never escapes: only
				// a new best is cloned out of it.
				copy(cur, next)
				curCost = nextCost
				accepted++
				if tr != nil {
					tr.EmitCost(telemetry.EvMoveAccepted, budget.Used(), curCost, "")
				}
				if curCost < bestCost {
					best, bestCost = cur.Clone(), curCost
					improvedBest = true
					if onBest != nil {
						onBest(best, bestCost)
					}
				}
			} else if tr != nil {
				tr.Emit(telemetry.EvMoveRejected, budget.Used(), "")
			}
		}
		ratio := float64(accepted) / float64(chainLength)
		if ratio < cfg.FrozenAccept && !improvedBest {
			frozen++
		} else {
			frozen = 0
		}
		temp *= cfg.CoolRate
	}
	return best, bestCost
}
