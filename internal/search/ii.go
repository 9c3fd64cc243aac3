package search

import (
	"joinopt/internal/plan"
	"joinopt/internal/telemetry"
)

// IIConfig tunes a single run of iterative improvement.
type IIConfig struct {
	// RejectFactor sets the local-minimum detection threshold as a
	// fraction of the move neighborhood size: a run stops after
	// max(MinRejects, RejectFactor·n·(n−1)/2) consecutive rejected
	// (non-improving or invalid) proposals, n being the component size.
	// Declaring a local minimum requires sampling a meaningful share of
	// the ~n²/2 swap neighbors, which is what makes a single II run
	// expensive — the property behind the paper's small-time-limit
	// dynamics (AGI ahead of IAI until t ≈ 1.8N²).
	RejectFactor float64
	// MinRejects floors the threshold for small components.
	MinRejects int
}

// DefaultIIConfig returns the calibrated defaults.
func DefaultIIConfig() IIConfig {
	return IIConfig{RejectFactor: 0.5, MinRejects: 16}
}

// rejectThreshold computes the consecutive-reject stop threshold.
func (c IIConfig) rejectThreshold(n int) int {
	t := int(c.RejectFactor * float64(n) * float64(n-1) / 2)
	if t < c.MinRejects {
		t = c.MinRejects
	}
	return t
}

// ImproveRun performs one run of iterative improvement (Figure 1 of the
// paper) from the given start state: repeatedly propose a random adjacent
// state and accept it iff it is cheaper, until a local minimum is
// detected (a long streak of rejections) or the budget is exhausted.
// It returns the final state and its cost. startCost must be the cost of
// start (pass a freshly evaluated value; ImproveRun does not re-price it).
func ImproveRun(s *Space, cfg IIConfig, start plan.Perm, startCost float64) (plan.Perm, float64) {
	return ImproveRunObserved(s, cfg, start, startCost, nil)
}

// ImproveRunObserved is ImproveRun with an acceptance callback: onAccept
// is invoked with every accepted (strictly improving) state, letting
// callers track a global incumbent mid-run (the experiment harness reads
// best-so-far curves off these events).
func ImproveRunObserved(s *Space, cfg IIConfig, start plan.Perm, startCost float64, onAccept func(plan.Perm, float64)) (plan.Perm, float64) {
	cur := start.Clone()
	curCost := startCost
	threshold := cfg.rejectThreshold(len(cur))
	rejects := 0
	budget := s.Evaluator().Budget()
	tr := s.Trace
	for rejects < threshold && !budget.Exhausted() {
		next, nextCost, ok := s.Neighbor(cur)
		if !ok {
			break // no valid neighbor reachable; cur is effectively a local minimum
		}
		if tr != nil {
			tr.EmitCost(telemetry.EvMoveProposed, budget.Used(), nextCost, "")
		}
		if nextCost < curCost {
			// next is the space's scratch candidate; onAccept may keep
			// the accepted state, so it gets a copy of its own.
			cur, curCost = next.Clone(), nextCost
			rejects = 0
			if tr != nil {
				tr.EmitCost(telemetry.EvMoveAccepted, budget.Used(), curCost, "")
			}
			if onAccept != nil {
				onAccept(cur, curCost)
			}
		} else {
			rejects++
			if tr != nil {
				tr.Emit(telemetry.EvMoveRejected, budget.Used(), "")
			}
		}
	}
	return cur, curCost
}

// StartStater supplies start states for repeated II runs. Implemented by
// the random generator and by the heuristics' state streams; returns
// ok=false when the source is exhausted.
type StartStater interface {
	NextStart() (plan.Perm, bool)
}

// RandomStarts is an endless StartStater drawing from the space's random
// state generator.
type RandomStarts struct{ Space *Space }

// NextStart implements StartStater.
func (r RandomStarts) NextStart() (plan.Perm, bool) {
	return r.Space.RandomState(), true
}

// Improve runs iterative improvement repeatedly, drawing start states
// from starts until the budget is exhausted or the source runs dry, and
// returns the best local minimum found. If the source yields no state
// before the budget runs out, ok is false.
func Improve(s *Space, cfg IIConfig, starts StartStater) (best plan.Perm, bestCost float64, ok bool) {
	eval := s.Evaluator()
	budget := eval.Budget()
	for !budget.Exhausted() {
		start, more := starts.NextStart()
		if !more {
			break
		}
		startCost := eval.Cost(start)
		endState, endCost := ImproveRun(s, cfg, start, startCost)
		if !ok || endCost < bestCost {
			best, bestCost, ok = endState, endCost, true
		}
	}
	return best, bestCost, ok
}
