// Package search implements the combinatorial optimization machinery of
// the paper's §3 over the space of valid outer linear join trees: the
// random state generator, the move set (from Swami & Gupta, SIGMOD 1988),
// single runs of iterative improvement, and simulated annealing with the
// Johnson et al. schedule.
package search

import (
	"math/rand"
	"slices"

	"joinopt/internal/catalog"
	"joinopt/internal/joingraph"
	"joinopt/internal/plan"
	"joinopt/internal/telemetry"
)

// MoveKind enumerates the move set. Per [SG88], a move perturbs a
// permutation into an adjacent valid permutation.
type MoveKind int

const (
	// MoveSwap exchanges the relations at two random positions.
	MoveSwap MoveKind = iota
	// MoveInsert removes the relation at one random position and
	// reinserts it at another, shifting the relations in between.
	MoveInsert
)

// Space is the state space of valid permutations of one join-graph
// component, with a move set and a random state generator. It is bound
// to an evaluator (query + cost model + budget) and an RNG.
type Space struct {
	eval *plan.Evaluator
	// rels is the component's relation set.
	rels []catalog.RelID
	rng  *rand.Rand
	// SwapWeight is the probability of proposing a swap (vs insert).
	// The default move set is swap-only, following [SG88]; insert moves
	// (SwapWeight < 1) make descent markedly faster and are kept as an
	// ablation knob (see BenchmarkAblationMoveSet).
	SwapWeight float64
	// MaxProposals bounds the attempts to find a *valid* neighbor before
	// giving up (the state is then reported to have no reachable
	// neighbor this round).
	MaxProposals int
	// Trace, when non-nil, receives move-level search events stamped
	// with the budget meter (telemetry's work-unit clock). The nil
	// default is the zero-overhead fast path: every emission site
	// guards with a plain nil check, so disabled tracing costs one
	// predictable branch per event site.
	Trace *telemetry.Tracer

	// scratch holds the candidate under construction; after Neighbor
	// returns, it holds the candidate it priced.
	scratch plan.Perm
	inSet   joingraph.Bitset
	// remaining and frontier are RandomState's scratch: the relations
	// not yet placed, and the indices of those that join the prefix.
	remaining plan.Perm
	frontier  []int

	// The pricing trail of the state moves are proposed from, keyed on
	// its contents (base): baseTrail holds its first baseKnown
	// positions. candTrail holds the last priced candidate's positions
	// from candFrom on; candPriced reports that scratch holds that
	// candidate. See Neighbor.
	base       plan.Perm
	baseTrail  plan.Trail
	baseKnown  int
	candTrail  plan.Trail
	candFrom   int
	candPriced bool
}

// NewSpace returns a search space over the given component relations.
func NewSpace(eval *plan.Evaluator, rels []catalog.RelID, rng *rand.Rand) *Space {
	n := len(rels)
	perms := make(plan.Perm, 3*n)
	trails := make([]float64, 4*n)
	return &Space{
		eval:         eval,
		rels:         rels,
		rng:          rng,
		SwapWeight:   1.0,
		MaxProposals: 32,
		scratch:      perms[:n:n],
		inSet:        joingraph.NewBitset(eval.Stats().Query().NumRelations()),
		base:         perms[n : n : 2*n],
		remaining:    perms[2*n : 2*n],
		frontier:     make([]int, 0, n),
		baseTrail:    plan.Trail{Size: trails[:n:n], Total: trails[n : 2*n : 2*n]},
		candTrail:    plan.Trail{Size: trails[2*n : 3*n : 3*n], Total: trails[3*n:]},
	}
}

// Evaluator returns the bound evaluator.
func (s *Space) Evaluator() *plan.Evaluator { return s.eval }

// Relations returns the component's relation set.
func (s *Space) Relations() []catalog.RelID { return s.rels }

// RNG returns the space's random source.
func (s *Space) RNG() *rand.Rand { return s.rng }

// Size returns the number of relations in the component.
func (s *Space) Size() int { return len(s.rels) }

// RandomState generates a uniformly seeded valid permutation: a random
// first relation, then repeatedly a uniform choice among the relations
// joining the current prefix (the frontier). For a connected component
// the frontier is never empty before all relations are placed.
func (s *Space) RandomState() plan.Perm {
	n := len(s.rels)
	out := make(plan.Perm, 0, n)
	if n == 0 {
		return out
	}
	s.inSet.Reset()
	graph := s.eval.Stats().Graph()

	remaining := append(s.remaining[:0], s.rels...)
	// Pick the first relation uniformly.
	fi := s.rng.Intn(len(remaining))
	first := remaining[fi]
	remaining[fi] = remaining[len(remaining)-1]
	remaining = remaining[:len(remaining)-1]
	out = append(out, first)
	s.inSet.Set(first)

	budget := s.eval.Budget()
	for len(remaining) > 0 {
		// Collect frontier indices (relations joining the prefix).
		// Frontier scans are adjacency work and debit the budget like
		// any other per-relation check.
		budget.Charge(int64(len(remaining)))
		frontier := frontierIndices(graph, remaining, s.inSet, s.frontier[:0])
		var pick int
		if len(frontier) == 0 {
			// Disconnected input (cross product inside the "component"):
			// fall back to a uniform pick so generation still terminates.
			pick = s.rng.Intn(len(remaining))
		} else {
			pick = frontier[s.rng.Intn(len(frontier))]
		}
		r := remaining[pick]
		remaining[pick] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		out = append(out, r)
		s.inSet.Set(r)
	}
	return out
}

// frontierIndices appends to dst the indices into remaining of relations
// that join at least one relation in inSet. Each check is a word-AND
// over the graph's precomputed neighbor masks.
func frontierIndices(g *joingraph.Graph, remaining []catalog.RelID, inSet joingraph.Bitset, dst []int) []int {
	for i, r := range remaining {
		if g.JoinsInto(r, inSet) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Neighbor proposes a valid adjacent state of p and returns it with its
// cost. It proposes up to MaxProposals random moves, keeping the first
// valid one; ok is false if none was valid (or the component is too
// small to move).
//
// The returned permutation is the Space's scratch candidate: it stays
// valid only until the next call, and a caller that keeps it (an
// accepted move, an incumbent) must Clone it or copy it into storage
// of its own. Each attempt is copied from the Space's own copy of p,
// never from p, so p may be Neighbor's own last result.
//
// A move changes p only from some position low on, so the candidate is
// priced from there: the Space keeps p's pricing trail and resumes the
// running cost at low, which equals a full Cost bit for bit and is
// charged like one. The trail is kept across calls for the state
// moves are proposed from, so the usual loops — propose from cur until
// a candidate is accepted, then from that candidate — price every
// candidate from its first changed position. For a p the Space has not
// seen (a fresh start state, a GA child) the trail is built along the
// way: positions a candidate shares with p are recorded as p's.
func (s *Space) Neighbor(p plan.Perm) (q plan.Perm, cost float64, ok bool) {
	n := len(p)
	if n < 2 {
		return nil, 0, false
	}
	s.adopt(p)
	cand := s.scratch[:n]
	for attempt := 0; attempt < s.MaxProposals; attempt++ {
		copy(cand, s.base)
		var low int
		if s.rng.Float64() < s.SwapWeight {
			low = s.applySwap(cand)
		} else {
			low = s.applyInsert(cand)
		}
		if !s.eval.ValidSuffixFrom(cand, low) {
			continue
		}
		return cand, s.priceCandidate(cand, low), true
	}
	return nil, 0, false
}

// adopt makes p the state whose trail is kept. If p is the candidate
// priced last (the caller accepted it), its trail is the base trail up
// to where that candidate was priced from plus the candidate's own
// entries after; any other p starts with no known positions.
func (s *Space) adopt(p plan.Perm) {
	priced := s.candPriced
	s.candPriced = false
	if slices.Equal(p, s.base) {
		return
	}
	n := len(p)
	if priced && slices.Equal(p, s.scratch[:n]) {
		from := s.candFrom
		copy(s.baseTrail.Size[from:n], s.candTrail.Size[from:n])
		copy(s.baseTrail.Total[from:n], s.candTrail.Total[from:n])
		s.baseKnown = n
	} else {
		s.baseKnown = 0
	}
	s.base = append(s.base[:0], p...)
}

// priceCandidate prices cand, which shares positions [0, low) with the
// base state, resuming from the base trail where it is known. The
// shared positions the base trail did not yet know are recorded into
// it on the way.
func (s *Space) priceCandidate(cand plan.Perm, low int) float64 {
	from := min(low, s.baseKnown)
	if from > 0 {
		s.candTrail.Size[from-1] = s.baseTrail.Size[from-1]
		s.candTrail.Total[from-1] = s.baseTrail.Total[from-1]
	}
	cost := s.eval.CostFrom(cand, from, s.candTrail)
	if low > s.baseKnown {
		copy(s.baseTrail.Size[from:low], s.candTrail.Size[from:low])
		copy(s.baseTrail.Total[from:low], s.candTrail.Total[from:low])
		s.baseKnown = low
	}
	s.candFrom = from
	s.candPriced = true
	return cost
}

// applySwap swaps two distinct random positions in place and returns the
// lower of the two (validity must be rechecked from there).
func (s *Space) applySwap(p plan.Perm) int {
	n := len(p)
	i := s.rng.Intn(n)
	j := s.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if i > j {
		i, j = j, i
	}
	p[i], p[j] = p[j], p[i]
	return i
}

// applyInsert removes a random position and reinserts it elsewhere,
// returning the lowest affected position.
func (s *Space) applyInsert(p plan.Perm) int {
	n := len(p)
	from := s.rng.Intn(n)
	to := s.rng.Intn(n - 1)
	if to >= from {
		to++
	}
	r := p[from]
	if from < to {
		copy(p[from:to], p[from+1:to+1])
		p[to] = r
		return from
	}
	copy(p[to+1:from+1], p[to:from])
	p[to] = r
	return to
}
