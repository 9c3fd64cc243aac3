// Package catalog defines the statistical metadata a query optimizer
// consumes: relations with cardinalities, selection predicates with
// selectivities, join columns with distinct-value counts, and join
// predicates with join selectivities.
//
// The catalog follows the problem formulation of Swami (SIGMOD 1989):
// selections and projections are assumed to have been pushed down already,
// so they appear here only as statistics that shrink effective
// cardinalities; the optimizer's job is reduced to choosing a join order.
package catalog

import (
	"errors"
	"fmt"
	"math"
)

// RelID identifies a relation inside a Query by index (0-based).
type RelID int

// Selection is a selection predicate applied to a single relation before
// any joins. Only its selectivity matters to the optimizer.
type Selection struct {
	// Selectivity is the fraction of tuples that satisfy the predicate,
	// in (0, 1].
	Selectivity float64
}

// Relation carries the optimizer-visible statistics of one base relation.
type Relation struct {
	// Name is a human-readable identifier used in plan explanations.
	Name string
	// Cardinality is the number of tuples before selections.
	Cardinality int64
	// Selections are the selection predicates applied to this relation.
	Selections []Selection
}

// EffectiveCardinality returns the cardinality after applying all
// selection predicates, never less than 1 (an empty input would make
// every plan free and the optimization vacuous; the paper's generator
// keeps relations non-empty).
func (r *Relation) EffectiveCardinality() float64 {
	card := float64(r.Cardinality)
	for _, s := range r.Selections {
		card *= s.Selectivity
	}
	if card < 1 {
		return 1
	}
	return card
}

// Predicate is an equi-join predicate linking two relations.
type Predicate struct {
	// Left and Right are the joined relations. Left < Right by convention
	// (Normalize enforces it).
	Left, Right RelID
	// LeftDistinct and RightDistinct are the distinct-value counts of the
	// join columns on each side, after selections.
	LeftDistinct, RightDistinct float64
	// Selectivity is the join selectivity J: |L ⋈ R| = |L|·|R|·J.
	// If zero, it is derived as 1/max(LeftDistinct, RightDistinct).
	Selectivity float64
	// LeftHist and RightHist optionally carry equi-width frequency
	// histograms of the join columns. When both are present and aligned
	// the estimator prefers them over the distinct-count model — they
	// capture skew the flat model cannot. See Histogram.
	LeftHist, RightHist *Histogram
}

// Normalize orders the endpoints so Left < Right and fills a missing
// Selectivity from the distinct-value counts.
func (p *Predicate) Normalize() {
	if p.Left > p.Right {
		p.Left, p.Right = p.Right, p.Left
		p.LeftDistinct, p.RightDistinct = p.RightDistinct, p.LeftDistinct
		p.LeftHist, p.RightHist = p.RightHist, p.LeftHist
	}
	if p.Selectivity == 0 {
		d := math.Max(p.LeftDistinct, p.RightDistinct)
		if d >= 1 {
			p.Selectivity = 1 / d
		} else {
			p.Selectivity = 1
		}
	}
}

// Query is a select–project–join query: a set of relations and the join
// predicates linking them. The number of joins N is len(Predicates) in
// the join-graph sense; the paper's N counts joins, so a connected query
// over k relations has N = k-1 spanning joins plus any extra predicates.
type Query struct {
	Relations  []Relation
	Predicates []Predicate
}

// NumRelations returns the number of joining relations (the paper's N+1).
func (q *Query) NumRelations() int { return len(q.Relations) }

// Validate checks structural invariants: at least one relation, positive
// cardinalities, selectivities in range, predicate endpoints in range and
// distinct endpoints.
func (q *Query) Validate() error {
	if len(q.Relations) == 0 {
		return errors.New("catalog: query has no relations")
	}
	for i, r := range q.Relations {
		if r.Cardinality <= 0 {
			return fmt.Errorf("catalog: relation %d (%s) has non-positive cardinality %d", i, r.Name, r.Cardinality)
		}
		for j, s := range r.Selections {
			if s.Selectivity <= 0 || s.Selectivity > 1 {
				return fmt.Errorf("catalog: relation %d selection %d has selectivity %g outside (0,1]", i, j, s.Selectivity)
			}
		}
	}
	n := RelID(len(q.Relations))
	for i, p := range q.Predicates {
		if p.Left < 0 || p.Left >= n || p.Right < 0 || p.Right >= n {
			return fmt.Errorf("catalog: predicate %d references relation out of range [0,%d)", i, n)
		}
		if p.Left == p.Right {
			return fmt.Errorf("catalog: predicate %d joins relation %d with itself", i, p.Left)
		}
		if p.Selectivity < 0 || p.Selectivity > 1 {
			return fmt.Errorf("catalog: predicate %d has selectivity %g outside [0,1]", i, p.Selectivity)
		}
		if p.Selectivity == 0 && p.LeftDistinct < 1 && p.RightDistinct < 1 {
			return fmt.Errorf("catalog: predicate %d has neither selectivity nor distinct counts", i)
		}
		if err := p.LeftHist.Validate(); err != nil {
			return fmt.Errorf("catalog: predicate %d left histogram: %w", i, err)
		}
		if err := p.RightHist.Validate(); err != nil {
			return fmt.Errorf("catalog: predicate %d right histogram: %w", i, err)
		}
	}
	return nil
}

// Normalize normalizes every predicate (endpoint ordering, derived
// selectivities) in place.
func (q *Query) Normalize() {
	for i := range q.Predicates {
		q.Predicates[i].Normalize()
	}
}

// Clone returns a copy of the query that shares no slice with it:
// relations, their selections and predicates are copied. Each
// predicate's LeftHist and RightHist, which nothing writes, are shared
// with the original.
func (q *Query) Clone() *Query {
	c := &Query{
		Relations:  make([]Relation, len(q.Relations)),
		Predicates: make([]Predicate, len(q.Predicates)),
	}
	copy(c.Predicates, q.Predicates)
	for i, r := range q.Relations {
		c.Relations[i] = r
		c.Relations[i].Selections = append([]Selection(nil), r.Selections...)
	}
	return c
}

// RelationName returns the relation's name or a positional fallback.
func (q *Query) RelationName(id RelID) string {
	if int(id) < len(q.Relations) && q.Relations[id].Name != "" {
		return q.Relations[id].Name
	}
	return fmt.Sprintf("R%d", id)
}
