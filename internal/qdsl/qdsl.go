// Package qdsl parses a small textual query-description language, the
// human-friendly alternative to the JSON interchange format:
//
//	# comments and blank lines are ignored
//	relation orders    1000000 select 0.1 0.5
//	relation customers 50000
//	relation nation    25
//	join orders customers distinct 50000 50000
//	join customers nation selectivity 0.04
//
// Statements:
//
//	relation <name> <cardinality> [select <selectivity>...]
//	join <name> <name> distinct <left> <right>
//	join <name> <name> selectivity <J>
//
// Relations are declared before the joins that use them; names are
// unique. The parser reports errors with line numbers.
package qdsl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"joinopt/internal/catalog"
)

// Parse reads a query description.
func Parse(r io.Reader) (*catalog.Query, error) {
	q := &catalog.Query{}
	index := make(map[string]catalog.RelID)

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "relation":
			if err := parseRelation(q, index, fields); err != nil {
				return nil, fmt.Errorf("qdsl: line %d: %w", lineNo, err)
			}
		case "join":
			if err := parseJoin(q, index, fields); err != nil {
				return nil, fmt.Errorf("qdsl: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("qdsl: line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("qdsl: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q.Normalize()
	return q, nil
}

// ParseString parses a query description from a string.
func ParseString(s string) (*catalog.Query, error) {
	return Parse(strings.NewReader(s))
}

func parseRelation(q *catalog.Query, index map[string]catalog.RelID, fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("relation needs a name and a cardinality")
	}
	name := fields[1]
	if _, dup := index[name]; dup {
		return fmt.Errorf("relation %q declared twice", name)
	}
	card, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return fmt.Errorf("cardinality %q: %v", fields[2], err)
	}
	rel := catalog.Relation{Name: name, Cardinality: card}
	rest := fields[3:]
	if len(rest) > 0 {
		if rest[0] != "select" {
			return fmt.Errorf("expected 'select', got %q", rest[0])
		}
		if len(rest) == 1 {
			return fmt.Errorf("'select' needs at least one selectivity")
		}
		for _, f := range rest[1:] {
			sel, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("selectivity %q: %v", f, err)
			}
			rel.Selections = append(rel.Selections, catalog.Selection{Selectivity: sel})
		}
	}
	index[name] = catalog.RelID(len(q.Relations))
	q.Relations = append(q.Relations, rel)
	return nil
}

func parseJoin(q *catalog.Query, index map[string]catalog.RelID, fields []string) error {
	if len(fields) < 5 {
		return fmt.Errorf("join needs two relations and 'distinct l r' or 'selectivity J'")
	}
	left, ok := index[fields[1]]
	if !ok {
		return fmt.Errorf("unknown relation %q", fields[1])
	}
	right, ok := index[fields[2]]
	if !ok {
		return fmt.Errorf("unknown relation %q", fields[2])
	}
	p := catalog.Predicate{Left: left, Right: right}
	switch fields[3] {
	case "distinct":
		if len(fields) != 6 {
			return fmt.Errorf("'distinct' needs exactly two counts")
		}
		l, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return fmt.Errorf("left distinct %q: %v", fields[4], err)
		}
		r, err := strconv.ParseFloat(fields[5], 64)
		if err != nil {
			return fmt.Errorf("right distinct %q: %v", fields[5], err)
		}
		p.LeftDistinct, p.RightDistinct = l, r
	case "selectivity":
		if len(fields) != 5 {
			return fmt.Errorf("'selectivity' needs exactly one value")
		}
		j, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return fmt.Errorf("selectivity %q: %v", fields[4], err)
		}
		p.Selectivity = j
	default:
		return fmt.Errorf("expected 'distinct' or 'selectivity', got %q", fields[3])
	}
	q.Predicates = append(q.Predicates, p)
	return nil
}

// Format renders a query back into the DSL (histograms, which the DSL
// cannot express, are dropped).
func Format(q *catalog.Query) string {
	var b strings.Builder
	for i, r := range q.Relations {
		fmt.Fprintf(&b, "relation %s %d", nameOf(q, catalog.RelID(i)), r.Cardinality)
		if len(r.Selections) > 0 {
			b.WriteString(" select")
			for _, s := range r.Selections {
				fmt.Fprintf(&b, " %g", s.Selectivity)
			}
		}
		b.WriteByte('\n')
	}
	for _, p := range q.Predicates {
		if p.LeftDistinct >= 1 || p.RightDistinct >= 1 {
			fmt.Fprintf(&b, "join %s %s distinct %g %g\n",
				nameOf(q, p.Left), nameOf(q, p.Right), p.LeftDistinct, p.RightDistinct)
		} else {
			fmt.Fprintf(&b, "join %s %s selectivity %g\n",
				nameOf(q, p.Left), nameOf(q, p.Right), p.Selectivity)
		}
	}
	return b.String()
}

func nameOf(q *catalog.Query, id catalog.RelID) string {
	return q.RelationName(id)
}
