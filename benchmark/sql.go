package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/query"
)

// renderSQL prints q in the SQL subset query.Parse accepts, so a generated
// query.Query can be POSTed to the server as literal SQL. query.Query's own
// String() is for logs: it prints IN lists as Go slices ("IN [2]"), which
// the parser rejects. Encoded categorical values are rendered as their
// numeric codes; the parser passes numeric literals through unresolved.
//
// Queries with unbound placeholders, outer-join tables or non-finite
// literals have no literal-SQL form and are an error.
func renderSQL(q query.Query) (string, error) {
	if len(q.OuterTables) > 0 {
		return "", fmt.Errorf("render: outer-join tables have no SQL spelling")
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Aggregate == query.Count {
		b.WriteString("COUNT(*)")
	} else {
		fmt.Fprintf(&b, "%v(%s)", q.Aggregate, q.AggColumn)
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, " JOIN "))
	sep := " WHERE "
	for _, p := range q.Filters {
		b.WriteString(sep)
		sep = " AND "
		if err := renderPred(&b, p); err != nil {
			return "", err
		}
	}
	if len(q.Disjunction) > 0 {
		b.WriteString(sep)
		b.WriteByte('(')
		for i, p := range q.Disjunction {
			if i > 0 {
				b.WriteString(" OR ")
			}
			if err := renderPred(&b, p); err != nil {
				return "", err
			}
		}
		b.WriteByte(')')
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return b.String(), nil
}

func renderPred(b *strings.Builder, p query.Predicate) error {
	if p.Param > 0 {
		return fmt.Errorf("render: predicate on %s is an unbound placeholder", p.Column)
	}
	if p.Op == query.In {
		if len(p.Values) == 0 {
			return fmt.Errorf("render: empty IN list on %s", p.Column)
		}
		b.WriteString(p.Column)
		b.WriteString(" IN (")
		for i, v := range p.Values {
			if i > 0 {
				b.WriteString(", ")
			}
			if err := renderNumber(b, p.Column, v); err != nil {
				return err
			}
		}
		b.WriteByte(')')
		return nil
	}
	fmt.Fprintf(b, "%s %v ", p.Column, p.Op)
	return renderNumber(b, p.Column, p.Value)
}

func renderNumber(b *strings.Builder, col string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("render: non-finite literal on %s", col)
	}
	// Shortest round-trip form: Parse(render(q)) carries the same bits.
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	return nil
}
