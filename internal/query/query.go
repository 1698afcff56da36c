// Package query defines DeepDB's query model: aggregate queries (COUNT,
// SUM, AVG) over one or more FK-joined tables with conjunctive filter
// predicates and GROUP BY, plus the error metrics used throughout the
// paper's evaluation (q-error and relative error). The probabilistic query
// compiler (package core) and the exact executor (package exact) both
// consume this model, so ground truth and estimate are always computed from
// the same query object.
package query

import (
	"fmt"
	"math"
	"strings"
)

// AggType is the aggregate function of a query.
type AggType int

const (
	// Count is COUNT(*).
	Count AggType = iota
	// Sum is SUM(column).
	Sum
	// Avg is AVG(column).
	Avg
)

// String returns the SQL spelling of the aggregate.
func (a AggType) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggType(%d)", int(a))
	}
}

// Op is a comparison operator in a filter predicate.
type Op int

const (
	// Eq is =.
	Eq Op = iota
	// Ne is <> (!=).
	Ne
	// Lt is <.
	Lt
	// Le is <=.
	Le
	// Gt is >.
	Gt
	// Ge is >=.
	Ge
	// In is an IN (v1, v2, ...) membership test.
	In
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case In:
		return "IN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate is one conjunct of a filter: Column Op Value (or Values for IN).
// Values are already encoded: numeric columns use the number itself,
// categorical columns use the dictionary code of the base table that owns
// the column. SQL NULL semantics apply: a comparison with a NULL cell is
// unknown and the tuple does not qualify.
type Predicate struct {
	Column string
	Op     Op
	Value  float64
	Values []float64 // for In
	// Param marks the predicate's value as the Param-th (1-based)
	// placeholder of a prepared statement: Value is unset until Bind
	// substitutes it. 0 means the predicate carries a literal value.
	// Placeholders are not supported inside IN lists.
	Param int
}

// Matches reports whether a non-NULL cell value v satisfies the predicate.
func (p Predicate) Matches(v float64) bool {
	switch p.Op {
	case Eq:
		return v == p.Value
	case Ne:
		return v != p.Value
	case Lt:
		return v < p.Value
	case Le:
		return v <= p.Value
	case Gt:
		return v > p.Value
	case Ge:
		return v >= p.Value
	case In:
		for _, x := range p.Values {
			if v == x {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Query is one aggregate query. Tables are joined along the schema's FK
// edges (equi-joins); with a single table no join happens. GroupBy columns
// must be categorical or discrete.
type Query struct {
	Aggregate AggType
	AggColumn string // required for Sum/Avg
	Tables    []string
	Filters   []Predicate
	GroupBy   []string
	// OuterTables lists tables joined with outer-join semantics: rows of
	// the remaining tables are kept even without a partner in these tables
	// (Section 4.2 of the paper). WHERE predicates on an outer table
	// eliminate its padded rows, matching SQL. Every entry must also
	// appear in Tables.
	OuterTables []string
	// Disjunction is an optional OR-group ANDed with Filters:
	// WHERE <Filters...> AND (d1 OR d2 OR ...). The engine compiles it
	// with the inclusion-exclusion principle (Section 4.1 mentions this
	// extension).
	Disjunction []Predicate
}

// Validate performs structural checks that do not need a schema.
func (q Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query: no tables")
	}
	if q.Aggregate != Count && q.AggColumn == "" {
		return fmt.Errorf("query: %v requires an aggregate column", q.Aggregate)
	}
	for _, p := range q.Filters {
		if p.Column == "" {
			return fmt.Errorf("query: predicate with empty column")
		}
		if p.Op == In && len(p.Values) == 0 {
			return fmt.Errorf("query: IN predicate on %s with no values", p.Column)
		}
		if p.Param > 0 && p.Op == In {
			return fmt.Errorf("query: parameter placeholder in IN predicate on %s", p.Column)
		}
	}
	if len(q.Disjunction) > 8 {
		return fmt.Errorf("query: disjunction with %d terms (max 8)", len(q.Disjunction))
	}
	for _, d := range q.Disjunction {
		if d.Column == "" {
			return fmt.Errorf("query: disjunct with empty column")
		}
		if d.Param > 0 && d.Op == In {
			return fmt.Errorf("query: parameter placeholder in IN disjunct on %s", d.Column)
		}
	}
	if err := q.validateParams(); err != nil {
		return err
	}
	for _, ot := range q.OuterTables {
		found := false
		for _, t := range q.Tables {
			if t == ot {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("query: outer table %s not in table list", ot)
		}
	}
	return nil
}

// WithExtraFilter returns a copy of q with one more conjunct, sharing no
// filter slice with q.
//
//deepdb:testonly core's property tests build the adding-a-conjunct metamorphic law with it
func (q Query) WithExtraFilter(p Predicate) Query {
	c := q
	c.Filters = append(append([]Predicate(nil), q.Filters...), p)
	return c
}

// validateParams checks that the placeholder ordinals are exactly 1..n,
// each used once, so Bind can substitute positionally.
func (q Query) validateParams() error {
	n := q.NumParams()
	if n == 0 {
		return nil
	}
	seen := make([]bool, n+1)
	for _, preds := range [][]Predicate{q.Filters, q.Disjunction} {
		for _, p := range preds {
			if p.Param <= 0 {
				continue
			}
			if p.Param > n || seen[p.Param] {
				return fmt.Errorf("query: parameter ordinals must be 1..%d without repeats (got %d)", n, p.Param)
			}
			seen[p.Param] = true
		}
	}
	for i := 1; i <= n; i++ {
		if !seen[i] {
			return fmt.Errorf("query: parameter %d missing (ordinals must be 1..%d)", i, n)
		}
	}
	return nil
}

// NumParams returns the number of parameter placeholders in the query.
func (q Query) NumParams() int {
	n := 0
	for _, preds := range [][]Predicate{q.Filters, q.Disjunction} {
		for _, p := range preds {
			if p.Param > n {
				n = p.Param
			}
		}
	}
	return n
}

// Bind returns a copy of q with every parameter placeholder replaced by the
// corresponding value of params (placeholder order). The argument count
// must match NumParams exactly.
func (q Query) Bind(params ...float64) (Query, error) {
	n := q.NumParams()
	if len(params) != n {
		return Query{}, fmt.Errorf("query: %d parameters bound, statement has %d placeholders", len(params), n)
	}
	if n == 0 {
		return q, nil
	}
	c := q
	c.Filters = bindPreds(q.Filters, params)
	c.Disjunction = bindPreds(q.Disjunction, params)
	return c, nil
}

func bindPreds(preds []Predicate, params []float64) []Predicate {
	out := append([]Predicate(nil), preds...)
	for i := range out {
		if p := out[i].Param; p > 0 {
			out[i].Value = params[p-1]
			out[i].Param = 0
		}
	}
	return out
}

// ShapeKey returns a canonical rendering of the query's shape: every part
// that determines plan choice (aggregate, tables, outer tables, the columns
// and operators of filters and disjuncts, group-by columns) and nothing
// that does not (literal values, parameter bindings). Two queries with
// equal shape keys can share one compiled plan; a prepared statement and
// the equivalent literal query therefore hit the same cache entry.
func (q Query) ShapeKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v(%s)|T:%s|O:%s|F:", q.Aggregate, q.AggColumn,
		strings.Join(q.Tables, ","), strings.Join(q.OuterTables, ","))
	shapePreds(&b, q.Filters)
	b.WriteString("|D:")
	shapePreds(&b, q.Disjunction)
	fmt.Fprintf(&b, "|G:%s", strings.Join(q.GroupBy, ","))
	return b.String()
}

func shapePreds(b *strings.Builder, preds []Predicate) {
	for i, p := range preds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s%v", p.Column, p.Op)
		if p.Op == In {
			// The value count changes the predicate's range set but not
			// the plan, so IN collapses to the bare operator.
			b.WriteString("(...)")
		}
	}
}

// SameShape reports whether two queries share a plan-compatible shape —
// the cheap structural equivalent of comparing ShapeKey strings.
func SameShape(a, b Query) bool {
	if a.Aggregate != b.Aggregate || a.AggColumn != b.AggColumn {
		return false
	}
	if !sameStrings(a.Tables, b.Tables) || !sameStrings(a.OuterTables, b.OuterTables) ||
		!sameStrings(a.GroupBy, b.GroupBy) {
		return false
	}
	return samePredShape(a.Filters, b.Filters) && samePredShape(a.Disjunction, b.Disjunction)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func samePredShape(a, b []Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Column != b[i].Column || a[i].Op != b[i].Op {
			return false
		}
	}
	return true
}

// String renders the query in SQL-ish form, useful in logs and test output.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Aggregate == Count {
		b.WriteString("COUNT(*)")
	} else {
		fmt.Fprintf(&b, "%v(%s)", q.Aggregate, q.AggColumn)
	}
	fmt.Fprintf(&b, " FROM %s", strings.Join(q.Tables, " JOIN "))
	if len(q.Filters) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Filters {
			if i > 0 {
				b.WriteString(" AND ")
			}
			if p.Op == In {
				fmt.Fprintf(&b, "%s IN %v", p.Column, p.Values)
			} else {
				fmt.Fprintf(&b, "%s %v %s", p.Column, p.Op, p.valueString())
			}
		}
	}
	if len(q.Disjunction) > 0 {
		if len(q.Filters) > 0 {
			b.WriteString(" AND (")
		} else {
			b.WriteString(" WHERE (")
		}
		for i, p := range q.Disjunction {
			if i > 0 {
				b.WriteString(" OR ")
			}
			fmt.Fprintf(&b, "%s %v %s", p.Column, p.Op, p.valueString())
		}
		b.WriteString(")")
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(q.GroupBy, ", "))
	}
	return b.String()
}

// valueString renders a predicate's comparison value, or ? for an unbound
// placeholder.
func (p Predicate) valueString() string {
	if p.Param > 0 {
		return "?"
	}
	return fmt.Sprintf("%v", p.Value)
}

// Group is one result row of a (possibly grouped) aggregate query. For
// ungrouped queries Key is empty. Keys are encoded values of the GroupBy
// columns in order.
type Group struct {
	Key   []float64
	Value float64
}

// Result is the outcome of executing a query: one Group per group-by
// combination present in the data (exactly one for ungrouped queries).
type Result struct {
	Groups []Group
}

// Scalar returns the single value of an ungrouped result.
func (r Result) Scalar() float64 {
	if len(r.Groups) == 0 {
		return 0
	}
	return r.Groups[0].Value
}

// keyString renders a group key for map lookup.
func keyString(key []float64) string {
	var b strings.Builder
	for _, k := range key {
		fmt.Fprintf(&b, "%g|", k)
	}
	return b.String()
}

// QError returns the q-error between an estimate and the true cardinality:
// max(est/true, true/est), following the paper's convention that both are
// first clamped to at least 1 tuple so empty results do not blow up the
// metric.
func QError(estimate, truth float64) float64 {
	if estimate < 1 {
		estimate = 1
	}
	if truth < 1 {
		truth = 1
	}
	if estimate > truth {
		return estimate / truth
	}
	return truth / estimate
}

// RelativeError returns |true - predicted| / |true|. When the true value is
// zero the error is 0 for an exact prediction and 1 otherwise (the paper's
// figures skip such degenerate groups; we keep the metric total).
func RelativeError(predicted, truth float64) float64 {
	if truth == 0 {
		if predicted == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(truth-predicted) / math.Abs(truth)
}

// AvgRelativeError matches estimated groups to true groups by key and
// averages the per-group relative errors, the metric of Figures 9 and 10.
// Groups present in the truth but missing from the estimate count as error 1
// ("no result"); spurious estimated groups are ignored, as the paper's
// relative-error definition only ranges over true groups.
func AvgRelativeError(estimate, truth Result) float64 {
	if len(truth.Groups) == 0 {
		return 0
	}
	est := make(map[string]float64, len(estimate.Groups))
	for _, g := range estimate.Groups {
		est[keyString(g.Key)] = g.Value
	}
	total := 0.0
	for _, g := range truth.Groups {
		if v, ok := est[keyString(g.Key)]; ok {
			total += RelativeError(v, g.Value)
		} else {
			total += 1
		}
	}
	return total / float64(len(truth.Groups))
}
