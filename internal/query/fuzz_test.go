package query

import (
	"math"
	"strings"
	"testing"
)

// FuzzParse feeds Parse arbitrary text, the SQL of every /query and
// /estimate request. It must never panic; what it accepts must pass the
// schema-free validation Compile starts with and carry only finite
// literals. The seeds are the parser tests' SQL plus hostile input.
func FuzzParse(f *testing.F) {
	var in strings.Builder
	in.WriteString("SELECT COUNT(*) FROM t WHERE a IN (0")
	for i := 1; i < 10000; i++ {
		in.WriteString(", 1")
	}
	in.WriteString(")")
	for _, sql := range []string{
		"SELECT COUNT(*) FROM customer WHERE c_age >= 30 AND c_age < 60",
		"SELECT COUNT(*) FROM customer C WHERE c_region = 'EUROPE'",
		"SELECT COUNT(*) FROM customer NATURAL JOIN orders",
		"SELECT COUNT(*) FROM customer JOIN orders",
		"SELECT COUNT(*) FROM customer, orders",
		"SELECT COUNT(*) FROM customer C NATURAL JOIN orders O",
		"SELECT AVG(c_age) FROM customer GROUP BY c_region, c_city",
		"SELECT SUM(lo_revenue) FROM lineorder WHERE lo_discount IN (1, 2, 3)",
		"SELECT COUNT(*) FROM customer C WHERE C.c_age > 5",
		"",
		"SELECT MAX(x) FROM t",
		"SELECT COUNT(*) FROM",
		"SELECT COUNT(*) FROM t WHERE",
		"SELECT COUNT(*) FROM t WHERE a ~ 5",
		"SELECT COUNT(*) FROM t WHERE a = 'unterminated",
		"SELECT COUNT(*) FROM t trailing garbage (",
		"SELECT AVG() FROM t",
		"SELECT COUNT(*) FROM t WHERE a = 'x'",
		"SELECT COUNT(*) FROM t WHERE a >= ? AND b = 3 AND (c < ? OR d > ?)",
		"SELECT COUNT(*) FROM t WHERE a IN (1, ?)",
		// Hostile: non-finite and signed-zero literals, unbalanced and
		// deep parentheses, a huge IN list, invalid UTF-8.
		"SELECT COUNT(*) FROM t WHERE a = NaN",
		"SELECT COUNT(*) FROM t WHERE a < 1e999",
		"SELECT COUNT(*) FROM t WHERE a > -1e999",
		"SELECT COUNT(*) FROM t WHERE a = -0",
		"SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2",
		"SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2)",
		"SELECT COUNT((*)) FROM t",
		"SELECT COUNT(*) FROM t WHERE " + strings.Repeat("(", 1000) + "a = 1" + strings.Repeat(")", 1000),
		in.String(),
		"SELECT COUNT(*) FROM t WHERE a = '\xff\xfe'",
		"SELECT COUNT(*) FROM t\xc3\x28 WHERE a = 1",
	} {
		f.Add(sql)
	}
	resolve := func(column, literal string) (float64, error) { return float64(len(literal)), nil }
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql, resolve)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a query Validate rejects: %v", sql, err)
		}
		for _, preds := range [][]Predicate{q.Filters, q.Disjunction} {
			for _, p := range preds {
				for _, v := range append([]float64{p.Value}, p.Values...) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("Parse(%q) accepted the non-finite literal %v", sql, v)
					}
				}
			}
		}
	})
}
