package core

// requests_test.go pins how many SPN inference requests a grouped
// execution evaluates, per RSPN. A request count is exact where a timing is
// not, so it is held to equality like the allocation budgets: a change that
// evaluates one more expectation fails here, and one that saves some
// re-pins the number with the old count in the row.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
)

// countingEval is a batchEvaluator that counts the requests each RSPN
// evaluates (keyed by its joined table names) and answers them in process.
type countingEval struct {
	n map[string]int
}

func (c *countingEval) EvaluateRSPN(_ context.Context, r *rspn.RSPN, reqs []spn.Request, out []float64) error {
	c.n[strings.Join(r.Tables, ",")] += len(reqs)
	return r.EvaluateRequests(reqs, out)
}

// TestGroupByRequestCounts runs three SSB shapes on ssbEngine, whose joins
// are Theorem-2 combinations of single-table members: S4.3's two group
// columns are each read by a different side (dates reads d_year, part reads
// p_brand1, supplier and lineorder read neither), and S2.1 and its COUNT
// twin group by one column only the dates side reads. Each row pins the
// requests evaluated per RSPN. A comment holds the earlier counts: while
// every key bound every call, then while the memo lived for one key chunk
// and the gate bound every variance part (the COUNT row has only the
// latter).
func TestGroupByRequestCounts(t *testing.T) {
	e := ssbEngine(t)
	for _, c := range []struct {
		name string
		sql  string
		want map[string]int
	}{
		// 354 candidate keys (2 years x 177 brands) in two chunks, none
		// live at this scale, so only the gate runs, on point values: one
		// full request per distinct p_brand1 of the query (the memo spans
		// both chunks), per distinct d_year for the dates sub-tree, and one
		// per query for supplier and lineorder. 3 540 while every key bound
		// every call, 842 while the memo lived for one chunk and the gate
		// bound variance parts too.
		{"S4.3", "SELECT SUM(lo_profit) FROM lineorder JOIN dates JOIN supplier JOIN part " +
			"WHERE s_nation = 7 AND d_year IN (1997, 1998) AND p_category = 14 GROUP BY d_year, p_brand1",
			map[string]int{
				"dates":     2,   // 1 062, 9
				"lineorder": 1,   // 354, 2
				"part":      177, // 1 062, 825
				"supplier":  1,   // 354 x 3 = 1 062, 6
			}},
		// Seven years, all live, one chunk: only the dates side varies. The
		// gate binds full requests only, and its variance is never bound:
		// a SUM's answer is the COUNT x AVG fallback, a count sub-plan of
		// its own, and the aggregate's AVG is on lineorder. 42 in all (60
		// while the gate bound variance parts too).
		{"S2.1", "SELECT SUM(lo_revenue) FROM lineorder JOIN dates JOIN part JOIN supplier " +
			"WHERE p_category = 12 AND s_region = 1 GROUP BY d_year",
			map[string]int{
				"dates":     28, // 42, 42
				"lineorder": 6,  // 42, 6
				"part":      4,  // 42, 6
				"supplier":  4,  // 42, 6
			}},
		// S2.1's COUNT, all seven keys live: the gate binds full requests,
		// and a completion round binds the probability and squared
		// requests of every term a live key's gate read. Deferring evaluates
		// nothing twice: each total equals the count while the gate bound
		// every part at once (the comment).
		{"S2.1 COUNT", "SELECT COUNT(*) FROM lineorder JOIN dates JOIN part JOIN supplier " +
			"WHERE p_category = 12 AND s_region = 1 GROUP BY d_year",
			map[string]int{
				"dates":     21, // 21
				"lineorder": 1,  // 1
				"part":      3,  // 3
				"supplier":  3,  // 3
			}},
	} {
		q, err := query.Parse(c.sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ce := &countingEval{n: map[string]int{}}
		e.eval = ce
		_, err = e.ExecuteContext(context.Background(), q)
		e.eval = nil
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(ce.n) != len(c.want) {
			t.Errorf("%s: requests per RSPN %v, want %v", c.name, ce.n, c.want)
			continue
		}
		for r, want := range c.want {
			if got := ce.n[r]; got != want {
				t.Errorf("%s: RSPN[%s] evaluated %d requests, pinned %d", c.name, r, got, want)
			}
		}
	}
}
