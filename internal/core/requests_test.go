package core

// requests_test.go pins how many SPN inference requests a grouped
// execution evaluates, per RSPN. A request count is exact where a timing is
// not, so it is held to equality like the allocation budgets: a change that
// evaluates one more expectation fails here, and one that saves some
// re-pins the number with the old count in the row.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
)

// countingEval is a BatchEvaluator that counts the requests each RSPN
// evaluates (keyed by its joined table names) and answers them in process.
type countingEval struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *countingEval) EvaluateRSPN(_ context.Context, r *rspn.RSPN, reqs []spn.Request, out []float64) error {
	c.mu.Lock()
	c.n[strings.Join(r.Tables, ",")] += len(reqs)
	c.mu.Unlock()
	return r.EvaluateRequests(reqs, out)
}

// TestGroupByRequestCounts runs two SSB shapes on ssbEngine, whose joins
// are Theorem-2 combinations of single-table members: S4.3's two group
// columns are each read by a different side (dates reads d_year, part reads
// p_brand1, supplier and lineorder read neither), and S2.1 groups by one
// column only the dates side reads. Each row pins the requests evaluated
// per RSPN; the comment holds the count while every key bound every call.
func TestGroupByRequestCounts(t *testing.T) {
	e := ssbEngine(t)
	for _, c := range []struct {
		name string
		sql  string
		want map[string]int
	}{
		// 354 candidate keys (2 years x 177 brands) in two chunks, none
		// live at this scale, so only the gate runs. Part binds once per
		// distinct p_brand1 in each chunk (177 + 98 brands, 3 requests
		// each), dates once per distinct d_year, the others once per chunk.
		// 3 540 in all while every key bound every call: 4.2x fewer.
		{"S4.3", "SELECT SUM(lo_profit) FROM lineorder JOIN dates JOIN supplier JOIN part " +
			"WHERE s_nation = 7 AND d_year IN (1997, 1998) AND p_category = 14 GROUP BY d_year, p_brand1",
			map[string]int{
				"dates":     9,   // 1 062
				"lineorder": 2,   // 354
				"part":      825, // 1 062
				"supplier":  6,   // 1 062
			}},
		// Seven years, all live, one chunk: only the dates side varies.
		// Gate and COUNT x AVG aggregate both run; the aggregate's AVG is
		// on lineorder. 168 in all.
		{"S2.1", "SELECT SUM(lo_revenue) FROM lineorder JOIN dates JOIN part JOIN supplier " +
			"WHERE p_category = 12 AND s_region = 1 GROUP BY d_year",
			map[string]int{
				"dates":     42, // 42
				"lineorder": 6,  // 42
				"part":      6,  // 42
				"supplier":  6,  // 42
			}},
	} {
		q, err := query.Parse(c.sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ce := &countingEval{n: map[string]int{}}
		e.Eval = ce
		_, err = e.ExecuteContext(context.Background(), q)
		e.Eval = nil
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
