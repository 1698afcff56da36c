package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/table"
)

// collectIter drains a GroupIter into a slice.
func collectIter(t *testing.T, it *GroupIter) []AQPGroup {
	t.Helper()
	var out []AQPGroup
	for it.Next() {
		out = append(out, it.Group())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

// sameBits asserts two floats share a bit pattern.
func sameBits(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s differs: %v (%x) vs %v (%x)", what, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

// assertGroupsIdentical asserts two row sets are bitwise identical,
// keys included, in the same order.
func assertGroupsIdentical(t *testing.T, got, want []AQPGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count differs: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Key) != len(want[i].Key) {
			t.Fatalf("row %d key length differs", i)
		}
		for k := range want[i].Key {
			sameBits(t, "key", got[i].Key[k], want[i].Key[k])
		}
		sameBits(t, "value", got[i].Estimate.Value, want[i].Estimate.Value)
		sameBits(t, "variance", got[i].Estimate.Variance, want[i].Estimate.Variance)
		sameBits(t, "ci low", got[i].CILow, want[i].CILow)
		sameBits(t, "ci high", got[i].CIHigh, want[i].CIHigh)
	}
}

// groupedClasses is the grouped query table of the pipeline tests:
// COUNT/SUM/AVG, single-table and join, two group columns, a disjunction,
// and filters that leave some candidate keys empty.
func groupedClasses(tabs map[string]*table.Table) []query.Query {
	return []query.Query{
		{Aggregate: query.Count, Tables: []string{"customer"}, GroupBy: []string{"c_region"}},
		{Aggregate: query.Avg, AggColumn: "c_age", Tables: []string{"customer"}, GroupBy: []string{"c_region"}},
		{Aggregate: query.Sum, AggColumn: "c_age", Tables: []string{"customer"}, GroupBy: []string{"c_region"}},
		{Aggregate: query.Count, Tables: []string{"customer", "orders"},
			GroupBy: []string{"c_region", "o_channel"}},
		{Aggregate: query.Avg, AggColumn: "c_age", Tables: []string{"customer", "orders"},
			GroupBy: []string{"o_channel"}},
		// EUROPE has no 80-year-old: that key must be gated out.
		{Aggregate: query.Sum, AggColumn: "c_age", Tables: []string{"customer"},
			Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: euCode(tabs)}},
			GroupBy: []string{"c_age"}},
		{Aggregate: query.Count, Tables: []string{"customer", "orders"},
			Filters: []query.Predicate{{Column: "c_age", Op: query.Lt, Value: 60}},
			GroupBy: []string{"c_region", "o_channel"}},
		{Aggregate: query.Count, Tables: []string{"customer", "orders"},
			Disjunction: []query.Predicate{
				{Column: "c_age", Op: query.Lt, Value: 30},
				{Column: "o_channel", Op: query.Eq, Value: onlineCode(tabs)},
			},
			GroupBy: []string{"c_region"}},
	}
}

// TestGroupIterChunkSizeInvariance streams grouped queries at several
// chunk sizes (including chunk=1 and chunk far beyond the key count) and
// asserts every size yields the same rows, bit for bit and in the same
// order — the rows ExecuteQuery returns by draining the same pipeline in
// DefaultGroupChunk steps. What the rows must BE is pinned independently
// by TestGroupedRowsMatchUngroupedQueries.
func TestGroupIterChunkSizeInvariance(t *testing.T) {
	for _, joint := range []bool{false, true} {
		e, _, tabs := exactEnsemble(t, joint)
		queries := append(groupedClasses(tabs),
			// Ungrouped: the iterator must yield the single row.
			query.Query{Aggregate: query.Count, Tables: []string{"customer"}})
		for qi, q := range queries {
			p, err := e.Compile(q)
			if err != nil {
				t.Fatalf("joint=%v query %d: compile: %v", joint, qi, err)
			}
			want, err := p.ExecuteQuery(context.Background(), ExecOpts{}, q)
			if err != nil {
				t.Fatalf("joint=%v query %d: execute: %v", joint, qi, err)
			}
			for _, chunk := range []int{0, 1, 2, 3, 256, 1 << 20} {
				it, err := p.ExecuteGroupsIter(context.Background(), ExecOpts{}, q, chunk)
				if err != nil {
					t.Fatalf("joint=%v query %d chunk %d: iter: %v", joint, qi, chunk, err)
				}
				got := collectIter(t, it)
				if len(want.Groups) != len(got) {
					t.Fatalf("joint=%v query %d chunk %d: got %d rows, want %d",
						joint, qi, chunk, len(got), len(want.Groups))
				}
				assertGroupsIdentical(t, got, want.Groups)
			}
		}
	}
}

// sameRowBits reports whether a grouped row carries exactly the estimate
// and interval of an ungrouped single-row answer.
func sameRowBits(row, ungrouped AQPGroup) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return eq(row.Estimate.Value, ungrouped.Estimate.Value) &&
		eq(row.Estimate.Variance, ungrouped.Estimate.Variance) &&
		eq(row.CILow, ungrouped.CILow) && eq(row.CIHigh, ungrouped.CIHigh)
}

// ssbGroupedClasses are grouped SSB shapes for ssbEngine, whose joins are
// Theorem-2 combinations of single-table members, so the group columns are
// read by different sides: a two-column GROUP BY whose sides read disjoint
// group columns, SUM through the COUNT * AVG fallback, AVG, and
// disjunctions under COUNT and AVG. Each leads with a non-IN conjunct that
// no side's group column owns, which variantQuery rebinds.
func ssbGroupedClasses(t *testing.T) []query.Query {
	t.Helper()
	var out []query.Query
	for _, sql := range []string{
		"SELECT COUNT(*) FROM lineorder JOIN dates JOIN part WHERE lo_discount < 4 GROUP BY d_year, p_mfgr",
		"SELECT SUM(lo_revenue) FROM lineorder JOIN dates JOIN supplier WHERE lo_quantity < 30 GROUP BY s_region, d_year",
		"SELECT AVG(lo_revenue) FROM lineorder JOIN part WHERE lo_quantity < 25 GROUP BY p_mfgr",
		"SELECT COUNT(*) FROM lineorder JOIN dates JOIN part WHERE lo_discount < 6 AND (d_year = 1993 OR p_mfgr = 2) GROUP BY d_year, p_mfgr",
		"SELECT AVG(lo_revenue) FROM lineorder JOIN dates JOIN part WHERE lo_discount < 6 AND (d_year = 1993 OR p_mfgr = 2) GROUP BY d_year, p_mfgr",
	} {
		q, err := query.Parse(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		out = append(out, q)
	}
	return out
}

// variantQuery is q with its first conjunct's literal moved by one — a
// second binding of q's shape for a multi-binding ExecuteBatch — or q
// itself when it has no such conjunct.
func variantQuery(q query.Query) query.Query {
	if len(q.Filters) == 0 || q.Filters[0].Op == query.In {
		return q
	}
	q.Filters = append([]query.Predicate(nil), q.Filters...)
	q.Filters[0].Value++
	return q
}

// groupedOracle checks one grouped query's rows against the ungrouped
// oracle of TestGroupedRowsMatchUngroupedQueries and returns them, with
// how many candidate keys were gated out and how many rows differ from
// their neighbour's ungrouped answer.
func groupedOracle(t *testing.T, e *Engine, q query.Query, what string) (rows []AQPGroup, absent, distinguished int) {
	t.Helper()
	ctx := context.Background()
	p, err := e.Compile(q)
	if err != nil {
		t.Fatalf("%s: compile: %v", what, err)
	}
	res, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
	if err != nil {
		t.Fatalf("%s: execute: %v", what, err)
	}
	// ungrouped answers q's aggregate (or COUNT) for one key.
	ungrouped := func(agg query.AggType, key []float64) AQPGroup {
		t.Helper()
		uq := q
		uq.Aggregate, uq.GroupBy = agg, nil
		if agg == query.Count {
			uq.AggColumn = ""
		}
		uq.Filters = append([]query.Predicate(nil), q.Filters...)
		for i, c := range q.GroupBy {
			uq.Filters = append(uq.Filters, query.Predicate{Column: c, Op: query.Eq, Value: key[i]})
		}
		r, err := e.ExecuteContext(ctx, uq)
		if err != nil {
			t.Fatalf("%s key %v: ungrouped: %v", what, key, err)
		}
		return r.Groups[0]
	}
	rows = res.Groups
	var answers []AQPGroup // ungrouped answer per emitted row
	for ki := 0; ki < p.numGroups; ki++ {
		key := groupKeyAt(p.groupVals, ki, nil)
		if ungrouped(query.Count, key).Estimate.Value < 0.5 {
			absent++
			continue
		}
		if len(answers) == len(rows) {
			t.Fatalf("%s: live key %v was not emitted", what, key)
		}
		row := rows[len(answers)]
		for k := range key {
			sameBits(t, "key", row.Key[k], key[k])
		}
		want := ungrouped(q.Aggregate, key)
		if !sameRowBits(row, want) {
			t.Fatalf("%s key %v: grouped row %+v != ungrouped %+v", what, key, row, want)
		}
		answers = append(answers, want)
	}
	if len(answers) != len(rows) {
		t.Fatalf("%s: %d rows emitted, %d keys live", what, len(rows), len(answers))
	}
	for i := range rows {
		if !sameRowBits(rows[i], answers[(i+1)%len(answers)]) {
			distinguished++
		}
	}
	return rows, absent, distinguished
}

// TestGroupedRowsMatchUngroupedQueries is the grouped pipeline's
// independent oracle — the paper's "one estimate per group" (Section 4.2):
// every emitted group equals, bit for bit in estimate and interval, the
// separately compiled UNGROUPED query carrying that key's equality
// filters; every candidate key whose ungrouped COUNT is below 0.5 is
// absent; and nothing else is emitted. It runs on the exact figure
// fixtures and on SSB's Theorem-2 shapes, where keys share the calls of
// the sides that read only some group columns, and it holds the same rows
// through the streaming iterator at several chunk sizes and through a
// multi-binding ExecuteBatch whose second binding differs in a literal.
// The must-fail twin checks the comparison can tell rows apart: some live
// key's ungrouped answer must differ from another key's row.
func TestGroupedRowsMatchUngroupedQueries(t *testing.T) {
	ctx := context.Background()
	absent, distinguished := 0, 0
	exact, _, tabs := exactEnsemble(t, true)
	single, _, _ := exactEnsemble(t, false)
	for name, c := range map[string]struct {
		e       *Engine
		classes []query.Query
	}{
		"joint":  {exact, groupedClasses(tabs)},
		"single": {single, groupedClasses(tabs)},
		"ssb":    {ssbEngine(t), ssbGroupedClasses(t)},
	} {
		for qi, q := range c.classes {
			what := fmt.Sprintf("%s query %d", name, qi)
			rows, a, d := groupedOracle(t, c.e, q, what)
			v := variantQuery(q)
			vrows, va, vd := groupedOracle(t, c.e, v, what+" variant")
			absent, distinguished = absent+a+va, distinguished+d+vd
			p, err := c.e.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 2, 3, 256} {
				it, err := p.ExecuteGroupsIter(ctx, ExecOpts{}, q, chunk)
				if err != nil {
					t.Fatalf("%s chunk %d: %v", what, chunk, err)
				}
				if got := collectIter(t, it); !sameGroups(got, rows) {
					t.Fatalf("%s chunk %d: streamed %+v, oracle-checked %+v", what, chunk, got, rows)
				}
			}
			batch, err := p.ExecuteBatch(ctx, ExecOpts{}, []query.Query{q, v, q})
			if err != nil {
				t.Fatalf("%s: batch: %v", what, err)
			}
			for i, want := range [][]AQPGroup{rows, vrows, rows} {
				if !sameGroups(batch[i].Groups, want) {
					t.Fatalf("%s: batch entry %d %+v, oracle-checked %+v", what, i, batch[i].Groups, want)
				}
			}
		}
	}
	if absent == 0 {
		t.Fatal("no candidate key was gated out: the absence check never ran")
	}
	if distinguished == 0 {
		t.Fatal("every row equals its neighbour's ungrouped answer: the comparison cannot fail")
	}
}

// TestDroppedKeyColumnIsVisible is the must-fail twin of the memo: a call
// that forgets one group column it reads shares its estimator across keys
// that differ in that column, and the grouped rows must then differ from
// the oracle-checked ones for some key.
func TestDroppedKeyColumnIsVisible(t *testing.T) {
	ctx := context.Background()
	e := ssbEngine(t)
	q := ssbGroupedClasses(t)[0] // dates reads d_year, part reads p_mfgr
	want, _, _ := groupedOracle(t, e, q, "two-column")
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ensureExec(); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	visitCalls(p.count, p.sum, p.avg, func(_ *rspn.RSPN, _ []int, k *keyReads) {
		if len(k.cols) > 0 {
			k.cols = k.cols[1:]
			dropped++
		}
	})
	if dropped == 0 {
		t.Fatal("no call reads a group column: nothing to drop")
	}
	res, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if sameGroups(res.Groups, want) {
		t.Fatal("dropping a group column from every call's projection changed no row: the oracle cannot see a wrong projection")
	}
}

// TestGroupedKeysAscend: every grouped fixture emits its rows in strictly
// ascending lexicographic key order, from ExecuteQuery and from the
// iterator at chunk sizes that split the key space — the order the
// executor relies on instead of sorting.
func TestGroupedKeysAscend(t *testing.T) {
	ctx := context.Background()
	ascending := func(rows []AQPGroup) bool {
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1].Key, rows[i].Key
			k := 0
			for k < len(a) && a[k] == b[k] {
				k++
			}
			if k == len(a) || !(a[k] < b[k]) {
				return false
			}
		}
		return true
	}
	_, _, tabs := exactEnsemble(t, true)
	multi := 0
	for e, cases := range pruneCases(t) {
		var qs []query.Query
		for _, c := range cases {
			q, err := query.Parse(c.sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		if len(cases) > 0 && strings.HasPrefix(cases[0].name, "ssb") {
			qs = append(qs, ssbGroupedClasses(t)...)
		} else {
			qs = append(qs, groupedClasses(tabs)...)
		}
		for qi, q := range qs {
			p, err := e.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
			if err != nil {
				t.Fatal(err)
			}
			if !ascending(res.Groups) {
				t.Fatalf("query %d (%s): keys not strictly ascending: %+v", qi, q.String(), res.Groups)
			}
			if len(res.Groups) > 1 {
				multi++
			}
			for _, chunk := range []int{1, 3} {
				it, err := p.ExecuteGroupsIter(ctx, ExecOpts{}, q, chunk)
				if err != nil {
					t.Fatal(err)
				}
				if rows := collectIter(t, it); !ascending(rows) {
					t.Fatalf("query %d (%s) chunk %d: keys not strictly ascending: %+v", qi, q.String(), chunk, rows)
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no fixture emitted two rows: the order was never checked")
	}
}

// TestGroupIterConfidenceLevel asserts the iterator honors the execution
// confidence level the same way ExecuteQuery does.
func TestGroupIterConfidenceLevel(t *testing.T) {
	e, _, _ := exactEnsemble(t, true)
	q := query.Query{Aggregate: query.Avg, AggColumn: "c_age",
		Tables: []string{"customer"}, GroupBy: []string{"c_region"}}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOpts{ConfidenceLevel: 0.8}
	want, err := p.ExecuteQuery(context.Background(), opts, q)
	if err != nil {
		t.Fatal(err)
	}
	it, err := p.ExecuteGroupsIter(context.Background(), opts, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertGroupsIdentical(t, collectIter(t, it), want.Groups)
}

// TestGroupIterCancel asserts a canceled context surfaces through Err.
func TestGroupIterCancel(t *testing.T) {
	e, _, _ := exactEnsemble(t, true)
	q := query.Query{Aggregate: query.Count, Tables: []string{"customer"}, GroupBy: []string{"c_region"}}
	p, err := e.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it, err := p.ExecuteGroupsIter(ctx, ExecOpts{}, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("expected context error from canceled iterator")
	}
}
