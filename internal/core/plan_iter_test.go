package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/query"
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

// TestGroupedRowsMatchUngroupedQueries is the grouped pipeline's
// independent oracle — the paper's "one estimate per group" (Section 4.2):
// every emitted group equals, bit for bit in estimate and interval, the
// separately compiled UNGROUPED query carrying that key's equality
// filters; every candidate key whose ungrouped COUNT is below 0.5 is
// absent; and nothing else is emitted. The must-fail twin checks the
// comparison can tell rows apart: some live key's ungrouped answer must
// differ from another key's row.
func TestGroupedRowsMatchUngroupedQueries(t *testing.T) {
	ctx := context.Background()
	absent, distinguished := 0, 0
	for _, joint := range []bool{false, true} {
		e, _, tabs := exactEnsemble(t, joint)
		for qi, q := range groupedClasses(tabs) {
			p, err := e.Compile(q)
			if err != nil {
				t.Fatalf("joint=%v query %d: compile: %v", joint, qi, err)
			}
			res, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
			if err != nil {
				t.Fatalf("joint=%v query %d: execute: %v", joint, qi, err)
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
					t.Fatalf("joint=%v query %d key %v: ungrouped: %v", joint, qi, key, err)
				}
				return r.Groups[0]
			}
			rows := res.Groups
			var answers []AQPGroup // ungrouped answer per emitted row
			for ki := 0; ki < p.numGroups; ki++ {
				key := groupKeyAt(p.groupVals, ki, nil)
				if ungrouped(query.Count, key).Estimate.Value < 0.5 {
					absent++
					continue
				}
				if len(answers) == len(rows) {
					t.Fatalf("joint=%v query %d: live key %v was not emitted", joint, qi, key)
				}
				row := rows[len(answers)]
				for k := range key {
					sameBits(t, "key", row.Key[k], key[k])
				}
				want := ungrouped(q.Aggregate, key)
				if !sameRowBits(row, want) {
					t.Fatalf("joint=%v query %d key %v: grouped row %+v != ungrouped %+v", joint, qi, key, row, want)
				}
				answers = append(answers, want)
			}
			if len(answers) != len(rows) {
				t.Fatalf("joint=%v query %d: %d rows emitted, %d keys live", joint, qi, len(rows), len(answers))
			}
			for i := range rows {
				if !sameRowBits(rows[i], answers[(i+1)%len(answers)]) {
					distinguished++
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
