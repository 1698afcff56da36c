package core

// prune_test.go pins the per-binding key space (keySpace): gating only the
// group keys a query's own conjuncts admit must answer, bit for bit, what
// gating the plan's whole candidate set answers.

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
)

// runKeys drains the grouped pipeline for q over the key space ks, chunk
// keys at a time. With the plan's superset it is the pipeline as it ran
// before keys were pruned.
func runKeys(t *testing.T, p *Plan, q query.Query, ks keySpace, chunk int) []AQPGroup {
	t.Helper()
	var out []AQPGroup
	m := newKeyMemo(len(p.groupCols))
	for lo := 0; lo < ks.n; lo += chunk {
		rows, err := p.executeGroupChunk(context.Background(), []query.Query{q}, []keySpace{ks}, m, p.level(ExecOpts{}), lo, min(lo+chunk, ks.n))
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		out = append(out, rows[0]...)
	}
	return out
}

// superset is the plan's compile-time key space.
func superset(p *Plan) keySpace { return keySpace{vals: p.groupVals, n: p.numGroups} }

// sameGroups reports whether two row sets are bitwise identical, keys,
// estimates and intervals included.
func sameGroups(a, b []AQPGroup) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) {
			return false
		}
		for k := range a[i].Key {
			if !eq(a[i].Key[k], b[i].Key[k]) {
				return false
			}
		}
		if !sameRowBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ssbEngine learns a small SSB ensemble: approximate leaves, joins, and
// FD-dependent group columns (s_region is answered through s_nation).
func ssbEngine(t *testing.T) *Engine {
	t.Helper()
	s, tabs := datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.001, Seed: 1})
	cfg := ensemble.DefaultConfig()
	cfg.MaxSamples = 3000
	ens, err := ensemble.Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(ens)
}

type pruneCase struct {
	name   string
	sql    string
	prunes bool // the query's own conjuncts rule out some candidate key
}

func pruneCases(t *testing.T) map[*Engine][]pruneCase {
	t.Helper()
	exact, _, _ := exactEnsemble(t, true)
	single, _, _ := exactEnsemble(t, false)
	figure := []pruneCase{
		{"eq", "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age = 50 GROUP BY c_age", true},
		{"in", "SELECT SUM(c_age) FROM customer WHERE c_age IN (20, 80) GROUP BY c_age", true},
		{"gt-exclusive", "SELECT AVG(c_age) FROM customer JOIN orders WHERE c_age > 20 GROUP BY c_age", true},
		{"ge-inclusive", "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age >= 50 GROUP BY c_age, o_channel", true},
		{"lt-le-pair", "SELECT COUNT(*) FROM customer WHERE c_age < 80 AND c_age <= 50 GROUP BY c_region, c_age", true},
		{"ne", "SELECT SUM(c_age) FROM customer JOIN orders WHERE c_age <> 50 GROUP BY c_age", true},
		{"contradictory", "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age > 50 AND c_age < 50 GROUP BY c_age", true},
		{"admits-all", "SELECT COUNT(*) FROM customer JOIN orders WHERE c_age >= 20 GROUP BY c_age", false},
		{"disjunct-on-group-column", "SELECT COUNT(*) FROM customer JOIN orders WHERE (c_age = 20 OR o_channel = 0) GROUP BY c_age", false},
	}
	ssb := []pruneCase{
		{"ssb-range", "SELECT SUM(lo_revenue) FROM lineorder JOIN dates WHERE d_year >= 1994 AND d_year < 1997 AND lo_discount <= 5 GROUP BY d_year", true},
		{"ssb-two-columns", "SELECT AVG(lo_revenue) FROM lineorder JOIN dates WHERE d_year = 1995 AND lo_discount > 3 GROUP BY d_year, lo_discount", true},
		{"ssb-fd-dependent", "SELECT COUNT(*) FROM lineorder JOIN supplier WHERE s_region IN (1, 3) AND lo_quantity < 30 GROUP BY s_region", true},
		{"ssb-disjunct", "SELECT COUNT(*) FROM lineorder JOIN dates WHERE (d_year = 1993 OR lo_discount < 2) GROUP BY d_year", false},
	}
	return map[*Engine][]pruneCase{exact: figure, single: figure, ssbEngine(t): ssb}
}

// TestPrunedKeysMatchUnpruned: for filters on group columns of every kind
// — Eq, IN, exclusive and inclusive bounds, Ne, a contradictory pair — the
// pruned execution (ExecuteQuery, and the streaming iterator at several
// chunk sizes) answers exactly what gating every candidate answers. A
// disjunct never prunes, and a query without a conjunct on a group column
// shares the plan's key space without allocating.
func TestPrunedKeysMatchUnpruned(t *testing.T) {
	ctx := context.Background()
	pruned := 0
	for e, cases := range pruneCases(t) {
		for _, c := range cases {
			q, err := query.Parse(c.sql, nil)
			if err != nil {
				t.Fatalf("%s: parse: %v", c.name, err)
			}
			p, err := e.Compile(q)
			if err != nil {
				t.Fatalf("%s: compile: %v", c.name, err)
			}
			if err := p.ensureExec(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ks := p.keySpace(q)
			if got := ks.n < p.numGroups; got != c.prunes {
				t.Fatalf("%s: %d of %d candidate keys kept, pruning expected %v", c.name, ks.n, p.numGroups, c.prunes)
			}
			if c.prunes {
				pruned++
			}
			conjunct := false
			for _, f := range q.Filters {
				for _, col := range q.GroupBy {
					conjunct = conjunct || f.Column == col
				}
			}
			if !conjunct {
				if allocs := testing.AllocsPerRun(10, func() { p.keySpace(q) }); allocs != 0 {
					t.Fatalf("%s: without a conjunct on a group column the key space allocates %v times", c.name, allocs)
				}
			}
			want := runKeys(t, p, q, superset(p), DefaultGroupChunk)
			res, err := p.ExecuteQuery(ctx, ExecOpts{}, q)
			if err != nil {
				t.Fatalf("%s: execute: %v", c.name, err)
			}
			if !sameGroups(res.Groups, want) {
				t.Fatalf("%s: pruned rows %+v, unpruned %+v", c.name, res.Groups, want)
			}
			for _, chunk := range []int{1, 2, 3, 256} {
				it, err := p.ExecuteGroupsIter(ctx, ExecOpts{}, q, chunk)
				if err != nil {
					t.Fatalf("%s chunk %d: %v", c.name, chunk, err)
				}
				if got := collectIter(t, it); !sameGroups(got, want) {
					t.Fatalf("%s chunk %d: streamed %+v, unpruned %+v", c.name, chunk, got, want)
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no case pruned a key: the comparison never ran on a pruned key space")
	}
}

// TestExecuteBatchPrunesPerBinding: one batch whose bindings admit
// different key spaces (3, 2, 1 and 0 ages) answers each binding as the
// unpruned pipeline does.
func TestExecuteBatchPrunesPerBinding(t *testing.T) {
	e, _, _ := exactEnsemble(t, true)
	template := query.Query{Aggregate: query.Sum, AggColumn: "c_age", Tables: []string{"customer", "orders"},
		Filters: []query.Predicate{{Column: "c_age", Op: query.Ge, Param: 1}},
		GroupBy: []string{"c_region", "c_age"}}
	p, err := e.Compile(template)
	if err != nil {
		t.Fatal(err)
	}
	var queries []query.Query
	sizes := map[int]bool{}
	for _, v := range []float64{20, 50, 80, 81} {
		q, err := template.Bind(v)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	res, err := p.ExecuteBatch(context.Background(), ExecOpts{}, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		sizes[p.keySpace(q).n] = true
		if want := runKeys(t, p, q, superset(p), DefaultGroupChunk); !sameGroups(res[i].Groups, want) {
			t.Fatalf("binding %d: batched %+v, unpruned %+v", i, res[i].Groups, want)
		}
	}
	if len(sizes) != len(queries) {
		t.Fatalf("key space sizes %v: the bindings do not differ", sizes)
	}
}

// TestPrunerBoundsAreVisible is the must-fail twin: a pruner that swaps
// inclusive and exclusive bounds changes some result, so the comparisons
// above can see a pruner that drops a key its filters admit. (Admitting a
// key the filters rule out is harmless by construction: its gate is 0.)
func TestPrunerBoundsAreVisible(t *testing.T) {
	flipped := func(p *Plan, q query.Query) keySpace {
		ks := keySpace{vals: append([][]float64(nil), p.groupVals...)}
		for ci, col := range p.groupCols {
			for _, f := range q.Filters {
				if f.Column != col {
					continue
				}
				ranges := rspn.PredicateRanges(f)
				for i := range ranges {
					ranges[i].LoIncl, ranges[i].HiIncl = !ranges[i].LoIncl, !ranges[i].HiIncl
				}
				var kept []float64
				for _, v := range ks.vals[ci] {
					if len(rspn.IntersectRanges([]spn.Range{spn.PointRange(v)}, ranges)) > 0 {
						kept = append(kept, v)
					}
				}
				ks.vals[ci] = kept
			}
		}
		ks.n = 1
		for _, vals := range ks.vals {
			ks.n *= len(vals)
		}
		return ks
	}
	changed := 0
	for e, cases := range pruneCases(t) {
		for _, c := range cases {
			q, err := query.Parse(c.sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ensureExec(); err != nil {
				t.Fatal(err)
			}
			if !sameGroups(runKeys(t, p, q, flipped(p, q), DefaultGroupChunk), runKeys(t, p, q, superset(p), DefaultGroupChunk)) {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("swapping bound inclusivity changed no result: the pruning comparisons cannot fail")
	}
}
