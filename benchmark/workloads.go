package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/exact"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/table"
	"repro/internal/workload"
)

// spec is one benchmark workload: which model is served with which flags
// and what traffic it receives. The names and the `why` lines are repeated
// in BENCHMARK.json.
type spec struct {
	name     string
	data     string // "imdb" or "ssb"
	endpoint string // "/estimate" or "/query"
	// resultCache is passed as -result-cache (0 keeps the default: off).
	resultCache int
	// hot draws requests Zipf(1.1) from a small fixed set; otherwise each
	// connection walks its own permutation of a large distinct set.
	hot bool
	// writes adds -data/-wal, the open-loop writer on connection 2, the
	// write burst and the crash-recovery check.
	writes bool
}

var specs = []spec{
	{name: "card_adhoc", data: "imdb", endpoint: "/estimate"},
	{name: "card_hot", data: "imdb", endpoint: "/estimate", resultCache: 4096, hot: true},
	{name: "aqp_groupby", data: "ssb", endpoint: "/query"},
	{name: "mixed_rw", data: "imdb", endpoint: "/estimate", resultCache: 4096, hot: true, writes: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes fixes how much data and how many distinct requests a run uses. The
// benchmark always runs at benchSizes; only the smoke test shrinks them.
type sizes struct {
	titles       int     // IMDb scale (datagen.IMDbConfig.Titles)
	ssbSF        float64 // SSB scale factor
	adhocQueries int     // synthetic COUNT queries generated for card_adhoc
	hotShapes    int     // query shapes of the hot mix
	hotBindings  int     // literal bindings per hot shape
	ssbVariants  int     // literal variants per SSB template
	writeRate    int     // open-loop writer, rows per second
	setupReps    int     // set-ups per untraced run; setup_s is their median
	traceSample  int     // requests replayed through the staircase
	traceAQP     int     // ... for aqp_groupby, whose requests cost milliseconds
}

var benchSizes = sizes{
	titles: 10000, ssbSF: 0.02, adhocQueries: 2200, hotShapes: 16, hotBindings: 64,
	ssbVariants: 16, writeRate: 1000, setupReps: 3, traceSample: 2000, traceAQP: 200,
}

// oracleCrossChecks is how many oracle answers each run cross-checks
// against internal/exact.
const oracleCrossChecks = 4

// dataSeed generates the tables and shapeSeed picks the hot query shapes.
// They are constants: the data set, the model learned from it and the
// application's hot plans are the fixed system under test (like a TPC scale
// factor); --seed varies the traffic sent to it.
const (
	dataSeed  = 1
	shapeSeed = 1
)

type dataset struct {
	schema *schema.Schema
	tabs   map[string]*table.Table
}

// genDataset generates fresh base tables. LearnDataset appends synthetic
// __fk_* tuple-factor columns to the tables it is handed, so every learn
// gets its own freshly generated copy and CSVs are written before learning.
func genDataset(kind string, sz sizes) dataset {
	if kind == "ssb" {
		s, t := datagen.SSB(datagen.SSBConfig{ScaleFactor: sz.ssbSF, Seed: dataSeed})
		return dataset{s, t}
	}
	s, t := datagen.IMDb(datagen.IMDbConfig{Titles: sz.titles, Seed: dataSeed})
	return dataset{s, t}
}

// writeCSVs writes one <table>.csv per table for `deepdb serve -data`.
func writeCSVs(ds dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, t := range ds.tabs {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// request is one distinct read request of a workload.
type request struct {
	q   query.Query
	sql string
	raw []byte // the complete HTTP request
	// want is the in-process facade's answer on the freshly learned model;
	// the server must return it bit for bit.
	want answer
	// truth is the exact answer (validated requests only).
	truth []query.Group
	// class groups requests of similar cost (the SSB template, from 1); 0
	// when the workload's requests are all of a kind.
	class int
}

// answer is what the harness compares of a served or in-process result.
type answer struct {
	est    estimate            // /estimate
	groups map[string]groupRow // /query, by group key
}

func keyString(key []float64) string {
	b := make([]byte, 0, 16*len(key))
	for _, k := range key {
		b = strconv.AppendFloat(b, k, 'g', -1, 64)
		b = append(b, '|')
	}
	return string(b)
}

// buildRequests generates from the seed the workload's distinct read
// requests and the requests whose served answers are validated against the
// exact truth. For card_adhoc the two are the same set; the hot mixes are
// validated on the broad card_adhoc population instead of their own 16
// shapes (whose q-error says more about the seed than about the model), and
// aqp_groupby on the paper's literals.
func buildRequests(sp spec, ds dataset, sz sizes, seed int64) (reqs, validated []request, err error) {
	render := func(qs []query.Query, class func(i int) int) ([]request, error) {
		out := make([]request, len(qs))
		for i, q := range qs {
			sql, err := renderSQL(q)
			if err != nil {
				return nil, err
			}
			out[i] = request{q: q, sql: sql, raw: sqlRequest(sp.endpoint, sql), class: class(i)}
		}
		return out, nil
	}
	noClass := func(int) int { return 0 }
	switch {
	case sp.data == "ssb":
		qs := ssbQueries(ds, sz, seed)
		if reqs, err = render(qs, func(i int) int { return 1 + i/sz.ssbVariants }); err != nil {
			return nil, nil, err
		}
		for i := 0; i < len(reqs); i += sz.ssbVariants {
			validated = append(validated, reqs[i]) // variant 0: the paper's literals
		}
	case sp.hot:
		qs, err := hotQueries(ds, sz, seed)
		if err != nil {
			return nil, nil, err
		}
		if reqs, err = render(qs, noClass); err != nil {
			return nil, nil, err
		}
		if validated, err = render(adhocQueries(ds, sz, seed), noClass); err != nil {
			return nil, nil, err
		}
	default:
		if reqs, err = render(adhocQueries(ds, sz, seed), noClass); err != nil {
			return nil, nil, err
		}
		validated = reqs
	}
	return reqs, validated, nil
}

// adhocQueries is the optimizer-facing mix: synthetic 2..5-table star joins
// plus the JOB-light set, distinct by SQL text. Almost every query has its
// own shape, so the plan cache (128 shapes) is of no use.
func adhocQueries(ds dataset, sz sizes, seed int64) []query.Query {
	named := workload.SyntheticIMDb(ds.tabs, sz.adhocQueries, 2, 5, seed)
	named = append(named, workload.JOBLight(ds.tabs, seed+1)...)
	seen := map[string]bool{}
	var out []query.Query
	for _, n := range named {
		if k := n.Query.String(); !seen[k] {
			seen[k] = true
			out = append(out, n.Query)
		}
	}
	return out
}

// hotShapes picks the query shapes of the re-costing mix. Like the data,
// they are fixed (shapeSeed), not drawn from --seed: they stand for an
// application's hot plans, and what a request costs when a cache misses
// depends on its shape, so shapes drawn per seed would make mixed_rw measure
// the seed. They are spread evenly over the join sizes (2..5 tables). A
// shape qualifies when its columns have enough distinct values to yield
// twice the bindings any seed will ask of it.
func hotShapes(ds dataset, sz sizes) ([]query.Query, error) {
	rng := rand.New(rand.NewSource(shapeSeed))
	var out []query.Query
	seen := map[string]bool{}
	perSize := map[int]int{}
	quota := (sz.hotShapes + 3) / 4
	for _, c := range workload.SyntheticIMDb(ds.tabs, 64*sz.hotShapes, 2, 5, shapeSeed) {
		q := c.Query
		if len(out) == sz.hotShapes {
			break
		}
		if seen[q.ShapeKey()] || perSize[len(q.Tables)] == quota || len(bindings(rng, ds, q, 2*sz.hotBindings)) < 2*sz.hotBindings {
			continue
		}
		seen[q.ShapeKey()] = true
		perSize[len(q.Tables)]++
		out = append(out, q)
	}
	if len(out) < sz.hotShapes {
		return nil, fmt.Errorf("hot mix: only %d of %d shapes have %d distinct bindings", len(out), sz.hotShapes, 2*sz.hotBindings)
	}
	return out, nil
}

// bindings re-binds q's literals until it has n distinct bindings (fewer
// when the columns do not hold that many), in a reproducible order.
func bindings(rng *rand.Rand, ds dataset, q query.Query, n int) []query.Query {
	bound := map[string]query.Query{}
	for try := 0; try < 50*n && len(bound) < n; try++ {
		b := rebind(rng, ds, q, true)
		bound[b.String()] = b
	}
	out := make([]query.Query, 0, len(bound))
	for _, k := range sortedKeys(bound) {
		out = append(out, bound[k])
	}
	return out
}

// hotQueries is the re-costing mix: the hot shapes, each bound to
// hotBindings distinct literal sets drawn from the seed. The whole set fits
// the plan cache and a 4096-entry result cache.
func hotQueries(ds dataset, sz sizes, seed int64) ([]query.Query, error) {
	shapes, err := hotShapes(ds, sz)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []query.Query
	for _, q := range shapes {
		b := bindings(rng, ds, q, sz.hotBindings)
		if len(b) < sz.hotBindings {
			return nil, fmt.Errorf("hot mix: seed %d found only %d of %d bindings for %v", seed, len(b), sz.hotBindings, q)
		}
		out = append(out, b...)
	}
	return out, nil
}

// ssbQueries is the analyst mix: the 13 SSB templates, each with the
// paper's literals (variant 0) followed by ssbVariants-1 seeded re-bindings
// of its equality and IN literals.
func ssbQueries(ds dataset, sz sizes, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []query.Query
	for _, tmpl := range workload.SSBQueries() {
		qs = append(qs, tmpl.Query)
		for v := 1; v < sz.ssbVariants; v++ {
			qs = append(qs, rebind(rng, ds, tmpl.Query, false))
		}
	}
	return qs
}

// rebind returns q with its literals redrawn from rows of the data, the way
// internal/workload anchors constants, so re-bound queries are rarely
// empty. Range literals are redrawn only when ranges is set: the SSB
// templates pair range predicates into BETWEENs that independent draws
// would turn into empty intervals.
func rebind(rng *rand.Rand, ds dataset, q query.Query, ranges bool) query.Query {
	out := q
	out.Filters = append([]query.Predicate(nil), q.Filters...)
	for i, p := range out.Filters {
		owner := ownerOf(ds.schema, q.Tables, p.Column)
		if owner == "" {
			continue
		}
		t := ds.tabs[owner]
		col := t.Column(p.Column)
		draw := func() float64 {
			for try := 0; try < 20; try++ {
				if r := rng.Intn(t.NumRows()); !col.IsNull(r) {
					return col.Data[r]
				}
			}
			return p.Value
		}
		switch {
		case p.Op == query.In:
			seen := map[float64]bool{}
			var vals []float64
			for try := 0; try < 20*len(p.Values) && len(vals) < len(p.Values); try++ {
				if v := draw(); !seen[v] {
					seen[v] = true
					vals = append(vals, v)
				}
			}
			out.Filters[i].Values = vals
		case p.Op == query.Eq || ranges:
			out.Filters[i].Value = draw()
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// computeTruth fills in the exact answers of the validated requests: the
// star oracle for IMDb counts (cross-checked against internal/exact on the
// queries with the fewest tables, since exact materializes the join),
// internal/exact itself for SSB.
func computeTruth(sp spec, ds dataset, validated []request) error {
	ex := exact.New(ds.schema, ds.tabs)
	if sp.data == "ssb" {
		for i := range validated {
			res, err := ex.Execute(validated[i].q)
			if err != nil {
				return fmt.Errorf("exact %s: %w", validated[i].sql, err)
			}
			validated[i].truth = res.Groups
		}
		return nil
	}
	o, err := newStarOracle(ds.schema, ds.tabs, "title")
	if err != nil {
		return err
	}
	for i := range validated {
		n, err := o.count(validated[i].q)
		if err != nil {
			return err
		}
		validated[i].truth = []query.Group{{Value: n}}
	}
	checked := 0
	for nt := 2; nt <= 6 && checked < oracleCrossChecks; nt++ {
		for _, r := range validated {
			if len(r.q.Tables) != nt || checked >= oracleCrossChecks {
				continue
			}
			res, err := ex.Execute(r.q)
			if err != nil {
				return fmt.Errorf("exact %s: %w", r.sql, err)
			}
			if got, want := r.truth[0].Value, res.Scalar(); got != want {
				return fmt.Errorf("star oracle disagrees with internal/exact on %s: %v vs %v", r.sql, got, want)
			}
			checked++
		}
	}
	return nil
}

// qerrors returns the q-error of every validated answer: one per request
// for cardinalities, one per group key for grouped queries. A group that is
// missing from, or extra in, the served answer is compared against 0, which
// query.QError clamps to one tuple — so it costs max(other side, 1).
func qerrors(validated []request, served []answer) []float64 {
	var out []float64
	for i, r := range validated {
		got := served[i]
		if got.groups == nil {
			out = append(out, query.QError(got.est.Value, r.truth[0].Value))
			continue
		}
		seen := map[string]bool{}
		for _, g := range r.truth {
			k := keyString(g.Key)
			seen[k] = true
			out = append(out, query.QError(got.groups[k].Value, g.Value))
		}
		for _, k := range sortedKeys(got.groups) {
			if !seen[k] {
				out = append(out, query.QError(got.groups[k].Value, 0))
			}
		}
	}
	return out
}

// stream picks the next request of one connection.
type stream interface{ next() int }

// permStream walks a fixed permutation of the requests round and round, so
// every distinct request is sent equally often. Requests with a class are
// dealt in rounds of one request per class (the classes in seeded order, the
// member of each class in its own seeded order): SSB templates differ in
// cost by 500x, and a plain permutation would put three of the most
// expensive in one second and none in the next.
type permStream struct {
	perm []int
	i    int
}

func newPermStream(reqs []request, seed int64) *permStream {
	rng := rand.New(rand.NewSource(seed))
	if len(reqs) == 0 || reqs[0].class == 0 {
		return &permStream{perm: rng.Perm(len(reqs))}
	}
	var classes [][]int
	for i, r := range reqs {
		for len(classes) < r.class {
			classes = append(classes, nil)
		}
		classes[r.class-1] = append(classes[r.class-1], i)
	}
	p := &permStream{}
	for _, members := range classes {
		rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
	}
	for round := 0; len(p.perm) < len(reqs); round++ {
		for _, c := range rng.Perm(len(classes)) {
			if round < len(classes[c]) {
				p.perm = append(p.perm, classes[c][round])
			}
		}
	}
	return p
}

func (p *permStream) next() int {
	v := p.perm[p.i]
	p.i = (p.i + 1) % len(p.perm)
	return v
}

// zipfStream draws from n requests with Zipf(1.1) popularity; which request
// holds which rank is itself seeded.
type zipfStream struct {
	z    *rand.Zipf
	rank []int
}

func newZipfStream(n int, rankSeed, drawSeed int64) *zipfStream {
	return &zipfStream{
		z:    rand.NewZipf(rand.New(rand.NewSource(drawSeed)), 1.1, 1, uint64(n-1)),
		rank: rand.New(rand.NewSource(rankSeed)).Perm(n),
	}
}

func (z *zipfStream) next() int { return z.rank[z.z.Uint64()] }

func newStream(sp spec, reqs []request, seed int64, connIdx int) stream {
	if sp.hot {
		return newZipfStream(len(reqs), seed, seed*1000+int64(connIdx)+1)
	}
	return newPermStream(reqs, seed*1000+int64(connIdx)+1)
}
