package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/deepdb"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/rspn"
	"repro/internal/spn"
	"repro/internal/stats"
)

// span is one timed call into a layer. The program has no tracing of its
// own yet, so spans are recorded around the layers' public entry points
// from outside: each request of the traced sample is taken down a
// staircase — the client round trip, then the facade call, then parse,
// compile and execute on their own, then one request build and one batch
// evaluation per consulted RSPN — and every step is a separate invocation
// with its own span. Parent names the layer whose span would contain this
// one if the call were traced from inside; OnPath says whether the served
// request actually took the step (a plan-cache hit skips compile, a
// result-cache hit skips execute and everything under it). A layer's self
// time is its span minus its on-path children.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the start of the replay
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Request int    `json:"request_id"`
	OnPath  bool   `json:"on_path"`
}

// traceResult holds the spans and the per-layer numbers derived from them.
type traceResult struct {
	spans []span
	n     int // requests replayed
	nSPN  int // RSPN consultations timed under them

	overheadP50, overheadP99 float64
	callP50, callP99         float64
	callSelfP50              float64
	allocsPerCall            float64
	bytesPerCall             float64
	parseP50, compileP50     float64
	executeP50, executeP99   float64
	executeSelfP50           float64
	groupsMean, rspnsMean    float64
	buildP50, evalP50        float64
	nodesMean                float64
	overheadRatio            float64
	apply1us, apply256us     float64
}

// replay takes the sampled requests (idx into reqs, with the round trip
// each took over HTTP) down the in-process staircase.
func replay(ctx context.Context, sp spec, model string, ref *deepdb.DB, reqs []request, idx []int, rtts []time.Duration) (*traceResult, error) {
	ens, err := ensemble.LoadFile(model, nil)
	if err != nil {
		return nil, err
	}
	eng := core.New(ens) // the facade's defaults: RDC-greedy, 95% intervals
	tr := &traceResult{n: len(idx)}
	epoch := time.Now()
	call := func(sql string) error {
		if sp.endpoint == "/estimate" {
			_, err := ref.EstimateCardinality(ctx, sql)
			return err
		}
		_, err := ref.Query(ctx, sql)
		return err
	}
	// timed runs f and, when name is set, records its span.
	timed := func(name, parent string, req int, onPath bool, f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if name != "" {
			tr.spans = append(tr.spans, span{name, t0.Sub(epoch).Nanoseconds(), t1.Sub(epoch).Nanoseconds(), parent, req, onPath})
		}
		return t1.Sub(t0), err
	}

	// Untraced pass: the facade call alone, with allocation counts.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := make([]float64, len(idx))
	for k, i := range idx {
		d, err := timed("", "", k, true, func() error { return call(reqs[i].sql) })
		if err != nil {
			return nil, err
		}
		plain[k] = micros(d)
	}
	runtime.ReadMemStats(&m1)
	tr.allocsPerCall = per(float64(m1.Mallocs-m0.Mallocs), float64(len(idx)))
	tr.bytesPerCall = per(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(idx)))

	var overhead, traced, callSelf, parse, compile, execute, executeSelf, build, eval []float64
	var groups, rspns, nodes float64
	for k, i := range idx {
		sql := reqs[i].sql
		tr.spans = append(tr.spans, span{"client.rtt", 0, rtts[k].Nanoseconds(), "", k, true})
		overhead = append(overhead, micros(rtts[k])-plain[k])

		before := ref.UpdateStats()
		dCall, err := timed("deepdb.call", "client.rtt", k, true, func() error { return call(sql) })
		if err != nil {
			return nil, err
		}
		after := ref.UpdateStats()
		compiled := after.PlanCacheMisses > before.PlanCacheMisses
		executed := after.ResultCacheHits == before.ResultCacheHits
		traced = append(traced, micros(dCall))

		var q query.Query
		dParse, err := timed("query.parse", "deepdb.call", k, true, func() (err error) { q, err = ref.Parse(sql); return })
		if err != nil {
			return nil, err
		}
		var plan *core.Plan
		dCompile, err := timed("core.compile", "deepdb.call", k, compiled, func() (err error) {
			if plan, err = eng.Compile(q); err == nil && sp.endpoint == "/query" {
				err = plan.ExecErr() // the facade caches plans with their execute side built
			}
			return
		})
		if err != nil {
			return nil, err
		}
		ngroups := 1
		dExec, err := timed("core.execute", "deepdb.call", k, executed, func() error {
			if sp.endpoint == "/estimate" {
				_, err := plan.EstimateCardinalityQuery(ctx, q)
				return err
			}
			r, err := plan.ExecuteQuery(ctx, core.ExecOpts{}, q)
			ngroups = max(1, len(r.Groups))
			return err
		})
		if err != nil {
			return nil, err
		}
		self := dCall - dParse
		if compiled {
			self -= dCompile
		}
		if executed {
			self -= dExec
		}
		callSelf = append(callSelf, micros(max(self, 0)))
		parse = append(parse, micros(dParse))
		compile = append(compile, micros(dCompile))
		execute = append(execute, micros(dExec))
		groups += float64(ngroups)

		// Under execute: per consulted RSPN, build the request of the
		// query's probability term and evaluate one copy per result group
		// in a batch, as grouped execution does.
		members := plan.RSPNs()
		rspns += float64(len(members))
		var dSPN time.Duration
		for _, r := range members {
			nodes += float64(r.Model.Compiled().NumNodes()) / float64(len(members))
			term := probabilityTerm(r, q)
			var req spn.Request
			dBuild, err := timed("rspn.build_request", "core.execute", k, executed, func() (err error) { req, err = r.BuildRequest(term); return })
			if err != nil {
				continue // a term this member cannot express; execution routes around it too
			}
			batch := make([]spn.Request, ngroups)
			for j := range batch {
				batch[j] = req
			}
			out := make([]float64, ngroups)
			dEval, err := timed("spn.evaluate", "core.execute", k, executed, func() error { return r.EvaluateRequests(batch, out) })
			if err != nil {
				return nil, err
			}
			build = append(build, micros(dBuild))
			eval = append(eval, micros(dEval))
			dSPN += dBuild + dEval
		}
		executeSelf = append(executeSelf, micros(max(dExec-dSPN, 0)))
	}

	p := stats.Quantile
	tr.overheadP50, tr.overheadP99 = p(overhead, 0.50), p(overhead, 0.99)
	tr.callP50, tr.callP99 = p(plain, 0.50), p(plain, 0.99)
	tr.callSelfP50 = p(callSelf, 0.50)
	tr.parseP50, tr.compileP50 = p(parse, 0.50), p(compile, 0.50)
	tr.executeP50, tr.executeP99 = p(execute, 0.50), p(execute, 0.99)
	tr.executeSelfP50 = p(executeSelf, 0.50)
	tr.buildP50, tr.evalP50, tr.nSPN = p(build, 0.50), p(eval, 0.50), len(eval)
	n := float64(len(idx))
	tr.groupsMean, tr.rspnsMean, tr.nodesMean = per(groups, n), per(rspns, n), per(nodes, n)
	tr.overheadRatio = per(p(traced, 0.50), tr.callP50)
	return tr, nil
}

// probabilityTerm is the part of q's probability term the member can
// express: the filters on columns it resolves, over the queried tables it
// covers.
func probabilityTerm(r *rspn.RSPN, q query.Query) rspn.Term {
	var term rspn.Term
	for _, p := range q.Filters {
		if r.ResolvesColumn(p.Column) {
			term.Filters = append(term.Filters, p)
		}
	}
	for _, t := range q.Tables {
		if r.HasTable(t) {
			term.InnerTables = append(term.InnerTables, t)
		}
	}
	return term
}

// measureApply times the copy-on-write update step in process: clone the
// touched part of the ensemble and apply a batch of the workload's own
// mutations to it, 32 batches of 1 and then 5 of 256. Each batch builds on
// the state the previous one published, as the server's applier does; the
// clones share their write index with their base, so history must be linear.
func (t *traceResult) measureApply(model string, ds dataset, ops []writeOp) error {
	ens, err := ensemble.LoadFile(model, ds.tabs)
	if err != nil {
		return err
	}
	apply := func(batch []writeOp) (float64, error) {
		muts := make([]ensemble.Mutation, len(batch))
		for i, op := range batch {
			muts[i] = op.mutation()
		}
		t0 := time.Now()
		next := ens.CloneForUpdate(muts)
		if _, err := next.Apply(muts); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		ens = next
		return micros(d) / float64(len(batch)), nil
	}
	var one, many []float64
	for len(ops) > 0 && len(one) < 32 {
		us, err := apply(ops[:1])
		if err != nil {
			return err
		}
		one, ops = append(one, us), ops[1:]
	}
	for len(ops) >= 256 && len(many) < 5 {
		us, err := apply(ops[:256])
		if err != nil {
			return err
		}
		many, ops = append(many, us), ops[256:]
	}
	t.apply1us, t.apply256us = stats.Median(one), stats.Median(many)
	return nil
}

// write stores the spans as JSON.
func (t *traceResult) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
