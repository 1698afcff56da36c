package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/deepdb"
	"repro/internal/stats"
)

// runConfig is everything one run of one workload needs.
type runConfig struct {
	root    string // checkout root (holds ./cmd/deepdb)
	workDir string // binaries, models, CSVs and WALs; inside the checkout
	outDir  string // trace files
	sz      sizes
	seed    int64
	window  time.Duration
	trace   bool
	log     io.Writer // progress
}

// metric is one reported number. n is the number of samples behind it (0
// when it is a single reading or a count).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	metrics   []metric // end-to-end metrics untraced, per-layer metrics traced
	attempted int
	failed    int
	// problems are correctness-gate failures; any makes the run incorrect.
	problems []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// The first committed run of each workload (seed 1) measured these
// 95th-percentile q-errors; a served answer set more than twice as wrong
// fails the run outright, whatever the regression bound says.
var qerrP95Baseline = map[string]float64{
	"card_adhoc":  2.7935,
	"card_hot":    2.7935, // validated on card_adhoc's population and model
	"aqp_groupby": 11691.77,
	"mixed_rw":    2.9022,
}

const (
	identitySample = 64 // requests compared bit for bit before the window
	windowSlices   = 10 // timings are medians over this many slices of the window
)

// loadResult is what one load goroutine observed.
type loadResult struct {
	samples   []sample
	attempted int
	failed    int
	non2xx    int // of failed: answered, but not with the expected status
	shed      int // of non2xx: 429, the server shedding load
	firstErr  string
}

// status records a completed request's status code and reports whether it
// is the expected one.
func (l *loadResult) status(got, want int) bool {
	if got == want {
		return true
	}
	l.non2xx++
	if got == 429 {
		l.shed++
	}
	return false
}

func (l *loadResult) fail(format string, args ...any) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = fmt.Sprintf(format, args...)
	}
}

// check reports whether a served answer is acceptable: status 200, well
// formed, and — when exact — bit-identical to the in-process facade's.
func (r *request) check(endpoint string, status int, body []byte, exact bool) (answer, string) {
	if status != 200 {
		return answer{}, fmt.Sprintf("status %d for %s: %s", status, r.sql, body)
	}
	if endpoint == "/estimate" {
		est, ok := parseEstimate(body)
		if !ok || math.IsNaN(est.Value) {
			return answer{}, fmt.Sprintf("malformed answer for %s: %s", r.sql, body)
		}
		if exact && est != r.want.est {
			return answer{}, fmt.Sprintf("%s: served %+v, facade %+v", r.sql, est, r.want.est)
		}
		return answer{est: est}, ""
	}
	rows, ok := parseGroups(body)
	if !ok {
		return answer{}, fmt.Sprintf("malformed answer for %s: %s", r.sql, body)
	}
	got := answer{groups: make(map[string]groupRow, len(rows))}
	for _, g := range rows {
		got.groups[keyString(g.Key)] = g
	}
	if exact {
		if len(got.groups) != len(r.want.groups) {
			return answer{}, fmt.Sprintf("%s: served %d groups, facade %d", r.sql, len(got.groups), len(r.want.groups))
		}
		for k, w := range r.want.groups {
			g := got.groups[k]
			if g.Value != w.Value || g.CILow != w.CILow || g.CIHigh != w.CIHigh {
				return answer{}, fmt.Sprintf("%s group %s: served %+v, facade %+v", r.sql, k, g, w)
			}
		}
	}
	return got, ""
}

// readLoop is one closed-loop reader: the next request is sent when the
// previous answer has been read and checked. Sample times are relative to
// windowStart, so warm-up samples come out negative.
func readLoop(c *conn, sp spec, reqs []request, st stream, exact bool, windowStart, end time.Time) loadResult {
	var out loadResult
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return out
		}
		r := &reqs[st.next()]
		status, body, err := c.do(r.raw)
		t1 := time.Now()
		out.attempted++
		if err != nil {
			out.fail("%s: %v", r.sql, err)
			return out // the connection is unusable
		}
		out.status(status, 200)
		if _, problem := r.check(sp.endpoint, status, body, exact); problem != "" {
			out.fail("%s", problem)
			continue
		}
		out.samples = append(out.samples, sample{at: t1.Sub(windowStart), lat: t1.Sub(t0)})
	}
}

// facadeAnswer runs one request through the in-process facade.
func facadeAnswer(ctx context.Context, db *deepdb.DB, endpoint, sql string) (answer, error) {
	if endpoint == "/estimate" {
		e, err := db.EstimateCardinality(ctx, sql)
		return answer{est: estimate{e.Value, e.CILow, e.CIHigh}}, err
	}
	res, err := db.Query(ctx, sql)
	if err != nil {
		return answer{}, err
	}
	a := answer{groups: make(map[string]groupRow, len(res.Groups))}
	for _, g := range res.Groups {
		a.groups[keyString(g.Key)] = groupRow{Key: g.Key, Value: g.Value, CILow: g.CILow, CIHigh: g.CIHigh}
	}
	return a, nil
}

// openOptions are the facade options matching the workload's server flags.
func (sp spec) openOptions() []deepdb.Option {
	if sp.resultCache > 0 {
		return []deepdb.Option{deepdb.WithResultCacheSize(sp.resultCache)}
	}
	return nil
}

// serveFlags are the fixed server flags of the workload.
func (sp spec) serveFlags(model, dataDir, walDir string) []string {
	flags := []string{"-model", model}
	if sp.resultCache > 0 {
		flags = append(flags, "-result-cache", strconv.Itoa(sp.resultCache))
	}
	if sp.writes {
		flags = append(flags, "-data", dataDir, "-wal", walDir, "-durability", "batched")
	}
	return flags
}

// run is the state of one run of one workload, filled in phase by phase.
type run struct {
	cfg runConfig
	sp  spec
	res *result
	ctx context.Context

	bin, runDir, model, dataDir, walDir string

	ds        dataset   // pristine generated tables: literals, truth, write mirror
	reqs      []request // the distinct requests of the load
	validated []request // the requests whose served answers are compared with the truth

	srv   *server
	ref   *deepdb.DB // in-process reference on the same model file
	conns [3]*conn   // two load connections and the control connection

	// mixed_rw
	ops   []writeOp
	acked []bool
	nOpen int // ops the open-loop schedule owns; the burst takes the rest
	open  []openSample

	// measurements
	build, datagen, truth time.Duration
	learn, save, spawn    []time.Duration
	openTime              time.Duration
	modelBytes            int64
	warmup                time.Duration
	ws                    windowStats
	rssMB                 float64
	hBefore, hAfter       healthz
	depthMax              int
	lags                  []float64
	non2xx, shed          int
	sentBytes, recvBytes  float64
	loadRequests          float64
	flush                 time.Duration
	burstRows             int
	writeRowsPerSec       float64
	qerrs                 []float64
	tr                    *traceResult
	recovery              time.Duration
	replayed              int
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, "# "+r.sp.name+": "+format+"\n", args...)
}

// runWorkload performs one complete run: set-up, correctness gates, the
// measured window and — traced — the in-process staircase replay.
func runWorkload(cfg runConfig, sp spec) (*result, error) {
	r := &run{cfg: cfg, sp: sp, res: &result{workload: sp.name}, ctx: context.Background()}
	defer r.cleanup()
	phases := []func() error{r.prepare, r.setUp, r.openReference, r.identityGate, r.window}
	if sp.writes {
		phases = append(phases, r.writeBurst)
	}
	phases = append(phases, r.validateAnswers)
	if cfg.trace {
		phases = append(phases, r.traced)
	}
	if sp.writes {
		phases = append(phases, r.crashRecovery)
	}
	for _, phase := range phases {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		r.reportLayers()
	} else {
		r.reportEndToEnd()
	}
	return r.res, nil
}

func (r *run) cleanup() {
	for _, c := range r.conns {
		if c != nil {
			c.close()
		}
	}
	if r.ref != nil {
		r.ref.Close()
	}
	if r.srv != nil {
		r.srv.stop()
	}
	if r.runDir != "" {
		os.RemoveAll(r.runDir)
	}
}

// prepare builds the server, generates the data and the requests, and
// computes the exact truth — harness work that is not part of setup_s.
func (r *run) prepare() (err error) {
	t0 := time.Now()
	if r.bin, err = buildServer(r.cfg.root, filepath.Join(r.cfg.workDir, "bin")); err != nil {
		return err
	}
	r.build = time.Since(t0)

	r.runDir = filepath.Join(r.cfg.workDir, fmt.Sprintf("run-%s-%d", r.sp.name, os.Getpid()))
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		return err
	}
	r.model = filepath.Join(r.runDir, "model.deepdb")
	r.dataDir = filepath.Join(r.runDir, "data")

	t0 = time.Now()
	r.ds = genDataset(r.sp.data, r.cfg.sz)
	if r.sp.writes {
		if err := writeCSVs(r.ds, r.dataDir); err != nil {
			return err
		}
	}
	r.datagen = time.Since(t0)

	if r.reqs, r.validated, err = buildRequests(r.sp, r.ds, r.cfg.sz, r.cfg.seed); err != nil {
		return err
	}
	t0 = time.Now()
	if err := computeTruth(r.sp, r.ds, r.validated); err != nil {
		return err
	}
	r.truth = time.Since(t0)
	r.logf("%d distinct requests, %d validated; build %.2fs datagen %.2fs truth %.2fs",
		len(r.reqs), len(r.validated), r.build.Seconds(), r.datagen.Seconds(), r.truth.Seconds())
	return nil
}

// setUp is what setup_s measures: learn the model, save it, spawn the
// server and wait for its first healthy answer. Untraced it is done
// several times and setup_s is the median; the last server stays up.
func (r *run) setUp() error {
	reps := r.cfg.sz.setupReps
	if r.cfg.trace {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if r.srv != nil {
			r.srv.stop()
			r.srv = nil
		}
		fresh := genDataset(r.sp.data, r.cfg.sz)
		t0 := time.Now()
		db, err := deepdb.LearnDataset(r.ctx, fresh.schema, fresh.tabs)
		if err != nil {
			return fmt.Errorf("learn: %w", err)
		}
		r.learn = append(r.learn, time.Since(t0))
		t0 = time.Now()
		if err := db.Save(r.model); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		r.save = append(r.save, time.Since(t0))
		if err := db.Close(); err != nil {
			return err
		}
		r.walDir = filepath.Join(r.runDir, fmt.Sprintf("wal-%d", rep))
		var ready time.Duration
		if r.srv, ready, err = startServer(r.bin, r.sp.serveFlags(r.model, r.dataDir, r.walDir)...); err != nil {
			return err
		}
		r.spawn = append(r.spawn, ready)
		r.logf("set-up %d: learn %.2fs save %.3fs spawn-to-ready %.3fs", rep+1,
			r.learn[rep].Seconds(), r.save[rep].Seconds(), ready.Seconds())
	}
	st, err := os.Stat(r.model)
	if err != nil {
		return err
	}
	r.modelBytes = st.Size()
	return r.redial()
}

func (r *run) redial() (err error) {
	for i, c := range r.conns {
		if c != nil {
			c.close()
		}
		if r.conns[i], err = dial(r.srv.addr); err != nil {
			return err
		}
	}
	return nil
}

// openReference opens the model in process with the server's cache options
// and computes the answer the server must give to every distinct request.
func (r *run) openReference() (err error) {
	t0 := time.Now()
	if r.ref, err = deepdb.Open(r.ctx, r.model, r.sp.openOptions()...); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.openTime = time.Since(t0)
	for _, set := range [][]request{r.reqs, r.validated} {
		for i := range set {
			if set[i].want, err = facadeAnswer(r.ctx, r.ref, r.sp.endpoint, set[i].sql); err != nil {
				return fmt.Errorf("facade %s: %w", set[i].sql, err)
			}
		}
	}
	return nil
}

// ask sends one read on the control connection, outside the window.
func (r *run) ask(req *request, exact bool) (answer, bool) {
	r.res.attempted++
	status, body, err := r.conns[2].do(req.raw)
	problem := ""
	var a answer
	if err != nil {
		problem = fmt.Sprintf("%s: %v", req.sql, err)
	} else {
		a, problem = req.check(r.sp.endpoint, status, body, exact)
	}
	if problem != "" {
		r.res.failed++
		r.res.problemf("%s", problem)
		return answer{}, false
	}
	return a, true
}

// identityGate is correctness gate (a): before any write, a seeded sample
// of requests answers over HTTP bit for bit as the facade does in process.
func (r *run) identityGate() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for _, i := range rng.Perm(len(r.reqs))[:min(identitySample, len(r.reqs))] {
		r.ask(&r.reqs[i], true)
	}
	return nil
}

// window is the measured window: closed-loop readers on the load
// connections (and, for mixed_rw, the open-loop writer on the second),
// after a warm-up of a tenth of the window.
func (r *run) window() error {
	sp, cfg := r.sp, r.cfg
	r.warmup = max(cfg.window/10, 300*time.Millisecond)
	interval := time.Second
	if sp.writes {
		interval = time.Second / time.Duration(cfg.sz.writeRate)
		r.nOpen = int((r.warmup + cfg.window + interval - 1) / interval)
		// Room for a burst several times faster than this box acknowledges.
		r.ops = genWrites(r.ds, r.nOpen+int(r.burst().Seconds()*50000), cfg.seed)
		r.acked = make([]bool, len(r.ops))
	}
	begin := time.Now().Add(20 * time.Millisecond)
	windowStart := begin.Add(r.warmup)
	end := windowStart.Add(cfg.window)

	var wg sync.WaitGroup
	loads := make([]loadResult, 2)
	readers := 2
	if sp.writes {
		readers = 1
	}
	for ci := 0; ci < readers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			time.Sleep(time.Until(begin))
			// Under writes the answers move with every published
			// snapshot; only their form can be checked in flight.
			loads[ci] = readLoop(r.conns[ci], sp, r.reqs, newStream(sp, r.reqs, cfg.seed, ci), !sp.writes, windowStart, end)
		}(ci)
	}
	if sp.writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ackedIdx []int
			r.open, ackedIdx = runOpenLoop(wallClock{}, begin, end, interval, func(i int) bool {
				return r.write(r.conns[1], &loads[1], i)
			})
			for _, i := range ackedIdx {
				r.acked[i] = true
			}
		}()
	}
	// The control connection reads /healthz at both edges of the window
	// and, traced, samples it at 10Hz in between.
	var hErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(windowStart))
		if r.hBefore, hErr = fetchHealthz(r.conns[2]); hErr != nil {
			return
		}
		for cfg.trace && time.Until(end) > 100*time.Millisecond {
			time.Sleep(100 * time.Millisecond)
			h, err := fetchHealthz(r.conns[2])
			if err != nil {
				hErr = err
				return
			}
			r.depthMax = max(r.depthMax, h.Updates.QueueDepth)
			r.lags = append(r.lags, float64(h.Updates.ApplyLagMicros))
		}
		time.Sleep(time.Until(end))
		r.hAfter, hErr = fetchHealthz(r.conns[2])
	}()
	wg.Wait()
	if hErr != nil {
		return hErr
	}
	var err error
	if r.rssMB, err = r.srv.peakRSSMB(); err != nil {
		return err
	}
	var samples []sample
	for ci := range loads {
		r.absorb(fmt.Sprintf("connection %d", ci+1), &loads[ci])
		samples = append(samples, loads[ci].samples...) // the writer records none
		r.sentBytes += float64(r.conns[ci].sent)
		r.recvBytes += float64(r.conns[ci].received)
		r.loadRequests += float64(loads[ci].attempted)
	}
	r.ws = sliceStats(samples, cfg.window, windowSlices)
	r.logf("window: %d reads, %.0f qps, p50 %.0fus p99 %.0fus", r.ws.inWindow, r.ws.qps, r.ws.p50us, r.ws.p99us)
	if sp.writes {
		if r.flush, err = flush(r.conns[2]); err != nil {
			return err
		}
	}
	return nil
}

// write sends mutation i and reports whether it was acknowledged (202).
func (r *run) write(c *conn, l *loadResult, i int) bool {
	status, body, err := c.do(r.ops[i].raw)
	l.attempted++
	if err != nil || !l.status(status, 202) {
		l.fail("write %d: status %d, error %v: %s", i, status, err, body)
		return false
	}
	return true
}

// absorb adds one load goroutine's counts to the run's.
func (r *run) absorb(who string, l *loadResult) {
	r.res.attempted += l.attempted
	r.res.failed += l.failed
	r.non2xx += l.non2xx
	r.shed += l.shed
	if l.firstErr != "" {
		r.res.problemf("%s: %s", who, l.firstErr)
	}
}

// flush posts the read-your-writes barrier and returns how long it took.
func flush(c *conn) (time.Duration, error) {
	t0 := time.Now()
	status, body, err := c.post("/flush", "{}")
	if err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	if status != 200 {
		return 0, fmt.Errorf("flush: status %d: %s", status, body)
	}
	return time.Since(t0), nil
}

// burst is the length of the write-only phase: a quarter of the window.
func (r *run) burst() time.Duration { return max(r.cfg.window/4, 300*time.Millisecond) }

// writeBurst is the write-only phase of mixed_rw: both connections write
// closed-loop for a quarter of the window, then flush. Acknowledged and
// flushed rows per second is write_rows_s.
func (r *run) writeBurst() error {
	var next atomic.Int64
	next.Store(int64(r.nOpen))
	t0 := time.Now()
	end := t0.Add(r.burst())
	var wg sync.WaitGroup
	loads := make([]loadResult, 2)
	for ci := range loads {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1) // each index is taken by one goroutine only
				if i >= len(r.ops) {
					return
				}
				r.acked[i] = r.write(r.conns[ci], &loads[ci], i)
			}
		}(ci)
	}
	wg.Wait()
	if _, err := flush(r.conns[2]); err != nil {
		return err
	}
	elapsed := time.Since(t0)
	for ci := range loads {
		r.absorb(fmt.Sprintf("burst connection %d", ci+1), &loads[ci])
		r.burstRows += loads[ci].attempted - loads[ci].failed
	}
	r.writeRowsPerSec = float64(r.burstRows) / elapsed.Seconds()
	r.logf("burst: %d rows in %.2fs", r.burstRows, elapsed.Seconds())

	// The truth moved with the data: recompute it on the harness's own
	// mirror of the acknowledged writes.
	t0 = time.Now()
	if err := computeTruth(r.sp, applyWrites(r.ds, r.ops, r.acked), r.validated); err != nil {
		return err
	}
	r.truth += time.Since(t0)
	return nil
}

// validateAnswers is correctness gate (b): the q-error of the served
// answers against the exact truth (after the final flush for mixed_rw).
func (r *run) validateAnswers() error {
	served := make([]answer, len(r.validated))
	for i := range r.validated {
		var ok bool
		if served[i], ok = r.ask(&r.validated[i], !r.sp.writes); !ok {
			return nil // recorded as a problem; the run is incorrect
		}
	}
	r.qerrs = qerrors(r.validated, served)
	_, p95 := qerrSummary(r.qerrs)
	// The baselines were measured at the benchmark's own scale only.
	if base := qerrP95Baseline[r.sp.name]; r.cfg.sz == benchSizes && p95 > 2*base {
		r.res.problemf("qerr_p95 %.3f is more than twice the committed baseline %.3f", p95, base)
	}
	return nil
}

// traced times the round trips of a seeded sample of requests on one
// connection, takes the same requests down the in-process staircase, and
// writes the spans out.
func (r *run) traced() (err error) {
	n := r.cfg.sz.traceSample
	if r.sp.data == "ssb" {
		n = r.cfg.sz.traceAQP
	}
	st := newStream(r.sp, r.reqs, r.cfg.seed+7, 0)
	idx := make([]int, n)
	rtts := make([]time.Duration, n)
	for k := range idx {
		idx[k] = st.next()
		t0 := time.Now()
		if _, ok := r.ask(&r.reqs[idx[k]], false); !ok {
			return nil // recorded as a problem
		}
		rtts[k] = time.Since(t0)
	}
	if r.tr, err = replay(r.ctx, r.sp, r.model, r.ref, r.reqs, idx, rtts); err != nil {
		return err
	}
	if r.sp.writes {
		// AttachTables augments the tables it is given; not the pristine ones.
		if err := r.tr.measureApply(r.model, genDataset(r.sp.data, r.cfg.sz), r.ops); err != nil {
			return err
		}
	}
	return r.tr.write(filepath.Join(r.cfg.outDir, "trace-"+r.sp.name+".json"), r.sp.name, r.cfg.seed)
}

// crashRecovery is correctness gate (c): SIGKILL the server, restart it on
// the same WAL, and require that it replays exactly the acknowledged writes
// (nothing was checkpointed) and answers a fixed probe bit-identically to
// its pre-kill answer.
func (r *run) crashRecovery() (err error) {
	probe := &r.validated[0]
	before, ok := r.ask(probe, false)
	if !ok {
		return nil // recorded as a problem
	}
	r.srv.kill()
	if r.srv, r.recovery, err = startServer(r.bin, r.sp.serveFlags(r.model, r.dataDir, r.walDir)...); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if err := r.redial(); err != nil {
		return err
	}
	after, ok := r.ask(probe, false)
	if !ok {
		return nil
	}
	h, err := fetchHealthz(r.conns[2])
	if err != nil {
		return err
	}
	if h.Updates.WAL == nil {
		return fmt.Errorf("restarted server reports no WAL")
	}
	r.replayed = int(h.Updates.WAL.Replayed)
	ackedWrites := 0
	for _, a := range r.acked {
		if a {
			ackedWrites++
		}
	}
	if r.replayed != ackedWrites {
		r.res.problemf("durability: %d writes acknowledged, %d replayed after SIGKILL", ackedWrites, r.replayed)
	}
	if before.est != after.est {
		r.res.problemf("durability: probe %s answered %+v before the kill and %+v after recovery",
			probe.sql, before.est, after.est)
	}
	r.logf("recovery: %d rows replayed, ready in %.2fs", r.replayed, r.recovery.Seconds())
	return nil
}

func last(ds []time.Duration) float64 { return ds[len(ds)-1].Seconds() }

// reportEndToEnd fills in the metrics of BENCHMARK.json's end_to_end list.
func (r *run) reportEndToEnd() {
	var setups []float64
	for i := range r.learn {
		setups = append(setups, (r.learn[i] + r.save[i] + r.spawn[i]).Seconds())
	}
	p50, _ := qerrSummary(r.qerrs)
	res := r.res
	res.add("setup_s", stats.Median(setups), "s", len(setups))
	res.add("qps", r.ws.qps, "1/s", r.ws.inWindow)
	res.add("lat_p50_us", r.ws.p50us, "us", r.ws.inWindow)
	res.add("qerr_p50", p50, "ratio", len(r.qerrs))
	res.add("rss_peak_mb", r.rssMB, "MB", 0)
}

// reportLayers fills in the metrics of BENCHMARK.json's per_layer list.
// Counts are /healthz deltas across the window; times come from the traced
// sample and its in-process replay.
func (r *run) reportLayers() {
	res, tr := r.res, r.tr
	if tr == nil {
		tr = &traceResult{} // the traced sample failed; the run is already incorrect
	}
	d := deltaHealthz(r.hBefore, r.hAfter)
	var lates, rtts []float64
	for _, s := range r.open {
		if s.at >= r.warmup {
			lates = append(lates, micros(s.late))
			rtts = append(rtts, micros(s.lat))
		}
	}

	_, qerrP95 := qerrSummary(r.qerrs)
	walBytes, walSegments := 0.0, 0.0
	if w := r.hAfter.Updates.WAL; w != nil {
		walBytes, walSegments = per(float64(w.SizeBytes), float64(w.Appended)), float64(w.Segments)
	}
	reads, rows := r.ws.inWindow, int(d.walAppended)

	res.add("fail_ratio", per(float64(res.failed), float64(res.attempted)), "ratio", res.attempted)
	res.add("qerr_p95", qerrP95, "ratio", len(r.qerrs))
	res.add("write_rows_s", r.writeRowsPerSec, "1/s", r.burstRows)

	res.add("client.samples", float64(reads), "count", 0)
	res.add("client.lat_p99_us", r.ws.p99us, "us", reads)
	res.add("client.lat_p999_us", r.ws.p999us, "us", reads)
	res.add("client.sched_late_p99_us", stats.Quantile(lates, 0.99), "us", len(lates))

	res.add("serve.overhead_p50_us", tr.overheadP50, "us", tr.n)
	res.add("serve.overhead_p99_us", tr.overheadP99, "us", tr.n)
	res.add("serve.req_bytes_mean", per(r.sentBytes, r.loadRequests), "B", int(r.loadRequests))
	res.add("serve.resp_bytes_mean", per(r.recvBytes, r.loadRequests), "B", int(r.loadRequests))
	res.add("serve.non2xx", float64(r.non2xx), "count", 0)
	res.add("serve.shed_429", float64(r.shed), "count", 0)
	res.add("serve.insert_rtt_p50_us", stats.Quantile(rtts, 0.50), "us", len(rtts))
	res.add("serve.insert_rtt_p99_us", stats.Quantile(rtts, 0.99), "us", len(rtts))
	res.add("serve.spawn_ready_s", last(r.spawn), "s", 0)

	res.add("deepdb.call_p50_us", tr.callP50, "us", tr.n)
	res.add("deepdb.call_p99_us", tr.callP99, "us", tr.n)
	res.add("deepdb.self_p50_us", tr.callSelfP50, "us", tr.n)
	res.add("deepdb.allocs_per_call", tr.allocsPerCall, "count", tr.n)
	res.add("deepdb.bytes_per_call", tr.bytesPerCall, "B", tr.n)
	res.add("deepdb.plan_cache_hit_ratio", ratio(d.planHits, d.planMisses), "ratio", int(d.planHits+d.planMisses))
	res.add("deepdb.result_cache_hit_ratio", ratio(d.resHits, d.resMisses), "ratio", int(d.resHits+d.resMisses))
	res.add("deepdb.result_cache_evictions", float64(d.resEvictions), "count", 0)
	res.add("deepdb.generations", float64(d.generations), "count", 0)

	res.add("query.parse_p50_us", tr.parseP50, "us", tr.n)
	res.add("core.compile_p50_us", tr.compileP50, "us", tr.n)
	res.add("core.execute_p50_us", tr.executeP50, "us", tr.n)
	res.add("core.execute_p99_us", tr.executeP99, "us", tr.n)
	res.add("core.execute_self_p50_us", tr.executeSelfP50, "us", tr.n)
	res.add("core.groups_per_query_mean", tr.groupsMean, "count", tr.n)
	res.add("core.rspns_per_plan_mean", tr.rspnsMean, "count", tr.n)
	res.add("rspn.build_request_p50_us", tr.buildP50, "us", tr.nSPN)
	res.add("spn.evaluate_p50_us", tr.evalP50, "us", tr.nSPN)
	res.add("spn.nodes_mean", tr.nodesMean, "count", tr.n)

	res.add("ensemble.learn_s", last(r.learn), "s", 0)
	res.add("ensemble.save_s", last(r.save), "s", 0)
	res.add("ensemble.open_s", r.openTime.Seconds(), "s", 0)
	res.add("ensemble.model_bytes", float64(r.modelBytes), "B", 0)
	res.add("ensemble.apply_batch1_us", tr.apply1us, "us", 0)
	res.add("ensemble.apply_batch256_us_per_row", tr.apply256us, "us", 0)

	res.add("pipeline.rows_per_batch_mean", per(float64(d.applied), float64(d.batches)), "count", int(d.batches))
	res.add("pipeline.apply_lag_us", stats.Median(r.lags), "us", len(r.lags))
	res.add("pipeline.queue_depth_max", float64(r.depthMax), "count", len(r.lags))
	res.add("pipeline.flush_ms", float64(r.flush)/float64(time.Millisecond), "ms", 0)
	res.add("pipeline.errors", float64(d.errors), "count", 0)

	res.add("wal.fsyncs_per_row", per(float64(d.walSynced), float64(d.walAppended)), "ratio", rows)
	res.add("wal.bytes_per_row", walBytes, "B", 0)
	res.add("wal.segments", walSegments, "count", 0)
	res.add("wal.recovery_s", r.recovery.Seconds(), "s", 0)
	res.add("wal.replayed_rows", float64(r.replayed), "count", 0)

	res.add("harness.datagen_s", r.datagen.Seconds(), "s", 0)
	res.add("harness.build_s", r.build.Seconds(), "s", 0)
	res.add("harness.truth_s", r.truth.Seconds(), "s", 0)
	res.add("harness.trace_overhead_ratio", tr.overheadRatio, "ratio", tr.n)
}
