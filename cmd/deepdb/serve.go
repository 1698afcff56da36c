package main

// serve.go implements `deepdb serve`: an HTTP/JSON front-end that serves a
// learned model file fully data-free under concurrent load. It is built
// exclusively on the public deepdb API — db.Query/EstimateCardinality for
// ad-hoc SQL (which transparently reuse cached plans per query shape) and
// Prepare/Exec for parameterized requests — so every request pays the
// compile cost at most once per query shape.
//
// Endpoints (POST a JSON body, or GET with ?sql=...):
//
//	/query    {"sql": "...", "params": [...], "confidence": 0.99}
//	          -> {"groups": [{"key", "labels", "value", "variance", "ci_low", "ci_high"}], "elapsed_us"}
//	/estimate same request -> {"value", "variance", "ci_low", "ci_high", "elapsed_us"}
//	/explain  {"sql": "..."} -> {"plan": "..."}
//	/insert   {"table": "...", "values": {"col": 1.5, "region": "EU", "note": null}}
//	          -> {"queued": true, "generation"}   (enqueued; apply is asynchronous)
//	/delete   {"table": "...", "pk": 123} -> {"queued": true, "generation"}
//	/flush    {} -> {"flushed": true, "generation"}   (read-your-writes barrier)
//	/reload   {"model": "path"} -> {"reloaded": true, "generation"}
//	          (hot model swap: readers keep serving the old snapshot until
//	          the new one publishes atomically; allowed under -readonly)
//	/healthz  -> {"status": "ok", "models", "tables", "data_attached",
//	              "readonly", "updates": {queue depth, lag, batches,
//	              "wal": {LSN watermarks, fsync counters},
//	              "drift": [per-member staleness], relearn counters, ...}}
//
// params entries may be JSON numbers or strings; strings are resolved
// through the dictionaries persisted in the model, so string predicates
// work without any data directory. Insert values follow the same rule.
// Mutations require the server to have data attached (-data) and are
// rejected with 403 under -readonly; queries keep serving from immutable
// snapshots either way and never wait for writers.
//
// -wal dir makes accepted mutations durable (a directory still holding
// the shard-<i> logs of a partitioned deployment is refused with the steps
// that fold them into one log), and -drift re-learns a member in the
// background once enough of its rows mutated. -max-body bounds each
// payload and -max-inflight the number of requests served concurrently
// (excess is shed with 429 + Retry-After; /healthz stays exempt so load
// balancers can always probe).
//
// -request-timeout is each request's budget. A request runs on the
// goroutine net/http serves its connection on; the budget is the deadline
// of its context, which the engine polls, and the read deadline of its
// body. A read whose budget runs out before its response starts answers
// 503 with a JSON error, a body still arriving at the deadline is cut off
// with 503, /flush stops waiting and answers 503, and a /query that has
// already streamed rows ends its object with an "error" member instead of
// elapsed_us. /insert and /delete never wait on the update queue; a WAL
// fsync that stalls holds their answer until it returns, because the write
// may land whatever the client is told. /reload answers when the swap is
// done.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/deepdb"
	"repro/internal/fault"
)

// shutdownTimeout bounds the graceful drain of in-flight requests after
// SIGINT/SIGTERM.
const shutdownTimeout = 10 * time.Second

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "model.deepdb", "model file from deepdb learn")
	addr := fs.String("addr", ":8491", "listen address")
	dataDir := fs.String("data", "", "optional data directory (only needed if clients use exact-execution features)")
	cache := fs.Int("cache", 0, "plan cache size (0 keeps the default)")
	resultCache := fs.Int("result-cache", 0, "cross-query result cache size in entries (0 disables; hits skip evaluation entirely and are invalidated by every published snapshot)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the serving process to this file (finalized at shutdown)")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/ for live hot-path diagnosis")
	readonly := fs.Bool("readonly", false, "reject /insert, /delete and /flush (serve a frozen snapshot)")
	walDir := fs.String("wal", "", "write-ahead log directory: accepted mutations become durable and are replayed on restart")
	durability := fs.String("durability", "batched", "WAL fsync policy: sync, batched or off (needs -wal)")
	driftFrac := fs.Float64("drift", 0, "re-learn an ensemble member in the background once this fraction of its rows mutated (0 disables; needs -data)")
	requestTimeout := fs.Duration("request-timeout", defaultServeConfig.requestTimeout, "per-request wall-clock budget; exceeding it answers 503 (0 disables)")
	maxBody := fs.Int64("max-body", defaultServeConfig.maxBody, "largest accepted request body in bytes")
	maxInflight := fs.Int("max-inflight", 0, "bound on concurrently served requests; beyond it requests are shed with 429 (0 unlimited; /healthz is exempt)")
	// Deliberately undocumented in -h output prose: chaos-run injection.
	// The spec grammar is internal/fault's; e.g.
	//   -fault-spec 'point=wal.append.sync;kind=latency;d=50ms;prob=0.1;seed=7'
	faultSpec := fs.String("fault-spec", "", "activate a fault-injection schedule for this process (chaos testing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *faultSpec != "" {
		sched, err := fault.Parse(*faultSpec)
		if err != nil {
			return err
		}
		fault.Enable(sched)
		defer fault.Disable()
		fmt.Fprintf(os.Stderr, "deepdb: FAULT INJECTION ACTIVE: %s\n", *faultSpec)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("deepdb: creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("deepdb: starting cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var opts []deepdb.Option
	if *dataDir != "" {
		opts = append(opts, deepdb.WithDataDir(*dataDir))
	}
	if *cache > 0 {
		opts = append(opts, deepdb.WithPlanCacheSize(*cache))
	}
	if *resultCache > 0 {
		opts = append(opts, deepdb.WithResultCacheSize(*resultCache))
	}
	if *walDir != "" {
		opts = append(opts, deepdb.WithWAL(*walDir))
	}
	if d, ok := deepdb.ParseDurability(*durability); ok {
		opts = append(opts, deepdb.WithDurability(d))
	} else {
		return fmt.Errorf("unknown -durability %q (want sync, batched or off)", *durability)
	}
	if *driftFrac > 0 {
		opts = append(opts, deepdb.WithDriftThreshold(*driftFrac))
	}
	// Serving front-ends shed on a full update queue (429 + Retry-After)
	// instead of pinning a handler goroutine per blocked writer.
	opts = append(opts, deepdb.WithNonBlockingUpdates())
	db, err := deepdb.Open(ctx, *model, opts...)
	if err != nil {
		return err
	}
	// Drain the update pipeline on shutdown so accepted mutations are
	// applied before the process exits.
	defer db.Close()
	handler := newServeHandler(db, serveConfig{readonly: *readonly, maxBody: *maxBody,
		requestTimeout: *requestTimeout, maxInflight: *maxInflight, pprof: *withPprof})
	srv := &http.Server{Addr: *addr, Handler: handler}
	banner := fmt.Sprintf("deepdb: serving %s on %s (data-free: %v)", *model, *addr, db.Data() == nil)
	return serveUntilSignal(ctx, srv, banner)
}

// serveUntilSignal runs srv until ctx ends or SIGINT/SIGTERM arrives, then
// shuts it down gracefully: stop accepting, drain in-flight requests for at
// most shutdownTimeout. The banner goes out once the signal watcher is
// armed, so whoever waits for it may signal right away.
func serveUntilSignal(ctx context.Context, srv *http.Server, banner string) error {
	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-sigCtx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	fmt.Println(banner)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// withPprofEndpoints overlays the net/http/pprof debug endpoints on the
// serving mux, so hot-path regressions are diagnosable against the live
// process (`go tool pprof http://host/debug/pprof/profile`).
func withPprofEndpoints(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// withInflightLimit bounds concurrently served requests: beyond n, requests
// are shed immediately with 429 + Retry-After instead of queueing. /healthz
// is exempt so health stays observable under exactly the overload the
// limiter exists for.
func withInflightLimit(h http.Handler, n int) http.Handler {
	if n <= 0 {
		return h
	}
	sem := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: "request budget exhausted, retry later"})
		}
	})
}

// serveConfig is the HTTP surface's share of cmdServe's flags.
type serveConfig struct {
	readonly       bool
	maxBody        int64         // -max-body; <= 0 keeps the default
	requestTimeout time.Duration // -request-timeout; 0 disables
	maxInflight    int           // -max-inflight; 0 is unlimited
	pprof          bool          // -pprof
}

// defaultServeConfig is what cmdServe serves with when no flag is given.
var defaultServeConfig = serveConfig{maxBody: 1 << 20, requestTimeout: 30 * time.Second}

// serveHandler is the HTTP surface over one database handle. Queries come
// from immutable published snapshots and updates are serialized inside the
// handle.
type serveHandler struct {
	db       *deepdb.DB
	readonly bool
	maxBody  int64
}

// newServeHandler builds what cmdServe serves: the endpoint mux inside the
// request budget, the in-flight limiter and the optional pprof overlay.
// Tests drive it through httptest without binding a port.
func newServeHandler(db *deepdb.DB, c serveConfig) http.Handler {
	s := &serveHandler{db: db, readonly: c.readonly, maxBody: c.maxBody}
	if s.maxBody <= 0 {
		s.maxBody = defaultServeConfig.maxBody
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/estimate", s.handleEstimate)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/flush", s.handleFlush)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	h := withDeadline(mux, c.requestTimeout)
	h = withInflightLimit(h, c.maxInflight)
	if c.pprof {
		h = withPprofEndpoints(h)
	}
	return h
}

// withDeadline gives every request the budget d on the goroutine net/http
// already serves it on (http.TimeoutHandler ran each on a second goroutine,
// which grew its stack twice per request, and buffered every response, so
// /query could not stream). The budget is the deadline of r.Context() and
// the connection's read deadline for the body; handlers answer 503 once it
// is spent (timedOut).
func withDeadline(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := &budgetCtx{Context: r.Context(), deadline: time.Now().Add(d)}
		defer ctx.release()
		// net/http's own writer sets the connection's read deadline; a
		// writer that cannot (a test recorder) has no connection to stall.
		if rd, ok := w.(interface{ SetReadDeadline(time.Time) error }); ok && r.ContentLength != 0 {
			_ = rd.SetReadDeadline(ctx.deadline)
		}
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// budgetCtx is a request context with a deadline that starts no timer until
// something waits on it. The engine only polls Err, which reads the clock;
// the first Done call (a /flush waiting on the applier, a context derived
// from this one) arms a real deadline context, and Err follows it from then
// on so that Err and Done agree.
type budgetCtx struct {
	context.Context // the request's own
	deadline        time.Time

	once   sync.Once
	armed  atomic.Bool
	timer  context.Context
	cancel context.CancelFunc
}

func (c *budgetCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *budgetCtx) Done() <-chan struct{} {
	c.once.Do(func() {
		c.timer, c.cancel = context.WithDeadline(c.Context, c.deadline)
		c.armed.Store(true)
	})
	if !c.armed.Load() { // released: the request is over
		return c.Context.Done()
	}
	return c.timer.Done()
}

func (c *budgetCtx) Err() error {
	if c.armed.Load() {
		return c.timer.Err()
	}
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// release stops the timer, if one was armed, once the request is served.
func (c *budgetCtx) release() {
	c.once.Do(func() {})
	if c.cancel != nil {
		c.cancel()
	}
}

// timedOut reports whether err, or the state of the request, says its
// budget is spent: the context expired (or the client went away), or a
// body read hit the read deadline.
func timedOut(r *http.Request, err error) bool {
	return r.Context().Err() != nil || errors.Is(err, os.ErrDeadlineExceeded)
}

// fail answers a request that failed before its response started: 503
// when its budget is spent, else status with msg+err.
func fail(w http.ResponseWriter, r *http.Request, status int, msg string, err error) {
	if timedOut(r, err) {
		status, msg = http.StatusServiceUnavailable, "request timed out: "
	}
	writeJSON(w, status, apiError{Error: msg + err.Error()})
}

// apiRequest is the JSON request body of /query, /estimate and /explain,
// decoded by decodeAPIRequest (wire.go).
type apiRequest struct {
	SQL string `json:"sql"`
	// Params bind `?` placeholders in order; numbers or strings.
	Params []any `json:"params,omitempty"`
	// Confidence overrides the interval level for this request.
	Confidence float64 `json:"confidence,omitempty"`
}

type apiError struct {
	Error string `json:"error"`
}

// wireBufs recycles the buffers request bodies are read into and answers
// are framed in.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

func getBuf() *[]byte { return wireBufs.Get().(*[]byte) }

// putBuf returns b, grown to its last use, unless a huge body or answer
// made it too big to keep around.
func putBuf(p *[]byte, b []byte) {
	if cap(b) <= 64<<10 {
		*p = b[:0]
		wireBufs.Put(p)
	}
}

// readBody reads r's body, at most max bytes of it, into dst. It returns
// what arrived even when reading failed, since encoding/json decodes a
// value that is complete before the failure.
func readBody(dst []byte, w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, max)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decodeRequest accepts a POSTed JSON body (bounded by -max-body) or a GET
// with ?sql=.
func (s *serveHandler) decodeRequest(w http.ResponseWriter, r *http.Request) (apiRequest, bool) {
	var req apiRequest
	switch r.Method {
	case http.MethodGet:
		req.SQL = r.URL.Query().Get("sql")
	case http.MethodPost:
		p := getBuf()
		body, rerr := readBody(*p, w, r, s.maxBody)
		var err error
		req, err = decodeAPIRequest(body)
		putBuf(p, body)
		if rerr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			err = rerr // the body ended early: say why
		}
		if err != nil {
			fail(w, r, http.StatusBadRequest, "invalid JSON body: ", err)
			return req, false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "use GET with ?sql= or POST a JSON body"})
		return req, false
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing sql"})
		return req, false
	}
	if req.Confidence != 0 && (req.Confidence <= 0 || req.Confidence >= 1) {
		writeJSON(w, http.StatusBadRequest,
			apiError{Error: fmt.Sprintf("confidence must be in (0, 1), got %v", req.Confidence)})
		return req, false
	}
	return req, true
}

// jsonContentType is the Content-Type header value, shared so that setting
// it allocates nothing.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// execOpts converts the request's per-call options.
func (req apiRequest) execOpts() []deepdb.ExecOption {
	if req.Confidence > 0 {
		return []deepdb.ExecOption{deepdb.AtConfidence(req.Confidence)}
	}
	return nil
}

// paramArgs merges params and options into a Stmt.Exec argument list.
func (req apiRequest) paramArgs() []any {
	args := append([]any(nil), req.Params...)
	for _, o := range req.execOpts() {
		args = append(args, o)
	}
	return args
}

// streamFlushRows is how many streamed result rows are written between
// flushes of the chunked response.
const streamFlushRows = 256

// queryRows picks the row source of a /query request. A parameterless
// request streams through the chunked read API: grouped results are
// evaluated chunk by chunk as the encoder pulls rows, so a GROUP BY over
// millions of keys is served in bounded memory; ungrouped queries execute
// eagerly inside QueryRows (keeping their result-cache benefit). A request
// with params runs the prepared statement (result-cached, bounded by the
// engine's group limit) and hands out its rows. next yields rows until
// exhausted; finish then reports an execution error that cut them short.
func (s *serveHandler) queryRows(ctx context.Context, req apiRequest) (next func() (deepdb.Group, bool), finish func() error, err error) {
	if len(req.Params) == 0 {
		rows, err := s.db.QueryRows(ctx, req.SQL, req.execOpts()...)
		if err != nil {
			return nil, nil, err
		}
		return func() (deepdb.Group, bool) { ok := rows.Next(); return rows.Row(), ok }, rows.Err, nil
	}
	stmt, err := s.db.Prepare(req.SQL)
	if err != nil {
		return nil, nil, err
	}
	res, err := stmt.Exec(ctx, req.paramArgs()...)
	if err != nil {
		return nil, nil, err
	}
	i := -1
	return func() (deepdb.Group, bool) {
		if i++; i < len(res.Groups) {
			return res.Groups[i], true
		}
		return deepdb.Group{}, false
	}, func() error { return nil }, nil
}

// handleQuery is the one /query encoder:
//
//	{"groups":[{"key","labels","value","variance","ci_low","ci_high"},...],"elapsed_us":N}
//
// in encoding/json's rendering (field order, escaping, trailing newline),
// with rows written — and flushed every streamFlushRows — as the source
// yields them and elapsed_us stamped at the end. The first row is pulled
// before the status goes out, so an error or a spent budget before it
// answers like any other read. An execution error after rows have gone out
// cannot change the status code anymore; the object is closed with an
// "error" member instead of elapsed_us, which also leaves the JSON
// well-formed for the client.
func (s *serveHandler) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	start := time.Now()
	next, finish, err := s.queryRows(ctx, req)
	var g deepdb.Group
	more := false
	if err == nil {
		if g, more = next(); !more {
			err = finish()
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fail(w, r, http.StatusBadRequest, "", err)
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	p := getBuf()
	b := append(*p, `{"groups":[`...)
	for n := 1; more; n++ {
		mark := len(b)
		if n > 1 {
			b = append(b, ',')
		}
		if b, err = appendGroup(b, g); err != nil {
			b = b[:mark] // a NaN or infinite number: close with the error
			break
		}
		if n%streamFlushRows == 0 {
			w.Write(b) //nolint:errcheck // client gone = write errors, nothing to do
			b = b[:0]
			if flusher != nil {
				flusher.Flush()
			}
		}
		g, more = next()
	}
	if err == nil {
		err = finish()
	}
	if err != nil {
		b = appendString(append(b, `],"error":`...), err.Error())
	} else {
		b = strconv.AppendInt(append(b, `],"elapsed_us":`...), time.Since(start).Microseconds(), 10)
	}
	b = append(b, '}', '\n')
	w.Write(b) //nolint:errcheck
	putBuf(p, b)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *serveHandler) handleEstimate(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	start := time.Now()
	var est deepdb.Estimate
	var err error
	if len(req.Params) > 0 {
		var stmt *deepdb.Stmt
		stmt, err = s.db.Prepare(req.SQL)
		if err == nil {
			est, err = stmt.Estimate(r.Context(), req.paramArgs()...)
		}
	} else {
		est, err = s.db.EstimateCardinality(r.Context(), req.SQL, req.execOpts()...)
	}
	if err == nil {
		err = r.Context().Err()
	}
	if err != nil {
		fail(w, r, http.StatusBadRequest, "", err)
		return
	}
	p := getBuf()
	b, err := appendEstimate(*p, est, time.Since(start).Microseconds())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	} else {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		w.Write(b) //nolint:errcheck // client gone = write errors, nothing to do
	}
	putBuf(p, b)
}

func (s *serveHandler) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	plan, err := s.db.Explain(r.Context(), req.SQL)
	if err == nil {
		err = r.Context().Err()
	}
	if err != nil {
		fail(w, r, http.StatusBadRequest, "", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Plan string `json:"plan"`
	}{plan})
}

// mutationRequest is the JSON body of /insert and /delete.
type mutationRequest struct {
	Table string `json:"table"`
	// Values holds the inserted row (insert): JSON numbers pass through,
	// strings resolve through the column's dictionary, null becomes NULL.
	Values map[string]any `json:"values,omitempty"`
	// PK locates the deleted row (delete). A pointer so a request that
	// forgot the field is rejected instead of silently targeting pk 0.
	PK *float64 `json:"pk,omitempty"`
}

// rejectMutation enforces -readonly and the POST method on the mutation
// endpoints.
func (s *serveHandler) rejectMutation(w http.ResponseWriter, r *http.Request) bool {
	if s.readonly {
		writeJSON(w, http.StatusForbidden, apiError{Error: "server is readonly"})
		return true
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST a JSON body"})
		return true
	}
	return false
}

func (s *serveHandler) decodeMutation(w http.ResponseWriter, r *http.Request) (mutationRequest, bool) {
	var req mutationRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		fail(w, r, http.StatusBadRequest, "invalid JSON body: ", err)
		return req, false
	}
	if req.Table == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing table"})
		return req, false
	}
	return req, true
}

type mutationResponse struct {
	Queued     bool   `json:"queued"`
	Generation uint64 `json:"generation"`
}

func (s *serveHandler) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.rejectMutation(w, r) {
		return
	}
	req, ok := s.decodeMutation(w, r)
	if !ok {
		return
	}
	meta := s.db.Schema().Table(req.Table)
	if meta == nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown table %s", req.Table)})
		return
	}
	values := make(map[string]deepdb.Value, len(req.Values))
	for col, v := range req.Values {
		// Reject unknown columns here: the apply path silently NULLs
		// missing ones, so a typo would otherwise insert an all-NULL row
		// and report success.
		if _, ok := meta.Column(col); !ok {
			writeJSON(w, http.StatusBadRequest,
				apiError{Error: fmt.Sprintf("table %s has no column %s", req.Table, col)})
			return
		}
		switch x := v.(type) {
		case nil:
			values[col] = deepdb.Null()
		case float64:
			values[col] = deepdb.Float(x)
		case string:
			code, err := s.db.ResolveLabel(col, x)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
				return
			}
			values[col] = deepdb.Float(code)
		default:
			writeJSON(w, http.StatusBadRequest,
				apiError{Error: fmt.Sprintf("column %s: unsupported value %v (use a number, string or null)", col, v)})
			return
		}
	}
	if err := s.db.Insert(req.Table, values); err != nil {
		s.writeMutationErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, mutationResponse{Queued: true, Generation: s.db.Generation()})
}

// writeMutationErr maps backpressure to 429 + Retry-After (the update
// queue is full and the database shed instead of blocking — the client
// should back off and retry), lost WAL durability to 503 (the fail-stop
// policy rejects writes until the process is restarted on a healthy disk;
// reads keep serving), and everything else to 400.
func (s *serveHandler) writeMutationErr(w http.ResponseWriter, err error) {
	if errors.Is(err, deepdb.ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	}
	if errors.Is(err, deepdb.ErrDurabilityLost) {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
}

func (s *serveHandler) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectMutation(w, r) {
		return
	}
	req, ok := s.decodeMutation(w, r)
	if !ok {
		return
	}
	if s.db.Schema().Table(req.Table) == nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown table %s", req.Table)})
		return
	}
	if req.PK == nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing pk"})
		return
	}
	if err := s.db.Delete(req.Table, *req.PK); err != nil {
		s.writeMutationErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, mutationResponse{Queued: true, Generation: s.db.Generation()})
}

// handleReload hot-swaps the serving model with the file named in the
// request body, through the snapshot-publication path: zero read downtime,
// and every reader sees the old model or the new one, never a mix.
// Allowed under -readonly — a model swap is an operator action, not a data
// mutation.
func (s *serveHandler) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST a JSON body"})
		return
	}
	var req struct {
		Model string `json:"model"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		fail(w, r, http.StatusBadRequest, "invalid JSON body: ", err)
		return
	}
	if req.Model == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing model"})
		return
	}
	if err := s.db.Reload(req.Model); err != nil {
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Reloaded   bool   `json:"reloaded"`
		Generation uint64 `json:"generation"`
	}{true, s.db.Generation()})
}

// handleFlush blocks until every mutation accepted before the request is
// applied and published, delivering deferred apply errors (409) — the
// read-your-writes barrier for HTTP clients. A budget spent first answers
// 503.
func (s *serveHandler) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.rejectMutation(w, r) {
		return
	}
	err := s.db.Flush(r.Context())
	if err == nil {
		err = r.Context().Err()
	}
	if err != nil {
		fail(w, r, http.StatusConflict, "", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Flushed    bool   `json:"flushed"`
		Generation uint64 `json:"generation"`
	}{true, s.db.Generation()})
}

// handleHealthz reports liveness plus the facade's own statistics,
// marshalled as they are: the key names under "updates" are the JSON tags
// of deepdb.UpdateStats, WALStats and DriftStat. "updates.wal" is present
// only with -wal, "updates.drift" only with data attached. A failed WAL
// (updates.durability_lost: writes 503 under the fail-stop policy, or are
// volatile under degrade-volatile) flips status to "degraded".
func (s *serveHandler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.db.UpdateStats()
	status := "ok"
	if st.DurabilityLost {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, struct {
		Status       string             `json:"status"`
		Models       int                `json:"models"`
		Tables       int                `json:"tables"`
		DataAttached bool               `json:"data_attached"`
		Readonly     bool               `json:"readonly"`
		Updates      deepdb.UpdateStats `json:"updates"`
	}{
		Status:       status,
		Models:       len(s.db.Models()),
		Tables:       len(s.db.Schema().Tables),
		DataAttached: s.db.Data() != nil,
		Readonly:     s.readonly,
		Updates:      st,
	})
}
