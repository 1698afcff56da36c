package shard

// remote.go is the process-replica face of a shard: an HTTP server over
// one Shard (evaluate, apply, flush, health) plus the client and the
// core.BatchEvaluator implementation the router plugs into its engine.
//
// The wire format is binary with IEEE-754 bit patterns for every float —
// predicate ranges routinely carry ±Inf (spn.FullRange), which JSON cannot
// represent. Correctness never depends on the replica: the router holds
// the full models locally and the evaluator falls back to the local member
// on any remote failure (connection error, replica at a different ops
// token, decode mismatch), so sharded-with-replicas execution stays
// bit-identical to single-process execution unconditionally. Replicas are
// an offload, not an availability risk.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ensemble"
	"repro/internal/fault"
	"repro/internal/rspn"
	"repro/internal/spn"
	"repro/internal/wal"
)

// maxEvalBody bounds /eval and /apply request bodies.
const maxEvalBody = 8 << 20

// ---- eval payload codec ----

// encodeEvalRequest frames one evaluation call: the shard-local member
// index, the ops token the caller's view was composed at, and the request
// batch.
func encodeEvalRequest(local int, ops uint64, reqs []spn.Request) []byte {
	var b bytes.Buffer
	putUvarint(&b, uint64(local))
	putUvarint(&b, ops)
	putUvarint(&b, uint64(len(reqs)))
	for _, req := range reqs {
		putUvarint(&b, uint64(len(req.Cols)))
		for _, c := range req.Cols {
			putUvarint(&b, uint64(c.Col))
			b.WriteByte(byte(c.Fn))
			var flags byte
			if c.ExcludeNull {
				flags |= 1
			}
			b.WriteByte(flags)
			putUvarint(&b, uint64(len(c.Ranges)))
			for _, r := range c.Ranges {
				putFloat(&b, r.Lo)
				putFloat(&b, r.Hi)
				var incl byte
				if r.LoIncl {
					incl |= 1
				}
				if r.HiIncl {
					incl |= 2
				}
				b.WriteByte(incl)
			}
		}
	}
	return b.Bytes()
}

func decodeEvalRequest(payload []byte) (local int, ops uint64, reqs []spn.Request, err error) {
	r := bytes.NewReader(payload)
	l, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, nil, err
	}
	ops, err = binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, nil, err
	}
	if n > uint64(len(payload)) {
		return 0, 0, nil, fmt.Errorf("shard: eval request count %d exceeds payload", n)
	}
	reqs = make([]spn.Request, n)
	for i := range reqs {
		nc, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, 0, nil, err
		}
		if nc > uint64(len(payload)) {
			return 0, 0, nil, fmt.Errorf("shard: eval column count %d exceeds payload", nc)
		}
		cols := make([]spn.ColQuery, nc)
		for j := range cols {
			ci, err := binary.ReadUvarint(r)
			if err != nil {
				return 0, 0, nil, err
			}
			fn, err := r.ReadByte()
			if err != nil {
				return 0, 0, nil, err
			}
			flags, err := r.ReadByte()
			if err != nil {
				return 0, 0, nil, err
			}
			nr, err := binary.ReadUvarint(r)
			if err != nil {
				return 0, 0, nil, err
			}
			if nr > uint64(len(payload)) {
				return 0, 0, nil, fmt.Errorf("shard: eval range count %d exceeds payload", nr)
			}
			ranges := make([]spn.Range, nr)
			for k := range ranges {
				lo, err := getFloat(r)
				if err != nil {
					return 0, 0, nil, err
				}
				hi, err := getFloat(r)
				if err != nil {
					return 0, 0, nil, err
				}
				incl, err := r.ReadByte()
				if err != nil {
					return 0, 0, nil, err
				}
				ranges[k] = spn.Range{Lo: lo, Hi: hi, LoIncl: incl&1 != 0, HiIncl: incl&2 != 0}
			}
			if nr == 0 {
				ranges = nil
			}
			cols[j] = spn.ColQuery{Col: int(ci), Fn: spn.Fn(fn), Ranges: ranges, ExcludeNull: flags&1 != 0}
		}
		reqs[i] = spn.Request{Cols: cols}
	}
	return int(l), ops, reqs, nil
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putFloat(b *bytes.Buffer, f float64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
	b.Write(tmp[:])
}

func getFloat(r *bytes.Reader) (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(tmp[:])), nil
}

// ---- server ----

// NewServer returns the HTTP interface of one shard replica:
//
//	POST /eval    binary request batch -> binary values (409 on ops skew)
//	POST /apply   wal-encoded mutations, applied synchronously
//	POST /flush   drain the update queue
//	GET  /healthz shard id, members, gen, ops, queue depth
func NewServer(s *Shard) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/eval", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEvalBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		local, wantOps, reqs, err := decodeEvalRequest(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ens, _, ops := s.View()
		if ops != wantOps {
			// The caller's composed view and this replica disagree on
			// stream progress; answering would mix states. The router
			// falls back to its local model.
			http.Error(w, fmt.Sprintf("ops skew: have %d, want %d", ops, wantOps), http.StatusConflict)
			return
		}
		if local < 0 || local >= len(ens.RSPNs) {
			http.Error(w, fmt.Sprintf("no local member %d", local), http.StatusBadRequest)
			return
		}
		out := make([]float64, len(reqs))
		if err := ens.RSPNs[local].EvaluateRequests(reqs, out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var b bytes.Buffer
		for _, v := range out {
			putFloat(&b, v)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b.Bytes()) //nolint:errcheck // best-effort response
	})
	mux.HandleFunc("/apply", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEvalBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		muts, err := wal.DecodeMutations(payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.ApplySync(muts); err != nil {
			// Per-mutation failures still advanced ops; report them without
			// failing the replication stream.
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, err.Error())
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/flush", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := s.Flush(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "shard %d members %v gen %d ops %d queue %d\n",
			st.ID, st.Members, st.Gen, st.Ops, st.Queue.QueueDepth)
	})
	return mux
}

// ---- client ----

// The client's retry/breaker/timeout knobs live here as named constants —
// the hardtimeout analyzer enforces that the rest of the tree derives
// timeouts from the request context or from named configuration instead
// of scattering literals.
const (
	// defaultAttemptTimeout bounds a single attempt when the request ctx
	// carries no deadline (it preserves the former hardcoded 10s client
	// timeout as the no-deadline fallback).
	defaultAttemptTimeout = 10 * time.Second
	// defaultEvalAttempts is the per-request attempt budget for /eval.
	defaultEvalAttempts = 3
	// defaultBaseBackoff / defaultMaxBackoff bound the jittered
	// exponential backoff between attempts.
	defaultBaseBackoff = 25 * time.Millisecond
	defaultMaxBackoff  = time.Second
	// defaultBreakerThreshold consecutive failures open the per-peer
	// breaker for defaultBreakerCooldown.
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 2 * time.Second
)

// errCircuitOpen fails a request fast while the peer's breaker is open.
var errCircuitOpen = errors.New("shard: peer circuit open")

// statusError carries the HTTP status of a non-2xx reply so the retry
// loop can classify it: 5xx and 429 are transient (the replica or its
// queue may recover), everything else — notably 409 ops skew and 400
// malformed request — will not change on retry.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retryable reports whether a failed attempt is worth repeating.
// Transport-level errors (connection refused, reset, attempt timeout) are
// retryable; HTTP replies are retryable only when the status is 5xx/429.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return true
}

// Client talks to one shard replica server. A logical request is gated by
// a per-peer circuit breaker, retried with jittered exponential backoff,
// and each attempt runs under a timeout derived from the caller's context
// deadline (the remaining budget is split across the attempts left, so an
// early slow attempt cannot starve the retries); defaultAttemptTimeout
// applies only when the caller brought no deadline.
type Client struct {
	base string
	hc   *http.Client

	attempts       int
	baseBackoff    time.Duration
	maxBackoff     time.Duration
	attemptTimeout time.Duration
	br             *Breaker

	rng     atomic.Uint64 // backoff jitter stream
	healthy atomic.Bool
	ok      atomic.Uint64
	failed  atomic.Uint64

	errMu   sync.Mutex
	lastErr string
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithRetry sets the per-request attempt budget and the base backoff
// between attempts (non-positive values keep the defaults).
func WithRetry(attempts int, base time.Duration) ClientOption {
	return func(c *Client) {
		if attempts > 0 {
			c.attempts = attempts
		}
		if base > 0 {
			c.baseBackoff = base
		}
	}
}

// WithBreaker configures the peer's circuit breaker.
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return func(c *Client) { c.br = NewBreaker(threshold, cooldown) }
}

// NewClient returns a client for the replica at base (e.g.
// "http://127.0.0.1:9301").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:           base,
		hc:             &http.Client{},
		attempts:       defaultEvalAttempts,
		baseBackoff:    defaultBaseBackoff,
		maxBackoff:     defaultMaxBackoff,
		attemptTimeout: defaultAttemptTimeout,
		br:             NewBreaker(defaultBreakerThreshold, defaultBreakerCooldown),
	}
	for _, o := range opts {
		o(c)
	}
	c.healthy.Store(true)
	c.rng.Store(uint64(crc32.ChecksumIEEE([]byte(base))) | 1)
	return c
}

// Base returns the replica's base URL.
func (c *Client) Base() string { return c.base }

// Healthy reports the outcome of the most recent request or probe.
func (c *Client) Healthy() bool { return c.healthy.Load() }

// BreakerState returns the peer breaker's current position.
func (c *Client) BreakerState() BreakerState { return c.br.State() }

// OK and Failed count completed logical requests and probes by outcome.
func (c *Client) OK() uint64     { return c.ok.Load() }
func (c *Client) Failed() uint64 { return c.failed.Load() }

// LastError renders the most recent failure ("" if none yet).
func (c *Client) LastError() string {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.lastErr
}

// Eval answers the request batch on the replica's local member, filling
// out. Any transport, status or framing problem — after the retry budget
// is spent — is an error; the caller falls back to its local model.
func (c *Client) Eval(ctx context.Context, local int, ops uint64, reqs []spn.Request, out []float64) error {
	body := encodeEvalRequest(local, ops, reqs)
	return c.do(ctx, fault.ShardEval, "/eval", body, c.attempts, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return statusErr("eval", resp)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, int64(8*len(out))+1))
		if err != nil {
			return err
		}
		if len(raw) != 8*len(out) {
			return fmt.Errorf("shard eval: got %d bytes, want %d", len(raw), 8*len(out))
		}
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		return nil
	})
}

// Apply replicates one mutation group to the replica synchronously. It is
// a single attempt (retrying a broadcast cannot repair ordering — a
// missed apply desyncs the replica's ops token, which the /eval 409 path
// and local fallback already absorb) but still breaker-gated and bounded.
func (c *Client) Apply(ctx context.Context, muts []ensemble.Mutation) error {
	return c.do(ctx, fault.ShardApply, "/apply", wal.EncodeMutations(muts), 1, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return statusErr("apply", resp)
		}
		return nil
	})
}

// Probe checks the replica's /healthz and feeds the outcome into the
// breaker and the health flag. It deliberately bypasses the breaker's
// Allow gate — probing a peer whose breaker is open is the point: the
// periodic prober is what re-closes the breaker after heal (and keeps it
// open while the peer stays dead) without spending query traffic on
// half-open experiments.
func (c *Client) Probe(ctx context.Context) error {
	actx, cancel := c.attemptCtx(ctx, 1)
	defer cancel()
	err := fault.CheckCtx(actx, fault.ShardProbe)
	if err == nil {
		var req *http.Request
		req, err = http.NewRequestWithContext(actx, http.MethodGet, c.base+"/healthz", nil)
		if err == nil {
			var resp *http.Response
			resp, err = c.hc.Do(req)
			if err == nil {
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				if resp.StatusCode != http.StatusOK {
					err = statusErr("healthz", resp)
				}
				resp.Body.Close()
			}
		}
	}
	if err != nil {
		c.br.Failure()
		c.recordFailure(err)
		return err
	}
	c.br.Success()
	c.recordSuccess()
	return nil
}

// do runs one logical request: breaker gate, up to `attempts` tries with
// jittered exponential backoff, each attempt under a context-derived
// timeout and visible to the fault registry at pt.
func (c *Client) do(ctx context.Context, pt fault.Point, path string, body []byte, attempts int, handle func(*http.Response) error) error {
	if !c.br.Allow() {
		// Fail fast without touching the breaker or the health counters:
		// nothing new was learned about the peer.
		return fmt.Errorf("%w: %s", errCircuitOpen, c.base)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				lastErr = err
				break
			}
		}
		err := c.attempt(ctx, pt, path, body, attempts-attempt, handle)
		if err == nil {
			c.br.Success()
			c.recordSuccess()
			return nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	c.br.Failure()
	c.recordFailure(lastErr)
	return lastErr
}

func (c *Client) attempt(ctx context.Context, pt fault.Point, path string, body []byte, attemptsLeft int, handle func(*http.Response) error) error {
	actx, cancel := c.attemptCtx(ctx, attemptsLeft)
	defer cancel()
	if err := fault.CheckCtx(actx, pt); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return handle(resp)
}

// attemptCtx derives one attempt's context: the caller's remaining
// deadline budget split evenly across the attempts left, falling back to
// the configured per-attempt timeout when the caller brought no deadline.
func (c *Client) attemptCtx(ctx context.Context, attemptsLeft int) (context.Context, context.CancelFunc) {
	timeout := c.attemptTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			per := rem / time.Duration(attemptsLeft)
			if timeout <= 0 || per < timeout {
				timeout = per
			}
		}
	}
	if timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, timeout)
}

// sleepBackoff waits the jittered exponential backoff before retry
// `attempt` (>= 1), respecting ctx cancellation. Full jitter — uniform in
// (0, cap] — decorrelates peers retrying after a shared failure event.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	d := c.baseBackoff << (attempt - 1)
	if d <= 0 || d > c.maxBackoff {
		d = c.maxBackoff
	}
	d = time.Duration(1 + uint64(float64(d)*c.jitter()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter draws the next [0,1) value from the client's splitmix64 stream.
func (c *Client) jitter() float64 {
	x := c.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (c *Client) recordSuccess() {
	c.ok.Add(1)
	c.healthy.Store(true)
}

func (c *Client) recordFailure(err error) {
	c.failed.Add(1)
	c.healthy.Store(false)
	if err == nil {
		return
	}
	c.errMu.Lock()
	c.lastErr = err.Error()
	c.errMu.Unlock()
}

func statusErr(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("shard %s: %s: %s", op, resp.Status, bytes.TrimSpace(msg))}
}

// ---- router-side evaluator ----

// RemoteEvaluator implements core.BatchEvaluator over a set of replica
// bindings: members bound to a replica are evaluated there, everything
// else — and every remote failure — on the local model. Bindings are
// immutable after construction (the host builds a fresh evaluator per
// composed view), so concurrent evaluation chunks need no locking; only
// the ops token the view is valid at can move (Advance).
type RemoteEvaluator struct {
	refs map[*rspn.RSPN]remoteRef
	ops  atomic.Uint64
	hits atomic.Uint64
	miss atomic.Uint64
}

type remoteRef struct {
	c     *Client
	local int
}

// NewRemoteEvaluator returns an evaluator with no bindings.
func NewRemoteEvaluator() *RemoteEvaluator {
	return &RemoteEvaluator{refs: map[*rspn.RSPN]remoteRef{}}
}

// Bind routes r to the replica at c, as that replica's local member index,
// valid for views composed at the given ops token (one token per
// evaluator: every binding of a view shares it).
func (e *RemoteEvaluator) Bind(r *rspn.RSPN, c *Client, local int, ops uint64) {
	e.refs[r] = remoteRef{c: c, local: local}
	e.ops.Store(ops)
}

// Advance moves the bindings to a later ops token: the stream advanced
// under an unchanged view (a batch in which nothing applied), so replicas
// at the new token hold exactly the models this view serves.
func (e *RemoteEvaluator) Advance(ops uint64) { e.ops.Store(ops) }

// Hits counts chunks answered remotely; Fallbacks counts chunks that fell
// back to the local model after a remote failure.
func (e *RemoteEvaluator) Hits() uint64      { return e.hits.Load() }
func (e *RemoteEvaluator) Fallbacks() uint64 { return e.miss.Load() }

// EvaluateRSPN implements core.BatchEvaluator.
func (e *RemoteEvaluator) EvaluateRSPN(ctx context.Context, r *rspn.RSPN, reqs []spn.Request, out []float64) error {
	if ref, ok := e.refs[r]; ok {
		if err := ref.c.Eval(ctx, ref.local, e.ops.Load(), reqs, out); err == nil {
			e.hits.Add(1)
			return nil
		}
		e.miss.Add(1)
	}
	return r.EvaluateRequests(reqs, out)
}
