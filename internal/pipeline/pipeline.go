// Package pipeline implements the asynchronous update pipeline behind
// deepdb's snapshot-isolated serving: a bounded mutation queue drained by
// one background applier goroutine that coalesces whatever has queued up
// into batches and hands each batch to an apply callback (which, in the
// facade, mutates a private copy-on-write clone and atomically publishes
// it). Readers never touch the queue; writers block only when the queue is
// full (backpressure), never on the apply itself.
//
// The package is generic over the mutation type so it can be tested — and
// reused — without depending on the ensemble machinery.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
)

// Stats is a point-in-time snapshot of pipeline counters, the substance of
// deepdb.DB.UpdateStats.
type Stats struct {
	// QueueDepth is the number of items enqueued but not yet handed to
	// the apply callback.
	QueueDepth int
	// Enqueued / Applied count items accepted / passed to apply (the
	// latter includes items whose batch returned an error). An item is
	// one T — the facade enqueues one per update operation.
	Enqueued uint64
	Applied  uint64
	// Batches counts apply invocations; Applied/Batches is the realized
	// coalescing factor.
	Batches uint64
	// Errors counts batches whose apply returned an error; LastError
	// renders the most recent one.
	Errors    uint64
	LastError string
	// LastBatch is the size of the most recent batch.
	LastBatch int
	// LastApplyDuration is how long the most recent apply took.
	LastApplyDuration time.Duration
	// ApplyLag is the enqueue-to-applied latency of the most recently
	// applied batch's first mutation — how far behind the published state
	// trails the write stream.
	ApplyLag time.Duration
}

// item is one queue entry: a mutation, or a flush barrier when done is
// non-nil. A barrier only signals completion (the channel is closed once
// everything enqueued before it was applied); the waiting Flush then
// collects the pending error itself, so a Flush abandoned by context
// cancellation leaves the error in place for the next one. A mutation
// whose producer waits carries res, which receives its batch's apply error.
type item[T any] struct {
	mut  T
	enq  time.Time
	done chan struct{}
	res  chan error
}

// Pipeline is a bounded queue of T drained by one background applier.
type Pipeline[T any] struct {
	apply    func([]T) error
	ch       chan item[T]
	maxBatch int

	// sendMu lets Enqueue/Flush block on a full queue while still being
	// excludable by Close: senders hold it shared for the duration of the
	// channel send, Close takes it exclusively to flip closed and close
	// the channel. The applier drains without the lock, so blocked senders
	// always make progress and Close cannot deadlock.
	sendMu sync.RWMutex
	closed bool

	mu         sync.Mutex
	stats      Stats
	pendingErr error // first apply error no producer waited for, not yet surfaced through Flush

	wg sync.WaitGroup
}

// New builds a pipeline with the given queue bound, maximum batch size and
// apply callback. The callback runs on the applier goroutine only, one
// invocation at a time, with batches in strict enqueue order. The applier
// starts with the first mutation: a pipeline that is never fed holds no
// goroutine, and nothing is lost by not closing it.
func New[T any](queueSize, maxBatch int, apply func([]T) error) *Pipeline[T] {
	if queueSize < 1 {
		queueSize = 1
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &Pipeline[T]{apply: apply, ch: make(chan item[T], queueSize), maxBatch: maxBatch}
}

// send queues one item, blocking while the queue is full. It reports false
// when there is nothing to queue behind: after Close, and for a barrier on
// a pipeline no mutation has entered yet.
func (p *Pipeline[T]) send(it item[T]) bool {
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return false
	}
	p.mu.Lock()
	if it.done == nil {
		if p.stats.Enqueued++; p.stats.Enqueued == 1 {
			p.wg.Add(1)
			go p.run()
		}
	}
	fed := p.stats.Enqueued > 0
	p.mu.Unlock()
	if fed {
		p.ch <- it
	}
	return fed
}

// Enqueue appends one mutation, blocking when the queue is full until the
// applier frees a slot. With wait it also blocks until the mutation's batch
// has been applied and returns that batch's apply error — the producer's
// own result, which no Flush can collect instead; a producer that alone
// feeds the queue while it waits gets a batch of exactly its mutation.
// Without wait, apply errors are deferred to the next Flush. It fails
// without queueing only after Close.
func (p *Pipeline[T]) Enqueue(m T, wait bool) error {
	it := item[T]{mut: m, enq: time.Now()}
	if wait {
		it.res = make(chan error, 1)
	}
	if !p.send(it) {
		return fmt.Errorf("pipeline: closed")
	}
	if !wait {
		return nil
	}
	return <-it.res
}

// HasCapacity reports whether at least one queue slot is currently free. A
// positive answer can go stale immediately under concurrency; it is meant
// as an admission check by callers that must do irrevocable work (a WAL
// append) before the enqueue and prefer shedding over blocking.
func (p *Pipeline[T]) HasCapacity() bool { return len(p.ch) < cap(p.ch) }

// Flush blocks until every mutation enqueued before the call has been
// applied (and, through the callback, published), then reports the first
// apply error that occurred since the previous Flush — read-your-writes
// plus deferred error delivery for producers that did not wait. A
// cancelled ctx abandons the wait (the flush barrier still drains
// harmlessly later).
func (p *Pipeline[T]) Flush(ctx context.Context) error {
	done := make(chan struct{})
	if !p.send(item[T]{done: done}) {
		// Everything was drained by Close, or nothing was ever enqueued;
		// only deliver a pending error.
		return p.takePendingErr()
	}
	select {
	case <-done:
		return p.takePendingErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue, applies what remains, stops the applier and
// returns the first undelivered apply error. Enqueue/Flush calls racing
// Close either complete normally or report the pipeline closed. Close is
// idempotent.
func (p *Pipeline[T]) Close() error {
	return p.CloseTimeout(0)
}

// CloseTimeout is Close with a bound on the drain: if the applier has not
// finished the remaining queue within d, it reports a timeout error and
// returns — the applier keeps draining in the background (it owns no
// resources beyond the goroutine), but the pending queue may not have been
// applied when CloseTimeout returns. d <= 0 waits without bound.
func (p *Pipeline[T]) CloseTimeout(d time.Duration) error {
	p.sendMu.Lock()
	already := p.closed
	p.closed = true
	if !already {
		close(p.ch)
	}
	p.sendMu.Unlock()
	if d <= 0 {
		p.wg.Wait()
		return p.takePendingErr()
	}
	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return p.takePendingErr()
	case <-time.After(d):
		return fmt.Errorf("pipeline: close timed out after %v with the queue not fully drained", d)
	}
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline[T]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.QueueDepth = len(p.ch)
	return s
}

func (p *Pipeline[T]) takePendingErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.pendingErr
	p.pendingErr = nil
	return err
}

// run is the applier loop: take one item, greedily coalesce whatever else
// is immediately available (up to maxBatch mutations), apply, hand the
// result to the producers waiting for it, signal any flush barriers that
// rode along, repeat.
func (p *Pipeline[T]) run() {
	defer p.wg.Done()
	for first := range p.ch {
		muts := make([]T, 0, p.maxBatch)
		var barriers []chan struct{}
		var waiters []chan error
		var oldest time.Time
		add := func(it item[T]) {
			if it.done != nil {
				barriers = append(barriers, it.done)
				return
			}
			if it.res != nil {
				waiters = append(waiters, it.res)
			}
			if oldest.IsZero() {
				oldest = it.enq
			}
			muts = append(muts, it.mut)
		}
		add(first)
	drain:
		for len(muts) < p.maxBatch {
			select {
			case it, ok := <-p.ch:
				if !ok {
					break drain
				}
				add(it)
			default:
				break drain
			}
		}
		var err error
		if len(muts) > 0 {
			start := time.Now()
			// Injected applier faults fail the batch without running the
			// apply callback: the facade's apply watermark never advances, so WAL
			// replay recovers the batch on restart exactly as it would
			// after an organic applier failure.
			if r := fault.Check(fault.PipelineApply); r.Err != nil {
				err = r.Err
			} else {
				err = p.apply(muts)
			}
			p.mu.Lock()
			p.stats.Applied += uint64(len(muts))
			p.stats.Batches++
			p.stats.LastBatch = len(muts)
			p.stats.LastApplyDuration = time.Since(start)
			p.stats.ApplyLag = time.Since(oldest)
			if err != nil {
				p.stats.Errors++
				p.stats.LastError = err.Error()
				// Deferred for Flush only on behalf of a producer that did
				// not wait; the waiting ones are told directly, once.
				if p.pendingErr == nil && len(waiters) < len(muts) {
					p.pendingErr = err
				}
			}
			p.mu.Unlock()
		}
		for _, w := range waiters {
			w <- err
		}
		for _, b := range barriers {
			close(b)
		}
	}
}
