package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// collectingApplier records every batch it receives.
type collectingApplier struct {
	mu      sync.Mutex
	batches [][]int
	fail    func(batch []int) error
	block   chan struct{} // when non-nil, apply waits for a tick per call
}

func (c *collectingApplier) apply(batch []int) error {
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	c.batches = append(c.batches, append([]int(nil), batch...))
	c.mu.Unlock()
	if c.fail != nil {
		return c.fail(batch)
	}
	return nil
}

func (c *collectingApplier) all() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, b := range c.batches {
		out = append(out, b...)
	}
	return out
}

// TestOrderAndFlush: mutations are applied in enqueue order; Flush waits
// for everything enqueued before it.
func TestOrderAndFlush(t *testing.T) {
	c := &collectingApplier{}
	p := New(64, 8, c.apply)
	defer p.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.Enqueue(i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := c.all()
	if len(got) != n {
		t.Fatalf("applied %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
	st := p.Stats()
	if st.Applied != n || st.Enqueued != n || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches == 0 || st.Batches > n {
		t.Fatalf("batches = %d", st.Batches)
	}
}

// TestCoalescing: mutations that queue up while the applier is busy
// coalesce into batches bounded by maxBatch.
func TestCoalescing(t *testing.T) {
	// The first apply call blocks until the channel is closed; later calls
	// sail through (receive on a closed channel returns immediately).
	c := &collectingApplier{block: make(chan struct{})}
	p := New(64, 8, c.apply)
	defer p.Close()
	if err := p.Enqueue(0, false); err != nil {
		t.Fatal(err)
	}
	// Wait for the applier to pick item 0 up and block inside apply, then
	// queue the rest behind its back.
	for p.Stats().QueueDepth != 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 20; i++ {
		if err := p.Enqueue(i, false); err != nil {
			t.Fatal(err)
		}
	}
	close(c.block)
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) < 2 {
		t.Fatalf("expected >= 2 batches, got %v", c.batches)
	}
	max := 0
	total := 0
	for _, b := range c.batches {
		if len(b) > max {
			max = len(b)
		}
		total += len(b)
		if len(b) > 8 {
			t.Fatalf("batch exceeds cap: %v", b)
		}
	}
	if total != 20 {
		t.Fatalf("applied %d of 20: %v", total, c.batches)
	}
	if max < 2 {
		t.Fatalf("no coalescing happened: %v", c.batches)
	}
}

// TestErrorDelivery: apply errors surface on the next Flush exactly once,
// and are counted in Stats.
func TestErrorDelivery(t *testing.T) {
	boom := errors.New("boom")
	c := &collectingApplier{fail: func(b []int) error {
		for _, v := range b {
			if v == 3 {
				return boom
			}
		}
		return nil
	}}
	p := New(16, 1, c.apply)
	defer p.Close()
	for i := 0; i < 6; i++ {
		if err := p.Enqueue(i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want boom", err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("second Flush = %v, want nil (error already delivered)", err)
	}
	st := p.Stats()
	if st.Errors != 1 || st.LastError == "" {
		t.Fatalf("stats = %+v", st)
	}
	// Later mutations were still applied (no rollback, no stall).
	if got := c.all(); len(got) != 6 {
		t.Fatalf("applied %d of 6", len(got))
	}
}

// TestFlushContextCancel: a cancelled context abandons the wait, and an
// apply error pending at that moment is NOT lost — the next Flush (or
// Close) still reports it.
func TestFlushContextCancel(t *testing.T) {
	boom := errors.New("boom")
	c := &collectingApplier{block: make(chan struct{}), fail: func([]int) error { return boom }}
	p := New(16, 4, c.apply)
	if err := p.Enqueue(1, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush = %v, want deadline exceeded", err)
	}
	close(c.block)
	// The abandoned barrier drains harmlessly; the apply error from the
	// batch the cancelled Flush was waiting on is still deliverable.
	if err := p.Flush(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("post-cancel Flush = %v, want boom (error must survive an abandoned Flush)", err)
	}
	p.Close()
}

// TestEnqueueWaitOwnsItsError: a producer that waits is told its batch's
// apply error directly and exactly once — Flush calls racing it never
// collect that error, and none is left pending afterwards. A batch that
// also carries a mutation nobody waited for still defers the error to
// Flush on that mutation's behalf.
func TestEnqueueWaitOwnsItsError(t *testing.T) {
	boom := errors.New("boom")
	c := &collectingApplier{fail: func(b []int) error {
		for _, m := range b {
			if m%2 == 1 {
				return fmt.Errorf("%w in %v", boom, b)
			}
		}
		return nil
	}}
	p := New(16, 4, c.apply)
	stop, stolen := make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(stolen)
		for {
			select {
			case <-stop:
				return
			default:
				if err := p.Flush(context.Background()); err != nil {
					stolen <- err
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		err := p.Enqueue(i, true)
		if want := i%2 == 1; (err != nil) != want || (want && err.Error() != fmt.Sprintf("boom in [%d]", i)) {
			t.Fatalf("Enqueue(%d, wait) = %v, want its own error: %v", i, err, want)
		}
	}
	close(stop)
	if err := <-stolen; err != nil {
		t.Fatalf("a racing Flush collected a waiting producer's error: %v", err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after waited failures = %v, want nothing pending", err)
	}
	if st := p.Stats(); st.Errors != 100 || st.Enqueued != 200 || st.Applied != 200 {
		t.Fatalf("stats = %+v, want 100 errors over 200 mutations", st)
	}

	p.Close()

	// Mixed batch: hold the applier inside batch [0], queue an unwaited 3
	// and a waited 2 behind it, release — [3 2] fails once, for both
	// audiences.
	entered, release := make(chan struct{}), make(chan struct{})
	q := New(16, 4, func(b []int) error {
		if b[0] == 0 {
			close(entered)
			<-release
			return nil
		}
		return fmt.Errorf("%w in %v", boom, b)
	})
	if err := q.Enqueue(0, false); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := q.Enqueue(3, false); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- q.Enqueue(2, true) }()
	for q.Stats().QueueDepth < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-waited; err == nil || err.Error() != "boom in [3 2]" {
		t.Fatalf("waiting producer in a mixed batch got %v, want boom in [3 2]", err)
	}
	if err := q.Flush(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Flush after a mixed failing batch = %v, want boom for the unwaited mutation", err)
	}
	q.Close()
}

// TestCloseDrainsAndRejects: Close applies everything still queued, then
// Enqueue/Flush fail cleanly and Close stays idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	c := &collectingApplier{}
	p := New(64, 8, c.apply)
	for i := 0; i < 30; i++ {
		if err := p.Enqueue(i, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.all(); len(got) != 30 {
		t.Fatalf("Close drained %d of 30", len(got))
	}
	if err := p.Enqueue(99, false); err == nil {
		t.Fatal("Enqueue after Close succeeded")
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after Close = %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestCloseTimeoutBounded: a drain that cannot finish within the bound is
// reported as a timeout instead of hanging the caller; the applier keeps
// draining in the background, and a later Close is a no-op that finds the
// queue applied.
func TestCloseTimeoutBounded(t *testing.T) {
	c := &collectingApplier{block: make(chan struct{})}
	p := New(64, 1, c.apply)
	for i := 0; i < 10; i++ {
		if err := p.Enqueue(i, false); err != nil {
			t.Fatal(err)
		}
	}
	err := p.CloseTimeout(time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("CloseTimeout with a stuck applier = %v, want drain-timeout error", err)
	}
	if err := p.Enqueue(99, false); err == nil {
		t.Fatal("Enqueue after a timed-out Close succeeded")
	}
	close(c.block) // unstick the applier
	if err := p.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if got := c.all(); len(got) != 10 {
		t.Fatalf("background drain applied %d of 10", len(got))
	}
}

// TestBackpressure: a full queue blocks Enqueue until the applier drains,
// without losing or reordering anything.
func TestBackpressure(t *testing.T) {
	c := &collectingApplier{block: make(chan struct{}, 1024)}
	p := New(2, 2, c.apply)
	defer p.Close()
	for i := 0; i < 1024; i++ {
		c.block <- struct{}{} // pre-tick so apply never waits long
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := p.Enqueue(i, false); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue stalled under backpressure")
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := c.all()
	if len(got) != 50 {
		t.Fatalf("applied %d of 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

// TestConcurrentProducers: many goroutines enqueue and flush concurrently
// under -race; per-producer order is preserved.
func TestConcurrentProducers(t *testing.T) {
	c := &collectingApplier{}
	p := New(32, 16, c.apply)
	defer p.Close()
	const producers, per = 8, 40
	var wg sync.WaitGroup
	errc := make(chan error, producers)
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := p.Enqueue(w*1000+i, false); err != nil {
					errc <- fmt.Errorf("producer %d: %w", w, err)
					return
				}
				if i%13 == 0 {
					if err := p.Flush(context.Background()); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := c.all()
	if len(got) != producers*per {
		t.Fatalf("applied %d of %d", len(got), producers*per)
	}
	last := map[int]int{}
	for _, v := range got {
		w, i := v/1000, v%1000
		if prev, ok := last[w]; ok && i <= prev {
			t.Fatalf("producer %d order broken: %d after %d", w, i, prev)
		}
		last[w] = i
	}
}
