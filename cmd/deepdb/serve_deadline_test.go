package main

// serve_deadline_test.go holds -request-timeout to what README promises: a
// spent budget answers 503 with a JSON error before a response starts, a
// stalled body is cut off within the budget, and a /query that has
// streamed rows ends with an "error" member. Each check has a must-fail
// twin that runs it on a chain without the property.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// expiredAnswer checks how h answers a request to path whose budget is
// spent: 503 with a JSON error body.
func expiredAnswer(h http.Handler, path, body string) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	var e apiError
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Content-Type") != "application/json" ||
		json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		return fmt.Errorf("%s: status %d, Content-Type %q, body %.200q",
			path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	return nil
}

// timedOutTwin runs expiredAnswer on http.TimeoutHandler over h with a
// 1 ns timer. The inner handler is held until the answer is in, so the
// timer always fires first and TimeoutHandler writes its own plain-text
// 503; the inner handler then runs to its end before this returns.
func timedOutTwin(h http.Handler, path, body string) error {
	release := make(chan struct{})
	var inner sync.WaitGroup
	inner.Add(1)
	twin := http.TimeoutHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer inner.Done()
		<-release
		h.ServeHTTP(w, r)
	}), time.Nanosecond, "request timed out")
	err := expiredAnswer(twin, path, body)
	close(release)
	inner.Wait()
	return err
}

func TestServeExpiredBudget(t *testing.T) {
	db := serveFixture(t)
	c := shipped(false)
	c.requestTimeout = time.Nanosecond
	h := newServeHandler(db, c)
	plain := newServeHandler(db, serveConfig{})
	for _, rq := range []struct{ path, body string }{
		{"/estimate", `{"sql": "SELECT COUNT(*) FROM customer WHERE c_age < 40"}`},
		{"/query", manyGroups}, // before its first row
		{"/query", `{"sql": "SELECT COUNT(*) FROM customer"}`},
		{"/explain", `{"sql": "SELECT COUNT(*) FROM customer"}`},
		{"/flush", `{}`}, // nothing queued: the flush itself succeeds
	} {
		if err := expiredAnswer(h, rq.path, rq.body); err != nil {
			t.Error(err)
		}
		if err := timedOutTwin(plain, rq.path, rq.body); err == nil {
			t.Errorf("twin: %s under http.TimeoutHandler answered a JSON 503", rq.path)
		}
	}
}

// stalledBody sends headers announcing a 100-byte body, a part of it, and
// nothing more; it checks that h answers 503 with a JSON error within wait.
func stalledBody(h http.Handler, wait time.Duration) error {
	srv := httptest.NewServer(h)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close() // before srv.Close, which waits for the handler
	if _, err := io.WriteString(conn, "POST /estimate HTTP/1.1\r\nHost: deepdb\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"+`{"sql": "SELECT COUNT(*) FROM`); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		return err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return fmt.Errorf("no answer within %v: %w", wait, err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); resp.StatusCode != http.StatusServiceUnavailable || err != nil || e.Error == "" {
		return fmt.Errorf("status %d, error %q (%v)", resp.StatusCode, e.Error, err)
	}
	return nil
}

// contextOnly is withDeadline without the read deadline: the engine sees
// the budget, a body read does not.
func contextOnly(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func TestServeStalledBody(t *testing.T) {
	db := serveFixture(t)
	const budget, wait = 100 * time.Millisecond, 2 * time.Second
	c := shipped(false)
	c.requestTimeout = budget
	if err := stalledBody(newServeHandler(db, c), wait); err != nil {
		t.Fatalf("stalled body with a %v budget: %v", budget, err)
	}
	if err := stalledBody(contextOnly(newServeHandler(db, serveConfig{}), budget), wait); err == nil {
		t.Fatal("twin: a context deadline alone cut off a stalled body")
	}
}

// endsWithError checks that a /query answer streamed some rows, then
// closed with an "error" member about the deadline, as valid JSON.
func endsWithError(rec *flushRecorder) error {
	var doc struct {
		Groups []json.RawMessage `json:"groups"`
		Error  string            `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return fmt.Errorf("answer is not JSON: %v", err)
	}
	if rec.Code != http.StatusOK || len(doc.Groups) == 0 || !strings.Contains(doc.Error, "deadline") {
		return fmt.Errorf("status %d, %d rows, error %q", rec.Code, len(doc.Groups), doc.Error)
	}
	return nil
}

// TestServeQueryDeadlineMidStream: a budget that runs out after the first
// rows went out ends the object with an "error" member. The first flush
// outlasts the budget; the twin, without a budget, ends with elapsed_us.
func TestServeQueryDeadlineMidStream(t *testing.T) {
	db := serveFixture(t)
	const budget = 100 * time.Millisecond
	stall := func() func() { // sleeps through the budget at the first flush
		var once sync.Once
		return func() { once.Do(func() { time.Sleep(2 * budget) }) }
	}
	c := shipped(false)
	c.requestTimeout = budget
	rec := serveRecorded(newServeHandler(db, c), manyGroups, stall())
	if err := endsWithError(rec); err != nil {
		t.Fatal(err)
	}
	c.requestTimeout = 0
	twin := serveRecorded(newServeHandler(db, c), manyGroups, stall())
	if err := endsWithError(twin); err == nil {
		t.Fatal("twin: an answer without a budget ended with an error")
	}
}

// TestBudgetCtx: Err reads the clock until something waits on Done, Done
// then closes at the deadline, and both agree from every goroutine that
// asks at once; the request's own cancellation shows through either way.
func TestBudgetCtx(t *testing.T) {
	const budget = 20 * time.Millisecond
	c := &budgetCtx{Context: context.Background(), deadline: time.Now().Add(budget)}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(waits bool) {
			defer wg.Done()
			if waits {
				<-c.Done()
			} else {
				for c.Err() == nil {
					time.Sleep(time.Millisecond)
				}
			}
			if err := c.Err(); err != context.DeadlineExceeded {
				t.Errorf("Err after the deadline = %v", err)
			}
		}(i%2 == 0)
	}
	wg.Wait()
	select {
	case <-c.Done():
	default:
		t.Fatal("Done open after the deadline")
	}
	c.release()

	parent, cancel := context.WithCancel(context.Background())
	unarmed := &budgetCtx{Context: parent, deadline: time.Now().Add(time.Hour)}
	armed := &budgetCtx{Context: parent, deadline: time.Now().Add(time.Hour)}
	done := armed.Done()
	cancel()
	<-done
	if unarmed.Err() != context.Canceled || armed.Err() != context.Canceled {
		t.Fatalf("after the request's cancel: Err = %v unarmed, %v armed", unarmed.Err(), armed.Err())
	}
	unarmed.release()
	armed.release()
	if unarmed.Done() != parent.Done() {
		t.Fatal("Done after release arms a timer")
	}
}
