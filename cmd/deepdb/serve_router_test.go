package main

// serve_router_test.go covers the serving tier's hardening: body-size
// bounds, in-flight load shedding, backpressure mapping to 429 +
// Retry-After, and the /reload hot-swap endpoint.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/deepdb"
)

func TestWriteMutationErrBackpressure(t *testing.T) {
	s := &serveHandler{}
	rec := httptest.NewRecorder()
	s.writeMutationErr(rec, fmt.Errorf("wrapped: %w", deepdb.ErrQueueFull))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After gives clients no backoff hint")
	}
	rec = httptest.NewRecorder()
	s.writeMutationErr(rec, errors.New("unknown column"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("plain error status = %d, want 400", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("a 400 must not carry Retry-After — retrying cannot fix it")
	}
}

func TestInflightLimiterSheds(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(withInflightLimit(inner, 1))
	defer srv.Close()
	defer close(release)

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/query")
		if err == nil {
			resp.Body.Close()
		}
		firstDone <- err
	}()
	<-entered // the single slot is now held

	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second in-flight request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Health stays observable under exactly this overload.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz got %d under load, want 200", hresp.StatusCode)
	}
	release <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
}

func TestMaxBodyBoundsRequests(t *testing.T) {
	db := serveFixture(t)
	defer db.Close()
	c := shipped(false)
	c.maxBody = 64
	srv := httptest.NewServer(newServeHandler(db, c))
	defer srv.Close()

	big := fmt.Sprintf(`{"sql": %q}`, "SELECT COUNT(*) FROM customer WHERE "+strings.Repeat("c_age > 1 AND ", 50)+"c_age > 1")
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body got %d, want 400", resp.StatusCode)
	}
	// A request under the bound still works.
	resp, err = http.Post(srv.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"sql":"SELECT COUNT(*) FROM customer"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body got %d, want 200", resp.StatusCode)
	}
}

func TestReloadEndpoint(t *testing.T) {
	db := serveFixture(t)
	defer db.Close()
	path := filepath.Join(t.TempDir(), "next.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeHandler(db, shipped(true) /* readonly: reload is an operator action */))
	defer srv.Close()

	genBefore := db.Generation()
	var ok struct {
		Reloaded   bool   `json:"reloaded"`
		Generation uint64 `json:"generation"`
	}
	if code := postJSON(t, srv, "/reload", map[string]string{"model": path}, &ok); code != http.StatusOK {
		t.Fatalf("reload got %d, want 200", code)
	}
	if !ok.Reloaded || ok.Generation <= genBefore {
		t.Fatalf("reload response %+v with prior generation %d", ok, genBefore)
	}
	var apiErr apiError
	if code := postJSON(t, srv, "/reload", map[string]string{"model": filepath.Join(t.TempDir(), "missing.deepdb")}, &apiErr); code != http.StatusConflict {
		t.Fatalf("missing model got %d, want 409 (old model keeps serving)", code)
	}
	if code := postJSON(t, srv, "/reload", map[string]string{}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("empty model got %d, want 400", code)
	}
	// The failed reloads above must not have torn down serving.
	resp, err := http.Get(srv.URL + "/query?sql=" + "SELECT%20COUNT(*)%20FROM%20customer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after failed reload got %d, want 200", resp.StatusCode)
	}
}
