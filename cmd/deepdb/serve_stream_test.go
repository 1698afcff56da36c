package main

// serve_stream_test.go pins the wire contract of /query. Its one encoder
// is fed from two sources — the chunked row iterator for parameterless
// requests, a prepared statement's result for requests with params — and
// the same logical query must produce identical bytes from either, except
// for the trailing elapsed_us measurement. Those bytes must be exactly
// encoding/json's rendering of the documented response shape (same field
// order, same escaping, same trailing newline), and the response must go
// out chunked.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/deepdb"
)

// rawPost posts a JSON body and returns the raw response bytes.
func rawPost(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// stripElapsed cuts a /query response off at its elapsed_us member, which
// legitimately differs per request; everything before it must match.
func stripElapsed(t *testing.T, raw []byte) string {
	t.Helper()
	i := bytes.LastIndex(raw, []byte(`,"elapsed_us":`))
	if i < 0 {
		t.Fatalf("response missing elapsed_us: %s", raw)
	}
	return string(raw[:i])
}

// TestServeQueryStreamedMatchesBuffered compares every query class across
// the two /query row sources: parameterless requests stream row by row,
// parameterized requests execute eagerly through the prepared-statement
// path. The same logical query must produce identical bytes either way,
// and each response must survive a decode/re-encode round trip through
// encoding/json byte for byte — the independent reference for the
// hand-framed writer.
func TestServeQueryStreamedMatchesBuffered(t *testing.T) {
	db := serveFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()

	cases := []struct {
		name     string
		streamed string // literal SQL, runs the streaming path
		buffered string // same query as a template + params, runs the prepared path
	}{
		{
			"grouped-count",
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_age >= 30 GROUP BY c_region"}`,
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_age >= ? GROUP BY c_region", "params": [30]}`,
		},
		{
			"grouped-join-avg",
			`{"sql": "SELECT AVG(o_amount) FROM customer JOIN orders WHERE c_age < 55 GROUP BY c_region"}`,
			`{"sql": "SELECT AVG(o_amount) FROM customer JOIN orders WHERE c_age < ? GROUP BY c_region", "params": [55]}`,
		},
		{
			"grouped-string-predicate",
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_region = 'EU' GROUP BY c_region"}`,
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_region = ? GROUP BY c_region", "params": ["EU"]}`,
		},
		{
			"ungrouped",
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_age >= 40"}`,
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_age >= ?", "params": [40]}`,
		},
		{
			"confidence-override",
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_age >= 40 GROUP BY c_region", "confidence": 0.8}`,
			`{"sql": "SELECT COUNT(*) FROM customer WHERE c_age >= ? GROUP BY c_region", "params": [40], "confidence": 0.8}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sResp, sRaw := rawPost(t, srv, "/query", tc.streamed)
			bResp, bRaw := rawPost(t, srv, "/query", tc.buffered)
			if sResp.StatusCode != http.StatusOK || bResp.StatusCode != http.StatusOK {
				t.Fatalf("status streamed=%d buffered=%d\nstreamed: %s\nbuffered: %s",
					sResp.StatusCode, bResp.StatusCode, sRaw, bRaw)
			}
			if got, want := stripElapsed(t, sRaw), stripElapsed(t, bRaw); got != want {
				t.Fatalf("streamed bytes differ from buffered\n  streamed: %s\n  buffered: %s", got, want)
			}
			// Both must be complete JSON documents, byte for byte what
			// json.Encoder writes for the documented response shape.
			for _, raw := range [][]byte{sRaw, bRaw} {
				var doc struct {
					Groups    []deepdb.Group `json:"groups"`
					ElapsedUS int64          `json:"elapsed_us"`
				}
				dec := json.NewDecoder(bytes.NewReader(raw))
				dec.DisallowUnknownFields() // an "error" member included
				if err := dec.Decode(&doc); err != nil {
					t.Fatalf("response not the documented shape: %v\n%s", err, raw)
				}
				if len(doc.Groups) == 0 {
					t.Fatalf("no groups in %s", raw)
				}
				var ref bytes.Buffer
				enc := json.NewEncoder(&ref)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(doc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, ref.Bytes()) {
					t.Fatalf("response is not encoding/json's rendering\n  got:  %q\n  want: %q", raw, ref.Bytes())
				}
			}
			// The streaming path must not buffer the whole response behind
			// a Content-Length: it goes out chunked.
			if len(sResp.TransferEncoding) == 0 || sResp.TransferEncoding[0] != "chunked" {
				t.Fatalf("streamed response not chunked: TransferEncoding=%v", sResp.TransferEncoding)
			}
		})
	}

	// A parse error on the streaming path still answers a regular 400
	// JSON error document (nothing has been streamed yet).
	resp, raw := rawPost(t, srv, "/query", `{"sql": "SELECT NONSENSE"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sql: status %d, body %s", resp.StatusCode, raw)
	}
	var e apiError
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("bad sql: malformed error body %s", raw)
	}
}

// flushRecorder records, at every Flush, how much of the body had been
// written, and runs onFlush (when set) after it.
type flushRecorder struct {
	*httptest.ResponseRecorder
	at      []int
	onFlush func()
}

func (r *flushRecorder) Flush() {
	r.at = append(r.at, r.Body.Len())
	r.ResponseRecorder.Flush()
	if r.onFlush != nil {
		r.onFlush()
	}
}

// manyGroups is a GROUP BY of the serve fixture with 5 400 rows, many
// times streamFlushRows.
const manyGroups = `{"sql": "SELECT COUNT(*) FROM customer JOIN orders GROUP BY c_age, o_amount"}`

// serveRecorded runs one /query with body through h on a flushRecorder.
func serveRecorded(h http.Handler, body string, onFlush func()) *flushRecorder {
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), onFlush: onFlush}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return rec
}

// streamed reports whether the handler flushed more than once while it
// ran, the first time with only part of the answer written.
func streamed(rec *flushRecorder) error {
	if len(rec.at) < 2 || rec.at[0] >= rec.Body.Len() {
		return fmt.Errorf("%d flushes, at body lengths %v of %d", len(rec.at), rec.at, rec.Body.Len())
	}
	return nil
}

// TestServeQueryStreams: through the chain cmdServe serves, a GROUP BY of
// more rows than streamFlushRows reaches the connection in pieces while the
// handler runs. The must-fail twin is the chain as it was, the mux inside
// http.TimeoutHandler: it buffers the whole answer and never flushes, so
// the same check fails on it.
func TestServeQueryStreams(t *testing.T) {
	db := serveFixture(t)
	rec := serveRecorded(newServeHandler(db, shipped(false)), manyGroups, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
	}
	if err := streamed(rec); err != nil {
		t.Fatalf("the shipped chain did not stream: %v", err)
	}
	t.Logf("%d flushes at body lengths %v", len(rec.at), rec.at[:2])
	twin := serveRecorded(http.TimeoutHandler(newServeHandler(db, serveConfig{}), time.Minute, "request timed out"), manyGroups, nil)
	if err := streamed(twin); err == nil || len(twin.at) != 0 {
		t.Fatalf("twin: a TimeoutHandler-wrapped chain flushed %d times", len(twin.at))
	}
	if got, want := stripElapsed(t, rec.Body.Bytes()), stripElapsed(t, twin.Body.Bytes()); got != want {
		t.Fatal("streamed and buffered answers differ")
	}
}
