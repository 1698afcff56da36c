package main

// serve_healthz_test.go pins the /healthz wire contract: the facade's
// stats types are marshalled directly, so their JSON tags ARE the public
// key names that dashboards and the benchmark harness parse. The test
// spells out every key path, in document order, that a healthy WAL-backed
// server emits.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/deepdb"
)

// keyPaths flattens a JSON document into its key paths, in document order.
func keyPaths(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	var out []string
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("healthz is not valid JSON: %v\n%s", err, raw)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, _ := dec.Token()
				path := prefix + "." + k.(string)
				out = append(out, path)
				walk(path)
			}
			dec.Token() //nolint:errcheck // the closing brace More() announced
		case json.Delim('['):
			for i := 0; dec.More(); i++ {
				walk(fmt.Sprintf("%s[%d]", prefix, i))
			}
			dec.Token() //nolint:errcheck // the closing bracket
		}
	}
	walk("")
	return out
}

// healthzAfterWrites inserts three rows, flushes, and returns /healthz.
func healthzAfterWrites(t *testing.T, db *deepdb.DB) []byte {
	t.Helper()
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()
	for i := 0; i < 3; i++ {
		var mr mutationResponse
		if code := postJSON(t, srv, "/insert", mutationRequest{
			Table:  "orders",
			Values: map[string]any{"o_id": 920000.0 + float64(i), "o_c_id": 1.0, "o_amount": 12.5},
		}, &mr); code != http.StatusAccepted {
			t.Fatalf("insert %d: status %d, %+v", i, code, mr)
		}
	}
	var fr flushResp
	if code := postJSON(t, srv, "/flush", struct{}{}, &fr); code != http.StatusOK || !fr.Flushed {
		t.Fatalf("flush: status %d, %+v", code, fr)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// under prefixes every name with its parent path.
func under(parent string, names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = parent + "." + n
	}
	return out
}

// walKeys is a "wal" block under parent: the key itself, then its members.
func walKeys(parent string) []string {
	return append([]string{parent + ".wal"}, under(parent+".wal",
		"dir", "durability", "last_lsn", "applied_lsn", "checkpoint_lsn", "appended",
		"synced", "replayed", "truncated_segments", "segments", "size_bytes")...)
}

// updatesKeys is the "updates" block; drift lists, per ensemble member,
// whether a column shift was observed (shift_column is omitted otherwise).
func updatesKeys(drift ...bool) []string {
	out := append([]string{".updates"}, under(".updates",
		"generation", "sync_updates", "queue_depth", "enqueued", "applied", "batches",
		"errors", "last_batch", "last_apply_us", "apply_lag_us")...)
	out = append(out, walKeys(".updates")...)
	out = append(out, under(".updates",
		"plan_cache_hits", "plan_cache_misses", "plan_cache_size", "result_cache_hits",
		"result_cache_misses", "result_cache_evictions", "result_cache_size")...)
	if len(drift) > 0 {
		out = append(out, ".updates.drift")
	}
	for i, shifted := range drift {
		names := []string{"tables", "mutated", "mutated_fraction", "max_shift", "relearns"}
		if shifted {
			names = []string{"tables", "mutated", "mutated_fraction", "max_shift", "shift_column", "relearns"}
		}
		out = append(out, under(fmt.Sprintf(".updates.drift[%d]", i), names...)...)
	}
	return append(out, under(".updates", "relearns", "relearn_errors")...)
}

func assertKeys(t *testing.T, raw []byte, want []string) {
	t.Helper()
	got := keyPaths(t, raw)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/healthz keys changed.\ngot:\n%s\n\nwant:\n%s\n\nbody: %s",
			strings.Join(got, "\n"), strings.Join(want, "\n"), raw)
	}
}

// TestHealthzGoldenKeys: key for key, in order, what /healthz emits.
func TestHealthzGoldenKeys(t *testing.T) {
	ctx := context.Background()
	src := attachedFixture(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.deepdb")
	if err := src.Save(model); err != nil {
		t.Fatal(err)
	}
	top := []string{".status", ".models", ".tables", ".data_attached", ".readonly"}
	top = top[:len(top):len(top)] // appends below must copy

	t.Run("wal", func(t *testing.T) {
		db, err := deepdb.Open(ctx, model, deepdb.WithDataset(src.Data()),
			deepdb.WithWAL(filepath.Join(dir, "wal1")))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		// Two members; only "orders" was written to, so only it has shifted.
		assertKeys(t, healthzAfterWrites(t, db), append(top, updatesKeys(false, true)...))
	})
}
