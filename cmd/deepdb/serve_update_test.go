package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/deepdb"
)

// attachedFixture learns the serve fixture's schema with data attached, so
// the mutation endpoints work.
func attachedFixture(t testing.TB) *deepdb.DB {
	t.Helper()
	ctx := context.Background()
	s := &deepdb.Schema{Tables: []*deepdb.TableDef{
		{
			Name:       "customer",
			PrimaryKey: "c_id",
			Columns: []deepdb.ColumnDef{
				{Name: "c_id", Kind: deepdb.IntKind},
				{Name: "c_age", Kind: deepdb.IntKind},
				{Name: "c_region", Kind: deepdb.CategoricalKind},
			},
		},
		{
			Name:       "orders",
			PrimaryKey: "o_id",
			Columns: []deepdb.ColumnDef{
				{Name: "o_id", Kind: deepdb.IntKind},
				{Name: "o_c_id", Kind: deepdb.IntKind},
				{Name: "o_amount", Kind: deepdb.FloatKind},
			},
			ForeignKeys: []deepdb.ForeignKey{{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"}},
		},
	}}
	cust := deepdb.NewTable(s.Table("customer"))
	ord := deepdb.NewTable(s.Table("orders"))
	region := cust.Column("c_region")
	regions := []string{"EU", "ASIA", "US"}
	oid := 0
	for i := 0; i < 800; i++ {
		cust.AppendRow(deepdb.Int(i), deepdb.Int(18+(i*7)%60),
			deepdb.Float(float64(region.Encode(regions[i%3]))))
		for k := 0; k <= i%2; k++ {
			ord.AppendRow(deepdb.Int(oid), deepdb.Int(i), deepdb.Float(float64(10+(oid*13)%90)))
			oid++
		}
	}
	db, err := deepdb.LearnDataset(ctx, s, deepdb.Dataset{"customer": cust, "orders": ord},
		deepdb.WithMaxSamples(2000), deepdb.WithSingleTableOnly())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func pkOf(v float64) *float64 { return &v }

type flushResp struct {
	Flushed    bool   `json:"flushed"`
	Generation uint64 `json:"generation"`
	Error      string `json:"error"`
}

type healthResp struct {
	Status       string `json:"status"`
	DataAttached bool   `json:"data_attached"`
	Readonly     bool   `json:"readonly"`
	Updates      struct {
		Generation uint64 `json:"generation"`
		QueueDepth int    `json:"queue_depth"`
		Enqueued   uint64 `json:"enqueued"`
		Applied    uint64 `json:"applied"`
		Batches    uint64 `json:"batches"`
		Errors     uint64 `json:"errors"`
	} `json:"updates"`
}

// TestServeUpdateEndpoints drives /insert (numbers, strings, null),
// /delete, /flush and the update stats in /healthz end to end.
func TestServeUpdateEndpoints(t *testing.T) {
	db := attachedFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()
	ctx := context.Background()

	before, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}

	var mr mutationResponse
	if code := postJSON(t, srv, "/insert", mutationRequest{
		Table:  "orders",
		Values: map[string]any{"o_id": 900001.0, "o_c_id": 1.0, "o_amount": 55.5},
	}, &mr); code != http.StatusAccepted || !mr.Queued {
		t.Fatalf("insert: status %d, %+v", code, mr)
	}
	// A string value resolves through the dictionary; an unknown one 400s.
	if code := postJSON(t, srv, "/insert", mutationRequest{
		Table:  "customer",
		Values: map[string]any{"c_id": 900002.0, "c_age": nil, "c_region": "EU"},
	}, &mr); code != http.StatusAccepted {
		t.Fatalf("string insert: status %d, %+v", code, mr)
	}
	var apiErr apiError
	if code := postJSON(t, srv, "/insert", mutationRequest{
		Table:  "customer",
		Values: map[string]any{"c_id": 900003.0, "c_region": "ATLANTIS"},
	}, &apiErr); code != http.StatusBadRequest || !strings.Contains(apiErr.Error, "ATLANTIS") {
		t.Fatalf("unknown label insert: status %d, %+v", code, apiErr)
	}
	// A typoed column must 400, not silently insert an all-NULL row.
	if code := postJSON(t, srv, "/insert", mutationRequest{
		Table:  "orders",
		Values: map[string]any{"o_ammount": 50.0},
	}, &apiErr); code != http.StatusBadRequest || !strings.Contains(apiErr.Error, "o_ammount") {
		t.Fatalf("unknown column insert: status %d, %+v", code, apiErr)
	}
	if code := postJSON(t, srv, "/insert", mutationRequest{
		Table: "nope", Values: map[string]any{"x": 1.0},
	}, &apiErr); code != http.StatusBadRequest || !strings.Contains(apiErr.Error, "unknown table") {
		t.Fatalf("unknown table insert: status %d, %+v", code, apiErr)
	}
	if code := postJSON(t, srv, "/delete", mutationRequest{Table: "orders", PK: pkOf(0)}, &mr); code != http.StatusAccepted {
		t.Fatalf("delete: status %d, %+v", code, mr)
	}
	// A delete without pk must be rejected, not target pk 0; a typo'd
	// table must fail here, not as a deferred flush error.
	if code := postJSON(t, srv, "/delete", mutationRequest{Table: "orders"}, &apiErr); code != http.StatusBadRequest ||
		!strings.Contains(apiErr.Error, "missing pk") {
		t.Fatalf("pk-less delete: status %d, %+v", code, apiErr)
	}
	if code := postJSON(t, srv, "/delete", mutationRequest{Table: "order", PK: pkOf(1)}, &apiErr); code != http.StatusBadRequest ||
		!strings.Contains(apiErr.Error, "unknown table") {
		t.Fatalf("unknown-table delete: status %d, %+v", code, apiErr)
	}

	var fr flushResp
	if code := postJSON(t, srv, "/flush", struct{}{}, &fr); code != http.StatusOK || !fr.Flushed {
		t.Fatalf("flush: status %d, %+v", code, fr)
	}
	if fr.Generation == 0 {
		t.Fatal("flush reported generation 0 after mutations")
	}

	// Net effect on orders: +1 insert, -1 delete -> unchanged count; the
	// customer insert grew that table.
	after, err := db.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Scalar()-before.Scalar()) > 1e-6 {
		t.Fatalf("orders count %v -> %v, want unchanged", before.Scalar(), after.Scalar())
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResp
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.DataAttached || health.Readonly {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Updates.Enqueued != 3 || health.Updates.Applied != 3 ||
		health.Updates.Batches == 0 || health.Updates.QueueDepth != 0 {
		t.Fatalf("healthz updates = %+v", health.Updates)
	}
	if health.Updates.Generation != fr.Generation {
		t.Fatalf("healthz generation %d != flush generation %d", health.Updates.Generation, fr.Generation)
	}

	// A flush after a failing apply surfaces the deferred error.
	if code := postJSON(t, srv, "/delete", mutationRequest{Table: "orders", PK: pkOf(123456789)}, &mr); code != http.StatusAccepted {
		t.Fatalf("bogus delete: status %d", code)
	}
	if code := postJSON(t, srv, "/flush", struct{}{}, &apiErr); code != http.StatusConflict ||
		!strings.Contains(apiErr.Error, "no row with pk") {
		t.Fatalf("flush after bad delete: status %d, %+v", code, apiErr)
	}
}

// TestServeReadonly: -readonly rejects every mutation endpoint with 403
// while queries keep working.
func TestServeReadonly(t *testing.T) {
	db := serveFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(true)))
	defer srv.Close()

	for _, path := range []string{"/insert", "/delete", "/flush"} {
		var apiErr apiError
		if code := postJSON(t, srv, path, mutationRequest{Table: "orders"}, &apiErr); code != http.StatusForbidden {
			t.Fatalf("%s: status %d, want 403", path, code)
		}
	}
	var est estimateResp
	if code := postJSON(t, srv, "/estimate",
		apiRequest{SQL: "SELECT COUNT(*) FROM customer WHERE c_age >= 40"}, &est); code != http.StatusOK {
		t.Fatalf("readonly estimate: status %d, error %q", code, est.Error)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResp
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Readonly {
		t.Fatal("healthz does not report readonly")
	}
}

// TestServeMutationWithoutData: mutations on a data-free server fail with
// a clear error instead of queueing something unappliable.
func TestServeMutationWithoutData(t *testing.T) {
	db := serveFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()
	var apiErr apiError
	if code := postJSON(t, srv, "/insert", mutationRequest{
		Table: "orders", Values: map[string]any{"o_id": 1.0},
	}, &apiErr); code != http.StatusBadRequest || !strings.Contains(apiErr.Error, "no base tables") {
		t.Fatalf("insert without data: status %d, %+v", code, apiErr)
	}
}
