package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/deepdb"
)

// serveFixture learns a small model with a categorical column, saves it,
// and reopens it WITHOUT data — the serving configuration `deepdb serve
// -model file` runs in.
func serveFixture(t testing.TB) *deepdb.DB {
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
	for i := 0; i < 1500; i++ {
		r := regions[i%3]
		cust.AppendRow(deepdb.Int(i), deepdb.Int(18+(i*7)%60), deepdb.Float(float64(region.Encode(r))))
		for k := 0; k <= i%3; k++ {
			ord.AppendRow(deepdb.Int(oid), deepdb.Int(i), deepdb.Float(float64(10+(oid*13)%90)))
			oid++
		}
	}
	db, err := deepdb.LearnDataset(ctx, s, deepdb.Dataset{"customer": cust, "orders": ord},
		deepdb.WithMaxSamples(3000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	modelOnly, err := deepdb.Open(ctx, path) // no data: fully data-free
	if err != nil {
		t.Fatal(err)
	}
	return modelOnly
}

// shipped is the configuration cmdServe serves with under its default
// flags, readonly as asked.
func shipped(readonly bool) serveConfig {
	c := defaultServeConfig
	c.readonly = readonly
	return c
}

// postJSON posts a request body and decodes the JSON response into out.
func postJSON(t *testing.T, srv *httptest.Server, path string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode
}

type estimateResp struct {
	Value     float64 `json:"value"`
	Variance  float64 `json:"variance"`
	CILow     float64 `json:"ci_low"`
	CIHigh    float64 `json:"ci_high"`
	ElapsedUS int64   `json:"elapsed_us"`
	Error     string  `json:"error"`
}

type queryResp struct {
	Groups []struct {
		Key    []float64 `json:"key"`
		Labels []string  `json:"labels"`
		Value  float64   `json:"value"`
		CILow  float64   `json:"ci_low"`
		CIHigh float64   `json:"ci_high"`
	} `json:"groups"`
	ElapsedUS int64  `json:"elapsed_us"`
	Error     string `json:"error"`
}

// TestServeEndpoints drives every endpoint of the data-free server: all
// query classes including string-literal predicates (persisted
// dictionaries), parameterized requests, explain and health.
func TestServeEndpoints(t *testing.T) {
	db := serveFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()

	// /healthz reports the data-free configuration.
	var health struct {
		Status       string `json:"status"`
		Models       int    `json:"models"`
		DataAttached bool   `json:"data_attached"`
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models == 0 || health.DataAttached {
		t.Fatalf("healthz = %+v", health)
	}

	// /estimate across query classes, incl. a string literal (needs the
	// persisted dictionaries) and a join (Theorem 2 or superset RSPN).
	for _, sql := range []string{
		"SELECT COUNT(*) FROM customer WHERE c_age >= 40",
		"SELECT COUNT(*) FROM customer WHERE c_region = 'EU'",
		"SELECT COUNT(*) FROM customer JOIN orders WHERE o_amount >= 50 AND c_region = 'ASIA'",
		"SELECT COUNT(*) FROM customer JOIN orders WHERE (c_age < 25 OR o_amount > 80)",
	} {
		var est estimateResp
		if code := postJSON(t, srv, "/estimate", apiRequest{SQL: sql}, &est); code != http.StatusOK {
			t.Fatalf("%s: status %d, error %q", sql, code, est.Error)
		}
		if est.Value < 0 || est.CIHigh < est.CILow {
			t.Fatalf("%s: implausible estimate %+v", sql, est)
		}
		// The endpoint must agree exactly with the library call.
		want, err := db.EstimateCardinality(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value != want.Value {
			t.Fatalf("%s: served %v != library %v", sql, est.Value, want.Value)
		}
	}

	// /query with GROUP BY: labels decode through persisted dictionaries.
	var qr queryResp
	if code := postJSON(t, srv, "/query",
		apiRequest{SQL: "SELECT COUNT(*) FROM customer GROUP BY c_region"}, &qr); code != http.StatusOK {
		t.Fatalf("group query status %d, error %q", code, qr.Error)
	}
	labels := map[string]bool{}
	for _, g := range qr.Groups {
		for _, l := range g.Labels {
			labels[l] = true
		}
	}
	if !labels["EU"] || !labels["ASIA"] || !labels["US"] {
		t.Fatalf("group labels not decoded data-free: %v", labels)
	}

	// Parameterized request with a string parameter.
	var pest estimateResp
	if code := postJSON(t, srv, "/estimate", apiRequest{
		SQL:    "SELECT COUNT(*) FROM customer WHERE c_age < ? AND c_region = ?",
		Params: []any{40, "EU"},
	}, &pest); code != http.StatusOK {
		t.Fatalf("parameterized estimate status %d, error %q", code, pest.Error)
	}
	lit, err := db.EstimateCardinality(context.Background(),
		"SELECT COUNT(*) FROM customer WHERE c_age < 40 AND c_region = 'EU'")
	if err != nil {
		t.Fatal(err)
	}
	if pest.Value != lit.Value {
		t.Fatalf("parameterized %v != literal %v", pest.Value, lit.Value)
	}

	// Per-request confidence widens the interval only.
	var wide estimateResp
	postJSON(t, srv, "/estimate", apiRequest{
		SQL: "SELECT COUNT(*) FROM customer WHERE c_age < 40", Confidence: 0.999}, &wide)
	var def estimateResp
	postJSON(t, srv, "/estimate", apiRequest{
		SQL: "SELECT COUNT(*) FROM customer WHERE c_age < 40"}, &def)
	if wide.Value != def.Value {
		t.Fatalf("confidence changed the estimate: %v vs %v", wide.Value, def.Value)
	}
	if def.Variance > 0 && (wide.CIHigh-wide.CILow) <= (def.CIHigh-def.CILow) {
		t.Fatalf("0.999 interval not wider: %+v vs %+v", wide, def)
	}

	// /explain names the compilation case.
	var ex struct {
		Plan  string `json:"plan"`
		Error string `json:"error"`
	}
	if code := postJSON(t, srv, "/explain",
		apiRequest{SQL: "SELECT COUNT(*) FROM customer WHERE c_age < 30"}, &ex); code != http.StatusOK {
		t.Fatalf("explain status %d, error %q", code, ex.Error)
	}
	if !strings.Contains(ex.Plan, "case") {
		t.Fatalf("explain plan missing compilation case:\n%s", ex.Plan)
	}
	// A grouped plan says what each model call is bound per, and that
	// variance is bound only for the groups that survive the gate.
	if code := postJSON(t, srv, "/explain",
		apiRequest{SQL: "SELECT COUNT(*) FROM customer GROUP BY c_region"}, &ex); code != http.StatusOK {
		t.Fatalf("explain status %d, error %q", code, ex.Error)
	}
	for _, want := range []string{"bound once per distinct c_region", "variance parts are bound only for groups that survive it"} {
		if !strings.Contains(ex.Plan, want) {
			t.Fatalf("grouped explain plan missing %q:\n%s", want, ex.Plan)
		}
	}

	// GET form and error handling.
	resp, err = http.Get(srv.URL + "/estimate?sql=" + "SELECT%20COUNT(*)%20FROM%20customer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET estimate status %d", resp.StatusCode)
	}
	var bad estimateResp
	if code := postJSON(t, srv, "/estimate", apiRequest{SQL: "SELECT NONSENSE"}, &bad); code != http.StatusBadRequest || bad.Error == "" {
		t.Fatalf("bad SQL: status %d, error %q", code, bad.Error)
	}
	var missing estimateResp
	if code := postJSON(t, srv, "/estimate", apiRequest{}, &missing); code != http.StatusBadRequest {
		t.Fatalf("missing sql: status %d", code)
	}
	var badConf estimateResp
	if code := postJSON(t, srv, "/estimate", apiRequest{
		SQL: "SELECT COUNT(*) FROM customer", Confidence: 95}, &badConf); code != http.StatusBadRequest ||
		!strings.Contains(badConf.Error, "confidence") {
		t.Fatalf("confidence=95: status %d, error %q, want 400", code, badConf.Error)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/estimate", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d, want 405", resp.StatusCode)
	}
}

// TestServeConcurrentLoad hammers the server from many goroutines — the
// serving contract is correct answers under concurrency on one shared,
// plan-cached DB (run under -race in CI).
func TestServeConcurrentLoad(t *testing.T) {
	t.Parallel()
	db := serveFixture(t)
	srv := httptest.NewServer(newServeHandler(db, shipped(false)))
	defer srv.Close()
	want, err := db.EstimateCardinality(context.Background(),
		"SELECT COUNT(*) FROM customer WHERE c_age < 40 AND c_region = 'EU'")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body, _ := json.Marshal(apiRequest{
					SQL:    "SELECT COUNT(*) FROM customer WHERE c_age < ? AND c_region = ?",
					Params: []any{40, "EU"},
				})
				resp, err := http.Post(srv.URL+"/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var est estimateResp
				err = json.NewDecoder(resp.Body).Decode(&est)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if est.Value != want.Value {
					errc <- fmt.Errorf("client %d: served %v, want %v", c, est.Value, want.Value)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// estimateRoundTrip returns one full HTTP round trip of a parameterized
// /estimate request against the data-free server over a loopback socket.
func estimateRoundTrip(tb testing.TB) func() {
	srv := httptest.NewServer(newServeHandler(serveFixture(tb), shipped(false)))
	tb.Cleanup(srv.Close)
	body, _ := json.Marshal(apiRequest{
		SQL:    "SELECT COUNT(*) FROM customer WHERE c_age < ? AND c_region = ?",
		Params: []any{40, "EU"},
	})
	return func() {
		resp, err := http.Post(srv.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		var est estimateResp
		if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		if est.Error != "" {
			tb.Fatal(est.Error)
		}
	}
}

// BenchmarkServeEstimate measures that round trip.
func BenchmarkServeEstimate(b *testing.B) {
	do := estimateRoundTrip(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// TestAllocBudgets pins the heap allocations of that round trip — client,
// server goroutine and the handler chain cmdServe serves — exactly, as the
// root and internal/spn tests of the same name do for the layers below (see
// alloc_budget_test.go in the repository root for why counts and not
// times). A budget is raised only with the reason next to it.
func TestAllocBudgets(t *testing.T) {
	// The race detector makes sync.Pool drop entries at random and its
	// instrumentation allocates, so no budget can hold under it.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not stable under the race detector")
			}
		}
	}
	do := estimateRoundTrip(t)
	do() // open the keep-alive connection, warm the plan cache
	// 150 while the shape key was built with fmt; 145 was measured on the
	// bare mux, while the shipped chain (http.TimeoutHandler) cost 162.
	// Through the shipped chain since: the request budget on the serving
	// goroutine (two allocations: its context and the request copy that
	// carries it), the hand-framed request decoder and /estimate writer.
	// 133 while every evaluation round built a chunk list and an evaluator
	// closure for the per-query fan-out.
	const budget = 131
	if got := testing.AllocsPerRun(200, do); got != budget {
		t.Errorf("/estimate round trip: %v allocs/op, budget %v", got, budget)
	}
}

// TestServePprofEndpoints: with the pprof overlay the debug endpoints
// respond and the API endpoints keep working through the wrapping mux.
func TestServePprofEndpoints(t *testing.T) {
	db := serveFixture(t)
	c := shipped(false)
	c.pprof = true
	srv := httptest.NewServer(newServeHandler(db, c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz through pprof mux: status %d", resp.StatusCode)
	}
}
