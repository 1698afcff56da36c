package main

import (
	"encoding/json"
	"testing"
)

func TestHealthzDelta(t *testing.T) {
	const before = `{"status":"ok","updates":{"generation":3,"applied":10,"batches":4,"errors":0,
		"plan_cache_hits":100,"plan_cache_misses":20,"result_cache_hits":50,"result_cache_misses":50,"result_cache_evictions":1,
		"wal":{"appended":10,"synced":2,"segments":1,"size_bytes":800}}}`
	const after = `{"status":"ok","updates":{"generation":9,"applied":40,"batches":10,"errors":1,
		"plan_cache_hits":190,"plan_cache_misses":30,"result_cache_hits":80,"result_cache_misses":120,"result_cache_evictions":11,
		"wal":{"appended":40,"synced":5,"segments":1,"size_bytes":3200}}}`
	var a, b healthz
	if err := json.Unmarshal([]byte(before), &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(after), &a); err != nil {
		t.Fatal(err)
	}
	d := deltaHealthz(b, a)
	want := healthDelta{generations: 6, applied: 30, batches: 6, errors: 1, planHits: 90, planMisses: 10,
		resHits: 30, resMisses: 70, resEvictions: 10, walAppended: 30, walSynced: 3}
	if d != want {
		t.Errorf("delta = %+v, want %+v", d, want)
	}
	if got := ratio(d.planHits, d.planMisses); got != 0.9 {
		t.Errorf("plan hit ratio = %v, want 0.9", got)
	}
	if got := per(float64(d.applied), float64(d.batches)); got != 5 {
		t.Errorf("rows per batch = %v, want 5", got)
	}
}

// A server without -wal reports no WAL object; the deltas stay zero
// instead of dereferencing it.
func TestHealthzDeltaWithoutWAL(t *testing.T) {
	var h healthz
	if err := json.Unmarshal([]byte(`{"status":"ok","updates":{"generation":1}}`), &h); err != nil {
		t.Fatal(err)
	}
	if d := deltaHealthz(h, h); d != (healthDelta{}) {
		t.Errorf("delta = %+v, want zero", d)
	}
	if ratio(0, 0) != 0 || per(1, 0) != 0 {
		t.Error("empty ratios must be 0, not NaN")
	}
}
