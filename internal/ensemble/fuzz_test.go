package ensemble_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/query"
)

// FuzzLoad feeds Load hostile model files: it returns a model or an
// error, never panics, and a model it returns answers a fixed COUNT
// (a join with a string-literal filter when the label resolves) without
// panicking.
func FuzzLoad(f *testing.F) {
	for _, seed := range ensemble.ModelFileSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ens, err := ensemble.Load(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		q := query.Query{Aggregate: query.Count, Tables: []string{"customer", "orders"}}
		if code, found, _ := ens.ResolveLabel("c_region", "EU"); found {
			q.Filters = []query.Predicate{{Column: "c_region", Op: query.Eq, Value: code}}
		}
		_, _ = core.New(ens).EstimateCardinality(q)
	})
}

// TestLoadSeedsAnswer pins what the FuzzLoad seeds exercise: the valid
// seed loads and answers the fuzzed COUNT, and every damaged one is
// refused — the scope-shifted ones too, which would otherwise load and
// then panic (orders) or count every customer for c_region = EU. A model
// whose leaves permute in-range columns still loads: nothing structural
// tells it apart from a valid one.
func TestLoadSeedsAnswer(t *testing.T) {
	seeds := ensemble.ModelFileSeeds(t)
	for i, seed := range seeds {
		ens, err := ensemble.Load(bytes.NewReader(seed), nil)
		if (err == nil) != (i == 0) {
			t.Fatalf("seed %d: Load error = %v", i, err)
		}
		if i > 0 {
			continue
		}
		code, found, _ := ens.ResolveLabel("c_region", "EU")
		if !found {
			t.Fatal("valid seed: EU does not resolve")
		}
		est, err := core.New(ens).EstimateCardinality(query.Query{Aggregate: query.Count,
			Tables:  []string{"customer", "orders"},
			Filters: []query.Predicate{{Column: "c_region", Op: query.Eq, Value: code}}})
		if err != nil || est.Value <= 0 {
			t.Fatalf("valid seed: COUNT = %v, %v", est.Value, err)
		}
	}
}
