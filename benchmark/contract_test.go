package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// BENCHMARK.json names the workloads and the metrics the pipeline expects;
// the harness must report exactly those, under those units.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var f struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var wantSpecs, gotSpecs []string
	for _, w := range f.Workloads {
		wantSpecs = append(wantSpecs, w.Name)
	}
	for _, sp := range specs {
		gotSpecs = append(gotSpecs, sp.name)
	}
	if !reflect.DeepEqual(gotSpecs, wantSpecs) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", gotSpecs, wantSpecs)
	}
	reported := func(fill func(*run)) (out []named) {
		one := []time.Duration{time.Second}
		r := &run{res: &result{}, learn: one, save: one, spawn: one}
		fill(r)
		for _, m := range r.res.metrics {
			out = append(out, named{m.name, m.unit})
		}
		return out
	}
	if got := reported((*run).reportEndToEnd); !reflect.DeepEqual(got, f.EndToEnd) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, f.EndToEnd)
	}
	if got := reported((*run).reportLayers); !reflect.DeepEqual(got, f.PerLayer) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, f.PerLayer)
	}
	if _, err := bounds(".."); err != nil {
		t.Errorf("selfcheck cannot read its bounds: %v", err)
	}
}
