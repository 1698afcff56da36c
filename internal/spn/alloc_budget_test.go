package spn

import (
	"runtime/debug"
	"testing"
)

// TestAllocBudgets holds the compiled evaluator to zero heap allocations
// per call on the three request shapes the kernel benchmarks time and on
// SPN.Evaluate's batch of one — the exact, noise-free half of what a
// ns/op guard tried to protect (scratch comes from a pool, so a steady
// state allocates nothing).
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
	s, reqs := benchFixture(t)
	grouped := groupedRequests(16)
	out := make([]float64, 16)
	for _, b := range []struct {
		name string
		reqs []Request
	}{
		{"flat single", reqs[:1]},
		{"flat batch-16", reqs[:16]},
		{"flat grouped-16", grouped},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := s.EvaluateBatch(b.reqs, out); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocs/op, budget 0", b.name, got)
		}
	}
	// SPN.Evaluate wraps its request in a one-element batch, which must
	// stay on the stack: internal/ml and MostProbableValue call it once
	// per candidate.
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Evaluate(reqs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("Evaluate: %v allocs/op, budget 0", got)
	}
}
