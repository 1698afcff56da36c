package spn

import (
	"math/rand"
	"testing"
)

// learnedSPN builds a deterministic learned SPN (exact and binned leaves).
func learnedSPN(t *testing.T, seed int64) *SPN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, 600)
	for i := range data {
		data[i] = []float64{float64(i % 5), float64(rng.Intn(40)), rng.Float64() * 10}
	}
	s, err := Learn(data, []string{"x", "y", "z"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomMutations(rng *rand.Rand, n int) []Mutation {
	muts := make([]Mutation, n)
	for i := range muts {
		muts[i] = Mutation{
			Tuple:  []float64{float64(i % 5), float64(rng.Intn(40)), rng.Float64() * 10},
			Delete: i%3 == 0,
		}
	}
	return muts
}

func evalProbes(t *testing.T, s *SPN, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 3)
	}
	out := make([]float64, len(reqs))
	if err := s.EvaluateBatch(reqs, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestApplyBatchMatchesPerTuple: ApplyBatch (one weight re-derivation at
// the end) must leave the model bit-identical to per-tuple Insert/Delete.
func TestApplyBatchMatchesPerTuple(t *testing.T) {
	one, bat := learnedSPN(t, 11), learnedSPN(t, 11)
	muts := randomMutations(rand.New(rand.NewSource(12)), 60)
	for _, m := range muts {
		var err error
		if m.Delete {
			err = one.Delete(m.Tuple)
		} else {
			err = one.Insert(m.Tuple)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	if one.RowCount != bat.RowCount {
		t.Fatalf("RowCount %v != %v", one.RowCount, bat.RowCount)
	}
	a, b := evalProbes(t, one, 13), evalProbes(t, bat, 13)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d: per-tuple %v != batched %v", i, a[i], b[i])
		}
	}
	// The batched model's flat form must also still match its tree walk.
	rng := rand.New(rand.NewSource(14))
	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 3)
	}
	assertBatchMatchesTree(t, bat, reqs, "after ApplyBatch")
}

// TestCloneIsolation: mutating a clone leaves the original — tree, leaves
// and compiled evaluator — bit-for-bit untouched, and the clone starts
// bit-identical to its source.
func TestCloneIsolation(t *testing.T) {
	s := learnedSPN(t, 21)
	before := evalProbes(t, s, 22)
	c := s.Clone()
	for i, v := range evalProbes(t, c, 22) {
		if v != before[i] {
			t.Fatalf("probe %d: clone differs from source before mutation", i)
		}
	}
	if err := c.ApplyBatch(randomMutations(rand.New(rand.NewSource(23)), 80)); err != nil {
		t.Fatal(err)
	}
	after := evalProbes(t, s, 22)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("probe %d: source drifted after clone mutation: %v != %v", i, before[i], after[i])
		}
	}
	// And the mutated clone stays internally consistent (flat == tree).
	rng := rand.New(rand.NewSource(24))
	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 3)
	}
	assertBatchMatchesTree(t, c, reqs, "mutated clone")
}
