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

// deepClone is the reference copy the path-copying Clone replaced: every
// node and leaf copied, the flat evaluator compiled afresh. The copy owns
// all of its nodes (epoch 0), so updates mutate it in place; tests feed
// it the same mutations as a clone chain and demand bit-identical answers.
func deepClone(s *SPN) *SPN {
	out := &SPN{
		Root:     deepCloneNode(s.Root),
		Columns:  s.Columns,
		RowCount: s.RowCount,
		Config:   s.Config,
		colIdx:   s.colIdx,
	}
	// compileTree derives the weights exactly like refreshWeights does
	// (same counts, same summation order), so the copy's evaluator is
	// bit-identical to the source's.
	out.flat = compileTree(out.Root, len(out.Columns))
	return out
}

// deepCloneNode copies the mutable per-node state and recurses; the
// structural metadata stays shared, as in Clone.
func deepCloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{
		Kind:      n.Kind,
		Scope:     n.Scope,
		Centroids: n.Centroids,
		NormMin:   n.NormMin,
		NormMax:   n.NormMax,
		total:     n.total,
		totalOK:   n.totalOK,
	}
	if n.ChildCounts != nil {
		out.ChildCounts = append([]float64(nil), n.ChildCounts...)
	}
	if n.Children != nil {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = deepCloneNode(c)
		}
	}
	if n.Leaf != nil {
		out.Leaf = n.Leaf.clone()
	}
	return out
}

// Mutation is one tuple-level change for ApplyBatch: the tuple routed
// through the tree and whether it is removed (Delete) or absorbed.
type Mutation struct {
	Tuple  []float64
	Delete bool
}

// ApplyBatch applies a sequence of inserts and deletes in order, rebuilding
// the derived mixing weights of the flat evaluator once at the end instead
// of once per tuple. A malformed mutation (wrong tuple arity) is reported —
// first error wins — but does not stop the rest of the batch, mirroring
// ensemble.Apply: the final model state is bit-identical to pushing the
// same mutations through Update one call at a time.
func (s *SPN) ApplyBatch(muts []Mutation) error {
	s.BeginBatch()
	defer s.EndBatch()
	var first error
	for i := range muts {
		var err error
		if muts[i].Delete {
			err = s.Update(muts[i].Tuple, -1)
		} else {
			err = s.Update(muts[i].Tuple, 1)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
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
// the end) must leave the model bit-identical to per-tuple Update calls.
func TestApplyBatchMatchesPerTuple(t *testing.T) {
	one, bat := learnedSPN(t, 11), learnedSPN(t, 11)
	muts := randomMutations(rand.New(rand.NewSource(12)), 60)
	for _, m := range muts {
		var err error
		if m.Delete {
			err = one.Update(m.Tuple, -1)
		} else {
			err = one.Update(m.Tuple, 1)
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
