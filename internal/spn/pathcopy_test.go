package spn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// modelBits renders everything a reader of s can observe — the tree's
// counts, cached totals and leaves (full-mass caches included), the row
// count, and the flat evaluator's weights, count slices and leaves — so
// that two renderings of an unchanged model compare equal byte for byte.
// Floats print with %v, the shortest form that round-trips, so equal text
// is equal bits.
func modelBits(s *SPN) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows %v\n", s.RowCount)
	var walk func(n *Node)
	walk = func(n *Node) {
		fmt.Fprintf(&b, "%v %v %v %v;", n.Kind, n.ChildCounts, n.total, n.totalOK)
		if n.Leaf != nil {
			fmt.Fprintf(&b, "%v;", *n.Leaf)
		}
		for _, c := range n.Children {
			walk(c)
		}
		b.WriteByte('\n')
	}
	walk(s.Root)
	fmt.Fprintf(&b, "weights %v\ncounts %v\n", s.flat.weight, s.flat.counts)
	for _, lf := range s.flat.leaf {
		if lf != nil {
			fmt.Fprintf(&b, "%v\n", *lf)
		}
	}
	return b.String()
}

// clusteredSPN learns three columns drawn from four well-separated row
// clusters, so the tree mixes sum and product nodes: a row routes through
// one child of each sum node and leaves the others untouched.
func clusteredSPN(t *testing.T, seed int64) *SPN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, 800)
	for i := range data {
		data[i] = clusteredRow(rng)
	}
	s, err := Learn(data, []string{"x", "y", "z"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func clusteredRow(rng *rand.Rand) []float64 {
	k := float64(rng.Intn(4))
	return []float64{k, float64(rng.Intn(40)) + 100*k, rng.Float64()*10 + 50*k}
}

// clusteredMutations draws n rows of clusteredSPN's distribution, every
// third a delete.
func clusteredMutations(rng *rand.Rand, n int) []Mutation {
	muts := make([]Mutation, n)
	for i := range muts {
		muts[i] = Mutation{Tuple: clusteredRow(rng), Delete: i%3 == 0}
	}
	return muts
}

// applyMixed applies a batch through ApplyBatch and then one tuple each
// through per-tuple Insert and Delete, the three write entry points.
func applyMixed(t *testing.T, s *SPN, rng *rand.Rand) {
	t.Helper()
	muts := clusteredMutations(rng, 42)
	if err := s.ApplyBatch(muts[:40]); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(muts[40].Tuple); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(muts[41].Tuple); err != nil {
		t.Fatal(err)
	}
}

func sameProbes(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: probe %d: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestCloneIsolationBothWays: after a Clone, mutating the clone leaves the
// source's probes, tree and flat form bit-identical, and mutating the
// source afterwards leaves the clone's bit-identical. Each side stays
// internally consistent (flat form == tree walk).
func TestCloneIsolationBothWays(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := clusteredSPN(t, 41)
	c := s.Clone()
	srcBits, srcProbes := modelBits(s), evalProbes(t, s, 42)
	if modelBits(c) != srcBits {
		t.Fatal("clone differs from its source before any mutation")
	}

	applyMixed(t, c, rng)
	if modelBits(s) != srcBits {
		t.Fatal("source changed when its clone was mutated")
	}
	sameProbes(t, evalProbes(t, s, 42), srcProbes, "source after clone mutation")
	if modelBits(c) == srcBits {
		t.Fatal("mutations left the clone unchanged: the test shows nothing")
	}

	cloneBits, cloneProbes := modelBits(c), evalProbes(t, c, 42)
	applyMixed(t, s, rng)
	if modelBits(c) != cloneBits {
		t.Fatal("clone changed when its source was mutated")
	}
	sameProbes(t, evalProbes(t, c, 42), cloneProbes, "clone after source mutation")

	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 3)
	}
	assertBatchMatchesTree(t, s, reqs, "mutated source")
	assertBatchMatchesTree(t, c, reqs, "mutated clone")
}

// TestCloneChainMatchesDeepCopy: a chain of three clones, each mutated
// after it was taken and its source mutated after it too, answers every
// probe bit-identically to deep copies fed the same mutations — every
// member, after every step, and again after a gob round trip and further
// mutations of the decoded models.
func TestCloneChainMatchesDeepCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	chain, refs := []*SPN{clusteredSPN(t, 51)}, []*SPN{clusteredSPN(t, 51)}
	check := func(label string) {
		t.Helper()
		for i := range chain {
			sameProbes(t, evalProbes(t, chain[i], 52), evalProbes(t, refs[i], 52), fmt.Sprintf("%s, member %d", label, i))
		}
	}
	for step := 1; step <= 3; step++ {
		src, ref := chain[len(chain)-1], refs[len(refs)-1]
		chain, refs = append(chain, src.Clone()), append(refs, deepClone(ref))
		check(fmt.Sprintf("step %d cloned", step))
		muts := clusteredMutations(rng, 41)
		for _, m := range []struct {
			s   *SPN
			mut []Mutation
		}{{chain[step], muts[:40]}, {refs[step], muts[:40]}, {src, muts[40:]}, {ref, muts[40:]}} {
			if err := m.s.ApplyBatch(m.mut); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("step %d mutated", step))
	}
	for i := range chain {
		got, want := gobRoundTrip(t, chain[i]), gobRoundTrip(t, refs[i])
		sameProbes(t, evalProbes(t, got, 53), evalProbes(t, want, 53), fmt.Sprintf("decoded member %d", i))
		next := got.Clone()
		muts := clusteredMutations(rng, 20)
		if err := next.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
		if err := want.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
		sameProbes(t, evalProbes(t, next, 53), evalProbes(t, want, 53), fmt.Sprintf("decoded member %d mutated", i))
	}
}

// TestInsertUnsharesExactlyTheTouchedPath: after a one-row insert into a
// clone, the nodes the clone no longer shares with its source are exactly
// the induced tree the row routes through (Algorithm 1: the root, the
// nearest child at each sum node, every child at each product node), the
// clone owns each of them, and both flat forms reference exactly their
// own tree's count slices and leaves.
func TestInsertUnsharesExactlyTheTouchedPath(t *testing.T) {
	s := clusteredSPN(t, 61)
	tuple := []float64{2, 217, 104.5}
	touched := map[*Node]bool{}
	var route func(n *Node)
	route = func(n *Node) {
		touched[n] = true
		switch n.Kind {
		case SumKind:
			route(n.Children[s.nearestChild(n, tuple)])
		case ProductKind:
			for _, c := range n.Children {
				route(c)
			}
		}
	}
	route(s.Root)

	c := s.Clone()
	if err := c.Insert(tuple); err != nil {
		t.Fatal(err)
	}
	copied, shared := 0, 0
	var walk func(a, b *Node)
	walk = func(a, b *Node) {
		if !touched[a] {
			if a != b {
				t.Fatalf("a %v node the row does not route through was copied", a.Kind)
			}
			shared++
			return
		}
		if a == b || (a.Leaf != nil && a.Leaf == b.Leaf) {
			t.Fatalf("a %v node the row routes through is still shared", a.Kind)
		}
		if b.owner != c.epoch {
			t.Fatalf("the clone does not own its copy of a %v node", a.Kind)
		}
		copied++
		for i := range a.Children {
			walk(a.Children[i], b.Children[i])
		}
	}
	walk(s.Root, c.Root)
	if copied != len(touched) || shared == 0 {
		t.Fatalf("%d nodes copied of %d touched, %d subtrees shared: want all touched copied and some shared", copied, len(touched), shared)
	}
	for _, m := range []*SPN{s, c} {
		assertFlatReferencesTree(t, m)
	}
}

// assertFlatReferencesTree checks that every count and leaf slot of the
// flat form is the node's own slice and leaf.
func assertFlatReferencesTree(t *testing.T, s *SPN) {
	t.Helper()
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf != nil && s.flat.leaf[n.pos] != n.Leaf {
			t.Fatalf("flat leaf slot %d is not the tree's leaf", n.pos)
		}
		if counts := s.flat.counts[n.pos]; len(n.ChildCounts) > 0 && &counts[0] != &n.ChildCounts[0] {
			t.Fatalf("flat count slot %d is not the tree's counts", n.pos)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(s.Root)
}

// TestRefreshRefusesSharedTree: Refresh writes into every node, so it
// panics on either side of a Clone rather than write a shared node.
func TestRefreshRefusesSharedTree(t *testing.T) {
	s := learnedSPN(t, 71)
	c := s.Clone()
	for _, m := range []*SPN{s, c} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Refresh ran on a tree shared with a clone")
				}
			}()
			m.Refresh()
		}()
	}
}
