package spn

import (
	"fmt"

	"repro/internal/stats"
)

// Update absorbs one tuple with weight w without retraining, implementing
// Algorithm 1 of the paper: w = +1 inserts the tuple, w = -1 deletes it.
// The tuple recursively traverses the tree; at sum nodes the nearest
// KMeans cluster's weight moves by w and the tuple descends into it, at
// product nodes the tuple is split by scope, at leaves the value
// distribution moves by w. The tree structure never changes, and RowCount
// moves by w but never below 0. tuple must be indexed by scope column
// (full row, NaN = NULL). Every node it writes is first made the SPN's own
// (own), top down, so a clone copies exactly the induced tree the tuple
// routes through and leaves every node it shares untouched.
func (s *SPN) Update(tuple []float64, w float64) error {
	if len(tuple) != len(s.Columns) {
		return fmt.Errorf("spn: tuple has %d values, model has %d columns", len(tuple), len(s.Columns))
	}
	s.Root = s.own(s.Root)
	s.updateNode(s.Root, tuple, w)
	s.RowCount = max(0, s.RowCount+w)
	s.recompile()
	return nil
}

// BeginBatch suspends the per-mutation refresh of the flat evaluator's
// derived weights until EndBatch, so a batch of Update calls pays
// the re-derivation once. While a batch is open the flat evaluator is
// stale; the SPN must not serve queries until EndBatch ran (the serving
// path only ever sees published, fully-recompiled snapshots).
func (s *SPN) BeginBatch() { s.batching = true }

// EndBatch closes a BeginBatch window and re-derives the flat evaluator's
// weights once for all mutations applied inside it.
func (s *SPN) EndBatch() {
	s.batching = false
	s.recompile()
}

// recompile refreshes the flat evaluator after an update changed mixing
// weights and leaf distributions. The flat form references the nodes'
// count slices and leaves, and own patches the slots of every node an
// update copied, so their values need no copy, but every exact leaf an
// update touched has a stale full-range mass to recompute. The tree
// structure never changes, so this is an in-place, allocation-free
// re-derivation rather than a rebuild; inside a BeginBatch/EndBatch window
// it is deferred to EndBatch. Updates run on the write path (the facade
// mutates only unpublished copy-on-write clones, and a clone writes only
// nodes it owns), so the mutation never races a reader.
func (s *SPN) recompile() {
	if !s.batching {
		s.flat.refreshWeights()
	}
}

// updateNode applies the tuple to a node the SPN owns and recurses.
func (s *SPN) updateNode(n *Node, tuple []float64, w float64) {
	switch n.Kind {
	case LeafKind:
		n.Leaf.Add(tuple[n.Leaf.Col], w)
	case SumKind:
		nearest := s.nearestChild(n, tuple)
		n.ChildCounts[nearest] += w
		if n.ChildCounts[nearest] < 0 {
			n.ChildCounts[nearest] = 0
		}
		// Recompute (not increment) the cached total so it stays
		// bit-identical to a fresh summation of the counts.
		n.refreshTotal()
		n.Children[nearest] = s.own(n.Children[nearest])
		s.updateNode(n.Children[nearest], tuple, w)
	case ProductKind:
		// Product nodes split the column set: each child receives the
		// tuple projected onto its scope (the full tuple is passed; leaves
		// index it by their own column).
		for i := range n.Children {
			n.Children[i] = s.own(n.Children[i])
			s.updateNode(n.Children[i], tuple, w)
		}
	}
}

// nearestChild routes the tuple to the closest KMeans centroid using the
// normalization recorded at learning time (Algorithm 1, line 5). The
// normalized point lives in the SPN's write-path buffer.
func (s *SPN) nearestChild(n *Node, tuple []float64) int {
	if len(n.Centroids) != len(n.Children) || len(n.NormMin) != len(n.Scope) {
		// Sum node without routing metadata (e.g. deserialized from an
		// older model): fall back to the heaviest child.
		best, bestC := 0, -1.0
		for i, c := range n.ChildCounts {
			if c > bestC {
				best, bestC = i, c
			}
		}
		return best
	}
	point := grow(&s.point, len(n.Scope))
	for i, col := range n.Scope {
		point[i] = NormalizeValue(tuple[col], n.NormMin[i], n.NormMax[i])
	}
	return stats.NearestCentroid(point, n.Centroids)
}
