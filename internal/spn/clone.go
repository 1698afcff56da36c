package spn

// clone.go implements deep copying of the mutable model state, the
// building block of copy-on-write snapshot publication: the serving path
// reads immutable published SPNs while the update path mutates a private
// clone and publishes it atomically. Only state that Insert/Delete can
// touch is copied — sum-node child counts, leaf value/bin arrays, the
// cached totals and full-range leaf masses, and the row count; structural
// metadata that updates never change (scopes, centroids, normalization
// bounds, bin edges, column names) is shared by pointer with the source.

// Clone returns a deep copy of the SPN that shares no mutable state with
// the receiver: applying Insert/Delete to the clone leaves the
// original — including its compiled flat evaluator — bit-for-bit
// untouched. The clone carries its own freshly compiled flat evaluator, so
// it is immediately servable.
func (s *SPN) Clone() *SPN {
	out := &SPN{
		Root:     s.Root.clone(),
		Columns:  s.Columns,
		RowCount: s.RowCount,
		Config:   s.Config,
		colIdx:   s.colIdx,
	}
	// compileTree derives the weights exactly like refreshWeights does
	// (same counts, same summation order), so the clone's evaluator is
	// bit-identical to the source's.
	out.flat = compileTree(out.Root, len(out.Columns))
	return out
}

// clone deep-copies the mutable per-node state and recurses.
func (n *Node) clone() *Node {
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
			out.Children[i] = c.clone()
		}
	}
	if n.Leaf != nil {
		out.Leaf = n.Leaf.clone()
	}
	return out
}

// clone deep-copies the leaf's mutable distribution state. Bin edges are
// fixed at learning time (Section 5.2 keeps the structure constant under
// updates) and stay shared.
func (l *Leaf) clone() *Leaf {
	out := &Leaf{
		Col:    l.Col,
		Name:   l.Name,
		Binned: l.Binned,
		Edges:  l.Edges,
		NullW:  l.NullW,
		Total:  l.Total,
		full:   l.full,
		fullOK: l.fullOK,
	}
	out.Vals = append([]float64(nil), l.Vals...)
	out.Freq = append([]float64(nil), l.Freq...)
	out.BinW = append([]float64(nil), l.BinW...)
	out.BinSum = append([]float64(nil), l.BinSum...)
	out.BinSq = append([]float64(nil), l.BinSq...)
	out.BinInv = append([]float64(nil), l.BinInv...)
	out.BinIn2 = append([]float64(nil), l.BinIn2...)
	return out
}
