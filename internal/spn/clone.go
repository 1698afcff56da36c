package spn

import (
	"slices"
	"sync/atomic"
)

// clone.go implements path-copying clones, the building block of
// copy-on-write snapshot publication: the serving path reads immutable
// published SPNs while the update path mutates a private clone and
// publishes it atomically.
//
// A clone shares the source's whole tree and the read-only arrays of its
// compiled evaluator. The paper's update rule (Algorithm 1) writes one
// induced tree per row — one child at a sum node, every child at a
// product node — so an update copies exactly the nodes it writes, the
// first time it writes them, and leaves the rest shared.
//
// Ownership invariant: every SPN carries an epoch, and every node records
// the epoch that may mutate it in place (owner). A learned or decoded SPN
// and all of its nodes carry epoch 0, so it mutates in place. Clone gives
// the clone a fresh epoch and retires the receiver's, so after a Clone
// neither side owns any node they share: the first write to such a node,
// from either side, goes to a private copy (own). A node's mutable state
// is its ChildCounts, its Children slice and its Leaf; Scope, Centroids,
// the normalization bounds and the bin edges never change and stay shared
// even between a node and its copy.

// epochs hands out SPN epochs; 0 is never handed out, it is the epoch of
// a learned or decoded SPN.
var epochs atomic.Uint64

// Clone returns a copy of the SPN that shares every node with the
// receiver but may write none of them: Update on the clone copies the
// path it writes and leaves the original — including its compiled flat
// evaluator — bit-for-bit untouched, and Update on the original after the
// Clone copies its own and leaves the clone untouched. The
// clone's flat evaluator shares the receiver's structure and copies only
// the arrays an update writes (weights, count slices, leaf references),
// so it is immediately servable and bit-identical to the receiver's.
//
// Clone is a write-path operation: it retires the receiver's ownership,
// so it must not run concurrently with another Clone or Update of
// the same SPN. Readers of the receiver may run concurrently.
func (s *SPN) Clone() *SPN {
	out := &SPN{
		Root:     s.Root,
		Columns:  s.Columns,
		RowCount: s.RowCount,
		Config:   s.Config,
		flat:     s.flat.clone(),
		colIdx:   s.colIdx,
		epoch:    epochs.Add(1),
	}
	s.epoch = epochs.Add(1)
	return out
}

// clone copies the arrays an update writes — weight (refreshWeights),
// counts and leaf (patched by own) — and shares the rest.
func (c *Compiled) clone() *Compiled {
	out := *c
	out.weight = slices.Clone(c.weight)
	out.counts = slices.Clone(c.counts)
	out.leaf = slices.Clone(c.leaf)
	return &out
}

// own returns n when the SPN may write it in place, and otherwise a copy
// the SPN owns, with private ChildCounts, Children and Leaf, patched into
// the flat evaluator's count and leaf slots. The caller re-points the
// parent's child slot (or Root) at the result.
func (s *SPN) own(n *Node) *Node {
	if n.owner == s.epoch {
		return n
	}
	cp := *n
	cp.owner = s.epoch
	if n.ChildCounts != nil {
		cp.ChildCounts = slices.Clone(n.ChildCounts)
		s.flat.counts[n.pos] = cp.ChildCounts
	}
	if n.Children != nil {
		cp.Children = slices.Clone(n.Children)
	}
	if n.Leaf != nil {
		cp.Leaf = n.Leaf.clone()
		s.flat.leaf[n.pos] = cp.Leaf
	}
	return &cp
}

// clone copies the leaf's mutable distribution state. Bin edges are fixed
// at learning time (Section 5.2 keeps the structure constant under
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
