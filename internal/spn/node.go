package spn

import (
	"fmt"
	"strings"
)

// Kind discriminates the node types of an SPN.
type Kind int

const (
	// SumKind nodes mix their children (row clusters).
	SumKind Kind = iota
	// ProductKind nodes factor independent column groups.
	ProductKind
	// LeafKind nodes model a single attribute.
	LeafKind
)

// String returns a short node-kind label.
func (k Kind) String() string {
	switch k {
	case SumKind:
		return "+"
	case ProductKind:
		return "x"
	case LeafKind:
		return "leaf"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one node of a tree-structured SPN. All fields are exported so the
// tree can be gob-serialized for model persistence.
type Node struct {
	Kind  Kind
	Scope []int // column indices this node models, ascending

	// Sum nodes: Children share the node's scope. ChildCounts holds the
	// number of training rows per child; weights derive from it so that
	// incremental updates (Algorithm 1) only touch counts. Centroids are
	// the KMeans cluster centers in normalized coordinates over Scope,
	// used to route inserted/deleted tuples; Norm holds the per-scope-
	// column (min, max) used for that normalization.
	Children    []*Node
	ChildCounts []float64
	Centroids   [][]float64
	NormMin     []float64
	NormMax     []float64

	// Leaf nodes.
	Leaf *Leaf

	// total caches the sum of ChildCounts so sum-node evaluation does not
	// re-add the counts on every visit. Unexported: gob skips it, so
	// deserialized trees start invalid and callers re-derive it with
	// RefreshTotals. When invalid, readers recompute without storing — the
	// query path runs concurrently and must never write shared state.
	total   float64
	totalOK bool

	// owner is the epoch of the SPN that may mutate the node in place
	// (clone.go); pos is the node's postorder index in the flat
	// evaluator, recorded by flatten. Unexported: gob skips both, and a
	// decoded node starts owned by epoch 0, as its decoded SPN does.
	owner uint64
	pos   int32
}

// childTotal returns the (cached) sum of ChildCounts. The summation order
// matches the pre-cache per-visit loop, so cached and recomputed totals are
// bit-identical.
func (n *Node) childTotal() float64 {
	if n.totalOK {
		return n.total
	}
	total := 0.0
	for _, c := range n.ChildCounts {
		total += c
	}
	return total
}

// refreshTotal recomputes and caches the ChildCounts sum. Only the write
// path (learning, updates, deserialization) may call it.
func (n *Node) refreshTotal() {
	total := 0.0
	for _, c := range n.ChildCounts {
		total += c
	}
	n.total, n.totalOK = total, true
}

// RefreshTotals caches the count total of every sum node in the subtree.
// Required after deserializing a tree (gob skips the unexported cache) or
// mutating ChildCounts directly.
func (n *Node) RefreshTotals() {
	if n == nil {
		return
	}
	if n.Kind == SumKind {
		n.refreshTotal()
	}
	for _, c := range n.Children {
		c.RefreshTotals()
	}
}

// NumNodes returns the total node count of the subtree.
func (n *Node) NumNodes() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.NumNodes()
	}
	return total
}

// Validate checks SPN structural invariants: sum children share the
// parent's scope, product children partition it, leaves have singleton
// scope matching their Leaf column.
//
//deepdb:nocancel structural check over the learned model, sized by node count rather than rows
func (n *Node) Validate() error {
	switch n.Kind {
	case LeafKind:
		if n.Leaf == nil {
			return fmt.Errorf("spn: leaf node without distribution")
		}
		if len(n.Scope) != 1 || n.Scope[0] != n.Leaf.Col {
			return fmt.Errorf("spn: leaf scope %v does not match column %d", n.Scope, n.Leaf.Col)
		}
		return n.Leaf.validate()
	case SumKind:
		if len(n.Children) == 0 {
			return fmt.Errorf("spn: sum node without children")
		}
		if len(n.ChildCounts) != len(n.Children) {
			return fmt.Errorf("spn: sum node has %d children but %d counts", len(n.Children), len(n.ChildCounts))
		}
		for _, c := range n.Children {
			if !sameScope(n.Scope, c.Scope) {
				return fmt.Errorf("spn: sum child scope %v != parent scope %v", c.Scope, n.Scope)
			}
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	case ProductKind:
		if len(n.Children) < 2 {
			return fmt.Errorf("spn: product node with %d children", len(n.Children))
		}
		seen := map[int]bool{}
		total := 0
		for _, c := range n.Children {
			for _, s := range c.Scope {
				if seen[s] {
					return fmt.Errorf("spn: product children overlap on column %d", s)
				}
				seen[s] = true
				total++
			}
			if err := c.Validate(); err != nil {
				return err
			}
		}
		if total != len(n.Scope) {
			return fmt.Errorf("spn: product children cover %d of %d scope columns", total, len(n.Scope))
		}
		for _, s := range n.Scope {
			if !seen[s] {
				return fmt.Errorf("spn: product children miss scope column %d", s)
			}
		}
		return nil
	default:
		return fmt.Errorf("spn: unknown node kind %v", n.Kind)
	}
}

// validate checks that the leaf's parallel slices have the lengths its
// mass computations index them by.
func (l *Leaf) validate() error {
	if !l.Binned {
		if len(l.Freq) != len(l.Vals) {
			return fmt.Errorf("spn: exact leaf %s has %d values but %d frequencies", l.Name, len(l.Vals), len(l.Freq))
		}
		return nil
	}
	n := len(l.BinW)
	if n == 0 || len(l.Edges) != n+1 || len(l.BinSum) != n || len(l.BinSq) != n || len(l.BinInv) != n || len(l.BinIn2) != n {
		return fmt.Errorf("spn: binned leaf %s has %d bins, %d edges and moment lengths %d/%d/%d/%d",
			l.Name, n, len(l.Edges), len(l.BinSum), len(l.BinSq), len(l.BinInv), len(l.BinIn2))
	}
	return nil
}

func sameScope(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the tree structure for debugging, e.g. "+(x(age, region), ...)".
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	switch n.Kind {
	case LeafKind:
		b.WriteString(n.Leaf.Name)
	default:
		b.WriteString(n.Kind.String())
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.render(b)
		}
		b.WriteByte(')')
	}
}
