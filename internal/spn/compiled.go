package spn

// compiled.go implements the flattened SPN evaluator. The learned tree is
// lowered once into a postorder structure-of-arrays form — node kinds,
// child index ranges, normalized sum weights, leaf references and scope
// bitsets in contiguous arrays — and batches of inference requests are
// answered in a single recursion-free pass over those arrays. Compared to
// the reference tree walk (infer.go) this removes the per-call column map,
// the per-visit weight renormalization, the pointer chasing and the
// scope-overlap map probes; requests in a batch additionally share the
// node walk, so evaluating the many expectations a query plan emits (per
// group key, per Theorem-2 branch, per inclusion-exclusion term, per
// prepared-statement binding) costs one pass instead of one traversal
// each. Within a pass, a leaf computes a moment only where a run of
// requests with identical queries on its column starts; for a column
// several leaves read, the runs are found once per pass, not once per
// leaf. Results are
// bit-identical to the tree walk's: the flat form performs the same
// floating-point operations in the same order.

import (
	"fmt"
	"math"
	"sync"
)

// Compiled is the flattened, evaluation-optimized form of an SPN tree.
// Nodes are stored in postorder (children strictly before parents), so a
// single forward loop evaluates bottom-up. A Compiled is read-only during
// evaluation and safe for concurrent EvaluateBatch calls. Updates never
// change the tree structure, and count slices and leaf distributions are
// shared by pointer with the tree, so SPN.Insert/Delete only re-derive, in
// place on the model's write path, the normalized mixing weights and the
// full-range masses of the exact leaves they touched (refreshWeights).
//
// A Clone's Compiled shares the structural arrays (kind, childOff,
// childIdx, leafCol, multiLeaf, scope) with its source's and owns copies
// of the three an update writes: weight, counts and leaf. When an update
// copies a node the SPN does not own (SPN.own), it patches that node's
// counts and leaf slots, so the flat form always references exactly the
// nodes of its own SPN's tree.
type Compiled struct {
	numCols int
	words   int // scope bitset words per node

	kind     []Kind
	childOff []int32 // children of node i: childIdx[childOff[i]:childOff[i+1]]
	childIdx []int32
	// weight is parallel to childIdx: for sum nodes the normalized mixing
	// weight (the same cnt/total division the tree walk performs, so the
	// two paths agree bit for bit); unused (zero) for product nodes.
	weight []float64
	// counts is parallel to nodes: for sum nodes the node's live
	// ChildCounts slice (mutated in place by updates, re-pointed when an
	// update copies the node), from which refreshWeights re-derives
	// weight; nil otherwise.
	counts  [][]float64
	leaf    []*Leaf // parallel to nodes; nil for internal nodes
	leafCol []int32 // parallel to nodes; -1 for internal nodes
	// multiLeaf is per column: more than one leaf reads it, so a batch's
	// runs of identical column queries are worth marking once (leafRow).
	multiLeaf []bool
	scope     []uint64
	root      int32
}

// compileTree flattens a (validated) SPN tree over numCols columns.
func compileTree(root *Node, numCols int) *Compiled {
	n := root.NumNodes()
	c := &Compiled{
		numCols:  numCols,
		words:    (numCols + 63) / 64,
		kind:     make([]Kind, 0, n),
		childOff: make([]int32, 0, n+1),
		leaf:     make([]*Leaf, 0, n),
		leafCol:  make([]int32, 0, n),
	}
	c.scope = make([]uint64, 0, n*c.words)
	c.root = c.flatten(root)
	c.childOff = append(c.childOff, int32(len(c.childIdx)))
	seen := make([]bool, numCols)
	c.multiLeaf = make([]bool, numCols)
	for _, col := range c.leafCol {
		if col >= 0 && int(col) < numCols {
			c.multiLeaf[col] = seen[col]
			seen[col] = true
		}
	}
	return c
}

// flatten emits the subtree in postorder and returns the node's index.
// Child index lists land contiguously in childIdx because every node
// appends its (already-emitted) children exactly when it is emitted.
func (c *Compiled) flatten(n *Node) int32 {
	kids := make([]int32, len(n.Children))
	for i, ch := range n.Children {
		kids[i] = c.flatten(ch)
	}
	idx := int32(len(c.kind))
	n.pos = idx
	c.kind = append(c.kind, n.Kind)
	c.childOff = append(c.childOff, int32(len(c.childIdx)))
	c.childIdx = append(c.childIdx, kids...)
	switch n.Kind {
	case SumKind:
		total := n.childTotal()
		for _, cnt := range n.ChildCounts {
			w := 0.0
			if total != 0 {
				w = cnt / total
			}
			c.weight = append(c.weight, w)
		}
		c.counts = append(c.counts, n.ChildCounts)
	default:
		for range kids {
			c.weight = append(c.weight, 0)
		}
		c.counts = append(c.counts, nil)
	}
	if n.Kind == LeafKind {
		if !n.Leaf.fullOK {
			n.Leaf.refreshFull()
		}
		c.leaf = append(c.leaf, n.Leaf)
		c.leafCol = append(c.leafCol, int32(n.Leaf.Col))
	} else {
		c.leaf = append(c.leaf, nil)
		c.leafCol = append(c.leafCol, -1)
	}
	mask := make([]uint64, c.words)
	for _, s := range n.Scope {
		if s >= 0 && s < c.numCols {
			mask[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	c.scope = append(c.scope, mask...)
	return idx
}

// NumNodes returns the flattened node count.
func (c *Compiled) NumNodes() int { return len(c.kind) }

// refreshWeights re-derives every sum node's normalized weights from its
// live ChildCounts and refills the full-range mass of every leaf an update
// marked stale — a pure, allocation-free arithmetic pass, called on the
// write path after an update changed counts. The total is summed in child
// order, matching childTotal and the tree walk bit for bit.
func (c *Compiled) refreshWeights() {
	for _, lf := range c.leaf {
		if lf != nil && !lf.fullOK {
			lf.refreshFull()
		}
	}
	for i, counts := range c.counts {
		if counts == nil {
			continue
		}
		total := 0.0
		for _, cnt := range counts {
			total += cnt
		}
		off := int(c.childOff[i])
		for k, cnt := range counts {
			w := 0.0
			if total != 0 {
				w = cnt / total
			}
			c.weight[off+k] = w
		}
	}
}

// evalScratch holds the pooled per-call buffers of EvaluateBatch, so a
// steady-state batch evaluation allocates nothing.
type evalScratch struct {
	colRef []int32
	rep    []bool // parallel to colRef: see EvaluateBatch
	masks  []uint64
	union  []uint64
	active []bool
	vals   []float64
	kept   []int32 // product-node child list under a uniform batch mask
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// grow resizes a pooled scratch slice to n elements, reallocating only
// when capacity is insufficient. Contents are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// sameColQuery reports whether two column queries are identical (same
// function, null handling and ranges), so one moment value serves both.
// Shared range slices (derived variance requests alias the full request's)
// hit the pointer fast path.
func sameColQuery(a, b *ColQuery) bool {
	if a.Fn != b.Fn || a.ExcludeNull != b.ExcludeNull || len(a.Ranges) != len(b.Ranges) {
		return false
	}
	if len(a.Ranges) == 0 {
		return true
	}
	if &a.Ranges[0] == &b.Ranges[0] {
		return true
	}
	for i := range a.Ranges {
		if a.Ranges[i] != b.Ranges[i] {
			return false
		}
	}
	return true
}

func maskIntersects(a, b []uint64) bool {
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}

// EvaluateBatch evaluates len(reqs) inference requests in one pass over
// the flat arrays, writing request i's value into out[i]. The pass has
// three phases: request validation (duplicate/range checks, per-request
// column bitsets, runs of identical column queries), a top-down sweep
// marking the nodes any request can reach (subtrees outside the batch's
// union scope — or behind a zero-weight sum child — are skipped
// wholesale), and one bottom-up sweep computing all requests' values per
// active node. Per-request skipping at product nodes mirrors the tree
// walk's scopeTouches check exactly.
//
//deepdb:nocancel tight compiled kernel over one bounded batch; cancellation belongs between batches at the caller
func (c *Compiled) EvaluateBatch(reqs []Request, out []float64) error {
	nb := len(reqs)
	if nb == 0 {
		return nil
	}
	if len(out) < nb {
		return fmt.Errorf("spn: result buffer holds %d values for %d requests", len(out), nb)
	}
	if nb == 1 {
		// Singleton batches skip the per-request phase loops entirely.
		return c.evalSingle(&reqs[0], out)
	}
	n := len(c.kind)
	w := c.words
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)

	// colRef[col*nb + b] indexes the ColQuery of request b constraining
	// col (-1 when unconstrained) — the dense, allocation-free image of
	// the tree walk's map[int]ColQuery.
	colRef := grow(&sc.colRef, c.numCols*nb)
	for i := range colRef {
		colRef[i] = -1
	}
	masks := grow(&sc.masks, nb*w)
	for i := range masks {
		masks[i] = 0
	}
	union := grow(&sc.union, w)
	for i := range union {
		union[i] = 0
	}
	for b := range reqs {
		for j := range reqs[b].Cols {
			col := reqs[b].Cols[j].Col
			if col < 0 || col >= c.numCols {
				return fmt.Errorf("spn: column index %d out of range", col)
			}
			slot := col*nb + b
			if colRef[slot] >= 0 {
				return fmt.Errorf("spn: duplicate column %d in request", col)
			}
			colRef[slot] = int32(j)
			masks[b*w+(col>>6)] |= 1 << (uint(col) & 63)
		}
	}
	for b := 0; b < nb; b++ {
		for k := 0; k < w; k++ {
			union[k] |= masks[b*w+k]
		}
	}
	// Adjacent requests in a plan batch often constrain a column
	// identically (GROUP BY bindings share every filter but the group key;
	// variance requests share every range). rep[col*nb+b] marks request b
	// as repeating the column query that opened the current run on col. It
	// is decided here, once per column more than one leaf reads
	// (multiLeaf), so each of those leaves computes a moment only where a
	// run starts and copies it otherwise; a column's only leaf finds the
	// runs as it goes (leafRow).
	rep := grow(&sc.rep, c.numCols*nb)
	for col := 0; col < c.numCols; col++ {
		if !c.multiLeaf[col] || union[col>>6]&(1<<(uint(col)&63)) == 0 {
			continue
		}
		var run *ColQuery
		for b, ref := range colRef[col*nb : col*nb+nb] {
			if ref < 0 {
				continue
			}
			q := &reqs[b].Cols[ref]
			same := run != nil && sameColQuery(run, q)
			if !same {
				run = q
			}
			rep[col*nb+b] = same
		}
	}

	// Top-down reachability: in postorder, iterating from the end visits
	// every parent before its children.
	active := grow(&sc.active, n)
	for i := range active {
		active[i] = false
	}
	active[c.root] = true
	for i := n - 1; i >= 0; i-- {
		if !active[i] {
			continue
		}
		lo, hi := c.childOff[i], c.childOff[i+1]
		switch c.kind[i] {
		case ProductKind:
			for k := lo; k < hi; k++ {
				ci := c.childIdx[k]
				if maskIntersects(c.scope[int(ci)*w:int(ci)*w+w], union) {
					active[ci] = true
				}
			}
		case SumKind:
			for k := lo; k < hi; k++ {
				if c.weight[k] != 0 {
					active[c.childIdx[k]] = true
				}
			}
		}
	}

	// Bottom-up evaluation; vals[i*nb+b] is node i's value for request b.
	// The word count and batch-mask shape pick the kernel: one-word scope
	// bitsets (<= 64 columns, the common case) drop the per-child slice
	// construction, and a batch whose requests all constrain the same
	// column set (every plan batch: bindings differ in values, not shape)
	// resolves each product node's reachable-child list once instead of
	// once per request. All variants perform the same multiplications and
	// additions in the same order, so results stay bitwise identical.
	vals := grow(&sc.vals, n*nb)
	if w == 1 {
		uniform := true
		for b := 1; b < nb; b++ {
			if masks[b] != masks[0] {
				uniform = false
				break
			}
		}
		c.bottomUpOneWord(reqs, colRef, rep, masks, union[0], active, vals, uniform, sc)
	} else {
		c.bottomUpGeneric(reqs, colRef, rep, masks, union, active, vals)
	}

	rootBase := int(c.root) * nb
	for b := 0; b < nb; b++ {
		v := vals[rootBase+b]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("spn: non-finite inference result")
		}
		out[b] = v
	}
	return nil
}

// leafRow fills leaf node i's value row: 1 where a request leaves the
// leaf's column unconstrained, a fresh moment where a run of identical
// column queries starts, and the run's moment where it continues. A
// multiLeaf column's runs are already marked in rep; the only leaf of a
// column finds them itself with sameColQuery.
func (c *Compiled) leafRow(i, col int, reqs []Request, colRef []int32, rep []bool, row []float64) {
	nb := len(reqs)
	refs := colRef[col*nb : col*nb+nb]
	lf := c.leaf[i]
	var v float64
	if c.multiLeaf[col] {
		marks := rep[col*nb : col*nb+nb]
		for b, ref := range refs {
			switch {
			case ref < 0:
				row[b] = 1
			case !marks[b]:
				v = lf.moment(&reqs[b].Cols[ref])
				row[b] = v
			default:
				row[b] = v
			}
		}
		return
	}
	var run *ColQuery
	for b, ref := range refs {
		if ref < 0 {
			row[b] = 1
			continue
		}
		q := &reqs[b].Cols[ref]
		if run == nil || !sameColQuery(run, q) {
			run, v = q, lf.moment(q)
		}
		row[b] = v
	}
}

// bottomUpGeneric is the reference bottom-up sweep for models with more
// than 64 columns (multi-word scope bitsets).
func (c *Compiled) bottomUpGeneric(reqs []Request, colRef []int32, rep []bool, masks, union []uint64, active []bool, vals []float64) {
	nb := len(reqs)
	w := c.words
	n := len(c.kind)
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		base := i * nb
		lo, hi := c.childOff[i], c.childOff[i+1]
		switch c.kind[i] {
		case LeafKind:
			col := int(c.leafCol[i])
			row := vals[base : base+nb]
			if union[col>>6]&(1<<(uint(col)&63)) == 0 {
				// No request constrains this column: every value is 1.
				for b := range row {
					row[b] = 1
				}
				continue
			}
			c.leafRow(i, col, reqs, colRef, rep, row)
		case ProductKind:
			for b := 0; b < nb; b++ {
				m := masks[b*w : b*w+w]
				acc := 1.0
				for k := lo; k < hi; k++ {
					ci := int(c.childIdx[k])
					if !maskIntersects(c.scope[ci*w:ci*w+w], m) {
						continue
					}
					acc *= vals[ci*nb+b]
					if acc == 0 {
						break
					}
				}
				vals[base+b] = acc
			}
		case SumKind:
			c.sumRow(vals, base, nb, lo, hi)
		}
	}
}

// bottomUpOneWord is the bottom-up sweep specialized for single-word scope
// bitsets; with a uniform batch mask it additionally resolves product
// nodes' reachable children once per node (sc.kept) instead of per
// request. Leaves fill their rows with leafRow, as in bottomUpGeneric.
func (c *Compiled) bottomUpOneWord(reqs []Request, colRef []int32, rep []bool, masks []uint64, union uint64, active []bool, vals []float64, uniform bool, sc *evalScratch) {
	nb := len(reqs)
	n := len(c.kind)
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		base := i * nb
		lo, hi := c.childOff[i], c.childOff[i+1]
		switch c.kind[i] {
		case LeafKind:
			col := int(c.leafCol[i])
			row := vals[base : base+nb]
			if union&(1<<(uint(col)&63)) == 0 {
				for b := range row {
					row[b] = 1
				}
				continue
			}
			c.leafRow(i, col, reqs, colRef, rep, row)
		case ProductKind:
			if uniform {
				// One shared mask: the per-request scope checks collapse
				// into one reachable-child list. Each request still
				// multiplies the same children in the same order (with the
				// same zero short-circuit), so values are unchanged.
				kept := sc.kept[:0]
				for k := lo; k < hi; k++ {
					ci := c.childIdx[k]
					if c.scope[ci]&masks[0] != 0 {
						kept = append(kept, ci)
					}
				}
				sc.kept = kept
				for b := 0; b < nb; b++ {
					acc := 1.0
					for _, ci := range kept {
						acc *= vals[int(ci)*nb+b]
						if acc == 0 {
							break
						}
					}
					vals[base+b] = acc
				}
				continue
			}
			for b := 0; b < nb; b++ {
				mb := masks[b]
				acc := 1.0
				for k := lo; k < hi; k++ {
					ci := int(c.childIdx[k])
					if c.scope[ci]&mb == 0 {
						continue
					}
					acc *= vals[ci*nb+b]
					if acc == 0 {
						break
					}
				}
				vals[base+b] = acc
			}
		case SumKind:
			c.sumRow(vals, base, nb, lo, hi)
		}
	}
}

// sumRow computes one sum node's value row: row[b] accumulates
// weight[k]*child_k[b] over children in ascending k. Walking children in
// the outer loop streams each child's contiguous value row (instead of
// striding across rows per request); per request the additions still
// happen in ascending child order, so the sums are bitwise identical to
// the request-outer formulation.
func (c *Compiled) sumRow(vals []float64, base, nb int, lo, hi int32) {
	row := vals[base : base+nb]
	for b := range row {
		row[b] = 0
	}
	for k := lo; k < hi; k++ {
		wt := c.weight[k]
		if wt == 0 {
			continue
		}
		cb := int(c.childIdx[k]) * nb
		child := vals[cb : cb+nb]
		for b := range row {
			row[b] += wt * child[b]
		}
	}
}

// evalSingle answers one request without the batched phase loops: a dense
// column-reference row, one scope mask, and scalar node values. It
// performs the same operations in the same order as a one-request batch
// (and therefore as the tree walk), so results are bitwise identical.
func (c *Compiled) evalSingle(req *Request, out []float64) error {
	n := len(c.kind)
	w := c.words
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)

	colRef := grow(&sc.colRef, c.numCols)
	for i := range colRef {
		colRef[i] = -1
	}
	mask := grow(&sc.masks, w)
	for i := range mask {
		mask[i] = 0
	}
	for j := range req.Cols {
		col := req.Cols[j].Col
		if col < 0 || col >= c.numCols {
			return fmt.Errorf("spn: column index %d out of range", col)
		}
		if colRef[col] >= 0 {
			return fmt.Errorf("spn: duplicate column %d in request", col)
		}
		colRef[col] = int32(j)
		mask[col>>6] |= 1 << (uint(col) & 63)
	}

	active := grow(&sc.active, n)
	for i := range active {
		active[i] = false
	}
	active[c.root] = true
	for i := n - 1; i >= 0; i-- {
		if !active[i] {
			continue
		}
		lo, hi := c.childOff[i], c.childOff[i+1]
		switch c.kind[i] {
		case ProductKind:
			for k := lo; k < hi; k++ {
				ci := c.childIdx[k]
				if maskIntersects(c.scope[int(ci)*w:int(ci)*w+w], mask) {
					active[ci] = true
				}
			}
		case SumKind:
			for k := lo; k < hi; k++ {
				if c.weight[k] != 0 {
					active[c.childIdx[k]] = true
				}
			}
		}
	}

	vals := grow(&sc.vals, n)
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		lo, hi := c.childOff[i], c.childOff[i+1]
		switch c.kind[i] {
		case LeafKind:
			if ref := colRef[c.leafCol[i]]; ref >= 0 {
				vals[i] = c.leaf[i].moment(&req.Cols[ref])
			} else {
				vals[i] = 1
			}
		case ProductKind:
			acc := 1.0
			for k := lo; k < hi; k++ {
				ci := int(c.childIdx[k])
				if !maskIntersects(c.scope[ci*w:ci*w+w], mask) {
					continue
				}
				acc *= vals[ci]
				if acc == 0 {
					break
				}
			}
			vals[i] = acc
		case SumKind:
			acc := 0.0
			for k := lo; k < hi; k++ {
				wt := c.weight[k]
				if wt == 0 {
					continue
				}
				acc += wt * vals[int(c.childIdx[k])]
			}
			vals[i] = acc
		}
	}

	v := vals[c.root]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("spn: non-finite inference result")
	}
	out[0] = v
	return nil
}

// Refresh rebuilds the SPN's derived evaluation state: the cached sum-node
// count totals, the compiled flat evaluator every inference runs on, and
// the full-range masses of leaves not yet cached (every leaf of a decoded
// tree). Learning and deserialization call it; call it manually after
// building or restructuring a tree by hand.
//
// Refresh writes into every node, so it must never run on a tree that
// shares nodes with another SPN: after a Clone, neither the clone nor its
// source may be refreshed, and Refresh panics if asked to.
func (s *SPN) Refresh() {
	if s.epoch != 0 {
		panic("spn: Refresh on an SPN that shares its tree with a clone")
	}
	s.Root.RefreshTotals()
	s.flat = compileTree(s.Root, len(s.Columns))
	s.colIdx = make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		s.colIdx[c] = i
	}
}

// Compiled returns the flat evaluator.
func (s *SPN) Compiled() *Compiled { return s.flat }

// EvaluateBatch evaluates many requests in one pass over the compiled
// flat form, writing request i's value into out[i]. Results are
// bit-identical to per-request Evaluate.
func (s *SPN) EvaluateBatch(reqs []Request, out []float64) error {
	return s.flat.EvaluateBatch(reqs, out)
}
