package spn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// LearnConfig holds the structure-learning hyperparameters. The defaults
// match the paper's Section 6 setup: RDC threshold 0.3 and a minimum
// instance slice of 1% of the input rows.
type LearnConfig struct {
	// RDCThreshold: column pairs with RDC above it are considered
	// dependent and stay in the same product-node child.
	RDCThreshold float64
	// MinInstanceFrac is the minimum row-cluster size as a fraction of the
	// input; below it the learner stops splitting rows and factorizes.
	MinInstanceFrac float64
	// KMeansClusters is the fan-out of sum nodes.
	KMeansClusters int
	// MaxDistinct is the exact-leaf limit before binning (Section 3.2).
	MaxDistinct int
	// Bins is the bin count for binned leaves.
	Bins int
	// RDCSample caps the rows used per pairwise RDC test.
	RDCSample int
	// Seed makes learning deterministic.
	Seed int64
}

// DefaultLearnConfig mirrors the paper's hyperparameters.
func DefaultLearnConfig() LearnConfig {
	return LearnConfig{
		RDCThreshold:    0.3,
		MinInstanceFrac: 0.01,
		KMeansClusters:  2,
		MaxDistinct:     1024,
		Bins:            64,
		RDCSample:       1500,
		Seed:            1,
	}
}

// SPN is a learned sum-product network over named columns.
type SPN struct {
	Root     *Node
	Columns  []string // column names by scope index
	RowCount float64  // rows the model holds: training rows (a sample, for a sampled member) moved by each Update's weight
	Config   LearnConfig

	// flat is the compiled structure-of-arrays evaluator (compiled.go)
	// every inference runs on, built by Refresh at the end of learning and
	// after deserialization, copied in part by Clone, and re-weighted by
	// Update.
	// Unexported so gob skips it.
	flat *Compiled
	// colIdx caches name -> scope index (built by Refresh; nil falls back
	// to a linear scan).
	colIdx map[string]int
	// batching suppresses the per-mutation flat-weight refresh between
	// BeginBatch and EndBatch (update.go), so a batch recompiles once.
	batching bool
	// epoch names the nodes this SPN may write in place (Node.owner); 0
	// for a learned or decoded SPN, fresh per Clone (clone.go).
	epoch uint64
	// point is the write path's buffer for a tuple normalized onto a sum
	// node's scope (nearestChild).
	point []float64
}

// ColumnIndex returns the scope index of the named column, or -1.
func (s *SPN) ColumnIndex(name string) int {
	if s.colIdx != nil {
		if i, ok := s.colIdx[name]; ok {
			return i
		}
		return -1
	}
	for i, c := range s.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Learn builds an SPN over the data matrix (rows x columns, NaN = NULL).
//
//deepdb:testonly the context-free form the tests of five packages learn their fixture models with
func Learn(data [][]float64, columns []string, cfg LearnConfig) (*SPN, error) {
	return LearnContext(context.Background(), data, columns, cfg, 0)
}

// LearnContext is Learn with cancellation: the recursive structure-learning
// loop checks ctx at every node split and aborts with ctx.Err() once the
// context is done, so a caller can bound the cost of learning a large RSPN.
// Each column-split test, and each nearest-centroid pass of KMeans over at
// least stats.KMeansParallelPoints rows, runs on up to workers goroutines
// (0 means one per core); the count changes only wall-clock time, never
// the model.
func LearnContext(ctx context.Context, data [][]float64, columns []string, cfg LearnConfig, workers int) (*SPN, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("spn: no training rows")
	}
	if len(columns) == 0 || len(data[0]) != len(columns) {
		return nil, fmt.Errorf("spn: %d columns named, rows have %d", len(columns), len(data[0]))
	}
	if cfg.RDCThreshold == 0 && cfg.MinInstanceFrac == 0 {
		cfg = DefaultLearnConfig()
	}
	if cfg.KMeansClusters < 2 {
		cfg.KMeansClusters = 2
	}
	if cfg.MaxDistinct <= 0 {
		cfg.MaxDistinct = 1024
	}
	if cfg.Bins <= 0 {
		cfg.Bins = 64
	}
	if cfg.RDCSample <= 0 {
		cfg.RDCSample = 1500
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	l := &learner{
		ctx:     ctx,
		data:    data,
		columns: columns,
		cfg:     cfg,
		minRows: int(math.Max(1, cfg.MinInstanceFrac*float64(len(data)))),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		workers: workers,
	}
	rows := make([]int, len(data))
	for i := range rows {
		rows[i] = i
	}
	scope := make([]int, len(columns))
	for i := range scope {
		scope[i] = i
	}
	root := l.build(rows, scope, true)
	if l.err != nil {
		return nil, l.err
	}
	spn := &SPN{Root: root, Columns: columns, RowCount: float64(len(data)), Config: cfg}
	if err := root.Validate(); err != nil {
		return nil, err
	}
	spn.Refresh()
	return spn, nil
}

// LearnExact builds a memorizing SPN: a sum node with one child per
// distinct row, each child a product of point-mass leaves. The resulting
// model represents the empirical joint distribution exactly, which is what
// the paper's worked examples (Figures 3-5) assume. It is intended for
// small tables; the node count grows linearly with distinct rows.
//
//deepdb:nocancel documented for small worked-example tables; loops are linear in a deliberately small input
func LearnExact(data [][]float64, columns []string) (*SPN, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("spn: no training rows")
	}
	if len(columns) == 0 || len(data[0]) != len(columns) {
		return nil, fmt.Errorf("spn: %d columns named, rows have %d", len(columns), len(data[0]))
	}
	scope := make([]int, len(columns))
	for i := range scope {
		scope[i] = i
	}
	// Deduplicate rows, preserving first-seen order for determinism.
	type group struct {
		row   []float64
		count float64
	}
	var groups []*group
	index := map[string]*group{}
	for _, row := range data {
		key := fmt.Sprint(row)
		if g, ok := index[key]; ok {
			g.count++
			continue
		}
		g := &group{row: row, count: 1}
		index[key] = g
		groups = append(groups, g)
	}
	if len(groups) == 1 {
		root := exactRowNode(groups[0].row, columns, scope)
		s := &SPN{Root: root, Columns: columns, RowCount: float64(len(data))}
		s.Refresh()
		return s, nil
	}
	root := &Node{Kind: SumKind, Scope: scope}
	mins := make([]float64, len(columns))
	maxs := make([]float64, len(columns))
	for j := range columns {
		mins[j], maxs[j] = math.Inf(1), math.Inf(-1)
		for _, g := range groups {
			v := g.row[j]
			if math.IsNaN(v) {
				continue
			}
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
		if math.IsInf(mins[j], 1) {
			mins[j], maxs[j] = 0, 1
		}
		if maxs[j] == mins[j] {
			maxs[j] = mins[j] + 1
		}
	}
	root.NormMin, root.NormMax = mins, maxs
	for _, g := range groups {
		root.Children = append(root.Children, exactRowNode(g.row, columns, scope))
		root.ChildCounts = append(root.ChildCounts, g.count)
		centroid := make([]float64, len(columns))
		for j := range columns {
			centroid[j] = NormalizeValue(g.row[j], mins[j], maxs[j])
		}
		root.Centroids = append(root.Centroids, centroid)
	}
	spn := &SPN{Root: root, Columns: columns, RowCount: float64(len(data))}
	if err := root.Validate(); err != nil {
		return nil, err
	}
	spn.Refresh()
	return spn, nil
}

// exactRowNode builds the product-of-point-leaves node for one row.
func exactRowNode(row []float64, columns []string, scope []int) *Node {
	if len(scope) == 1 {
		return exactLeaf(row[scope[0]], scope[0], columns[scope[0]])
	}
	children := make([]*Node, len(scope))
	for i, c := range scope {
		children[i] = exactLeaf(row[c], c, columns[c])
	}
	return &Node{Kind: ProductKind, Scope: append([]int(nil), scope...), Children: children}
}

func exactLeaf(v float64, col int, name string) *Node {
	l := &Leaf{Col: col, Name: name, Total: 1}
	if math.IsNaN(v) {
		l.NullW = 1
	} else {
		l.Vals = []float64{v}
		l.Freq = []float64{1}
	}
	return &Node{Kind: LeafKind, Scope: []int{col}, Leaf: l}
}

type learner struct {
	ctx     context.Context
	data    [][]float64
	columns []string
	cfg     LearnConfig
	minRows int
	rng     *rand.Rand
	workers int // goroutines of one column-split test or KMeans pass
	// err records a context cancellation observed during recursion; the
	// learner then unwinds by factorizing every remaining branch cheaply.
	err error
}

// build recursively grows the SPN over the given rows and scope.
// tryRowSplit alternates split direction the way the MSPN learner does:
// after a failed or performed column split we attempt row clustering next.
func (l *learner) build(rows []int, scope []int, tryColsFirst bool) *Node {
	if l.err == nil && l.ctx != nil {
		select {
		case <-l.ctx.Done():
			l.err = l.ctx.Err()
		default:
		}
	}
	if l.err != nil {
		// Cancelled: produce a structurally valid placeholder so recursion
		// unwinds fast; the caller discards the model and returns l.err.
		return l.factorizeAll(rows, scope)
	}
	if len(scope) == 1 {
		return l.leaf(rows, scope[0])
	}
	if len(rows) <= l.minRows || len(rows) < 2*l.cfg.KMeansClusters {
		// Too few rows to cluster: naive factorization into leaves.
		return l.factorizeAll(rows, scope)
	}
	if tryColsFirst {
		if comps := l.independentComponents(rows, scope); len(comps) > 1 {
			return l.product(rows, scope, comps)
		}
		return l.sumSplit(rows, scope)
	}
	node := l.sumSplit(rows, scope)
	return node
}

// leaf builds a leaf node for one column over the given rows.
func (l *learner) leaf(rows []int, col int) *Node {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = l.data[r][col]
	}
	lf := NewLeaf(col, l.columns[col], vals, l.cfg.MaxDistinct, l.cfg.Bins)
	return &Node{Kind: LeafKind, Scope: []int{col}, Leaf: lf}
}

// factorizeAll returns a product of single-column leaves (or one leaf).
func (l *learner) factorizeAll(rows []int, scope []int) *Node {
	if len(scope) == 1 {
		return l.leaf(rows, scope[0])
	}
	var children []*Node
	for _, c := range scope {
		children = append(children, l.leaf(rows, c))
	}
	return &Node{Kind: ProductKind, Scope: append([]int(nil), scope...), Children: children}
}

// independentComponents groups the scope columns into connected components
// of the dependency graph whose edges are RDC > threshold. One component
// means no product split is possible.
func (l *learner) independentComponents(rows []int, scope []int) [][]int {
	k := len(scope)
	sample := rows
	if len(sample) > l.cfg.RDCSample {
		idx := l.rng.Perm(len(rows))[:l.cfg.RDCSample]
		sample = make([]int, l.cfg.RDCSample)
		for i, j := range idx {
			sample[i] = rows[j]
		}
	}
	// Every column is prepared concurrently, from one copula transform for
	// both of its roles. (The closures here return no error.)
	rdcCfg := stats.LearnRDCConfig(l.cfg.Seed)
	cols := make([]*stats.RDCColumn, k)
	_ = parallel.ForEach(k, l.workers, func(i int) error {
		v := make([]float64, len(sample))
		for j, r := range sample {
			x := l.data[r][scope[i]]
			if math.IsNaN(x) {
				// NULL as a dedicated low sentinel for the rank transform.
				x = math.Inf(-1)
			}
			v[j] = x
		}
		cols[i] = stats.PrepareRDC(v, stats.PairRoles(i, k), rdcCfg)
		return nil
	})
	// Every pair is tested concurrently, then the edges above the
	// threshold are joined in pair order.
	pairs := make([][2]int, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	dependent := make([]bool, len(pairs))
	_ = parallel.ForEach(len(pairs), l.workers, func(p int) error {
		dependent[p] = stats.RDCPair(cols[pairs[p][0]], cols[pairs[p][1]]) > l.cfg.RDCThreshold
		return nil
	})
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for p, pair := range pairs {
		if dependent[p] {
			parent[find(pair[0])] = find(pair[1])
		}
	}
	groups := map[int][]int{}
	for i := 0; i < k; i++ {
		root := find(i)
		groups[root] = append(groups[root], scope[i])
	}
	comps := make([][]int, 0, len(groups))
	//deepdb:orderinvariant comps is fully re-sorted below; groups partition scope so first elements are unique sort keys
	for _, g := range groups {
		sort.Ints(g)
		comps = append(comps, g)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// product builds a product node over the independent column components.
func (l *learner) product(rows []int, scope []int, comps [][]int) *Node {
	var children []*Node
	for _, comp := range comps {
		if len(comp) == 1 {
			children = append(children, l.leaf(rows, comp[0]))
			continue
		}
		children = append(children, l.build(rows, comp, false))
	}
	return &Node{Kind: ProductKind, Scope: append([]int(nil), scope...), Children: children}
}

// sumSplit clusters the rows with KMeans and builds a sum node. When
// clustering degenerates (all rows in one cluster) it falls back to naive
// factorization so recursion always terminates.
func (l *learner) sumSplit(rows []int, scope []int) *Node {
	points, normMin, normMax := l.normalizedPoints(rows, scope)
	res := stats.KMeans(points, len(scope), l.cfg.KMeansClusters, 30, l.rng, l.workers)
	clusters := make([][]int, len(res.Centroids))
	for i, a := range res.Assignments {
		clusters[a] = append(clusters[a], rows[i])
	}
	var nonEmpty [][]int
	var centroids [][]float64
	for c, rs := range clusters {
		if len(rs) > 0 {
			nonEmpty = append(nonEmpty, rs)
			centroids = append(centroids, res.Centroids[c])
		}
	}
	if len(nonEmpty) < 2 {
		return l.factorizeAll(rows, scope)
	}
	node := &Node{
		Kind:      SumKind,
		Scope:     append([]int(nil), scope...),
		Centroids: centroids,
		NormMin:   normMin,
		NormMax:   normMax,
	}
	for _, rs := range nonEmpty {
		node.ChildCounts = append(node.ChildCounts, float64(len(rs)))
		node.Children = append(node.Children, l.build(rs, scope, true))
	}
	return node
}

// normalizedPoints scales each scope column to [0,1] and maps NULL to the
// sentinel -0.5 so NULLs cluster together, returning the points row-major
// (len(rows) x len(scope)) and the per-column min/max used (kept on the
// sum node for routing updates).
func (l *learner) normalizedPoints(rows []int, scope []int) (points []float64, mins, maxs []float64) {
	k := len(scope)
	mins = make([]float64, k)
	maxs = make([]float64, k)
	for i := range mins {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}
	for _, r := range rows {
		for i, c := range scope {
			v := l.data[r][c]
			if math.IsNaN(v) {
				continue
			}
			if v < mins[i] {
				mins[i] = v
			}
			if v > maxs[i] {
				maxs[i] = v
			}
		}
	}
	for i := range mins {
		if math.IsInf(mins[i], 1) { // all NULL
			mins[i], maxs[i] = 0, 1
		}
		if maxs[i] == mins[i] {
			maxs[i] = mins[i] + 1
		}
	}
	points = make([]float64, len(rows)*k)
	for j, r := range rows {
		p := points[j*k : (j+1)*k]
		for i, c := range scope {
			p[i] = NormalizeValue(l.data[r][c], mins[i], maxs[i])
		}
	}
	return points, mins, maxs
}

// NormalizeValue maps v into [0,1] given column min/max, with NULL (NaN)
// mapped to the sentinel -0.5. Shared with the update path so routing uses
// the same geometry as learning.
func NormalizeValue(v, min, max float64) float64 {
	if math.IsNaN(v) {
		return -0.5
	}
	if max == min {
		return 0
	}
	return (v - min) / (max - min)
}
