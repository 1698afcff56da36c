package spn

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
)

// lazyComponents is independentComponents as it was before it tested
// every pair at once: one pair at a time in pair order, each column
// prepared for a role the first time a pair needs it, and a pair skipped
// when the union-find has already joined its columns. It is the reference
// the concurrent form must match.
func (l *learner) lazyComponents(rows []int, scope []int) [][]int {
	k := len(scope)
	sample := rows
	if len(sample) > l.cfg.RDCSample {
		idx := l.rng.Perm(len(rows))[:l.cfg.RDCSample]
		sample = make([]int, l.cfg.RDCSample)
		for i, j := range idx {
			sample[i] = rows[j]
		}
	}
	cols := make([][]float64, k)
	for i, c := range scope {
		v := make([]float64, len(sample))
		for j, r := range sample {
			x := l.data[r][c]
			if math.IsNaN(x) {
				x = math.Inf(-1)
			}
			v[j] = x
		}
		cols[i] = v
	}
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
	rdcCfg := stats.LearnRDCConfig(l.cfg.Seed)
	xs := make([]*stats.RDCColumn, k)
	ys := make([]*stats.RDCColumn, k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if find(i) == find(j) {
				continue
			}
			if xs[i] == nil {
				xs[i] = stats.PrepareRDC(cols[i], stats.RoleX, rdcCfg)
			}
			if ys[j] == nil {
				ys[j] = stats.PrepareRDC(cols[j], stats.RoleY, rdcCfg)
			}
			if stats.RDCPair(xs[i], ys[j]) > l.cfg.RDCThreshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < k; i++ {
		groups[find(i)] = append(groups[find(i)], scope[i])
	}
	var comps [][]int
	for _, g := range groups {
		sort.Ints(g)
		comps = append(comps, g)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// TestComponentsMatchLazyUnion: on random dependency patterns (each
// column independent noise or a noisy function of an earlier one, with
// NULLs, ties and noise levels that put some pairs near the threshold),
// testing every pair concurrently and joining the dependent ones in pair
// order gives the components of the lazy one-pair-at-a-time loop, and
// leaves the learner's random stream where the loop left it.
func TestComponentsMatchLazyUnion(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	mixed := 0 // trials with more than one component, one of them joined
	for trial := 0; trial < 40; trial++ {
		k := 2 + gen.Intn(7)
		n := 50 + gen.Intn(400)
		data := make([][]float64, n)
		for r := range data {
			data[r] = make([]float64, k)
		}
		for c := 0; c < k; c++ {
			src, noise := -1, 0.2+2*gen.Float64()
			if c > 0 && gen.Intn(3) > 0 {
				src = gen.Intn(c)
			}
			levels := 0
			if gen.Intn(3) == 0 {
				levels = 2 + gen.Intn(6)
			}
			for r := range data {
				v := gen.NormFloat64()
				if src >= 0 {
					v = math.Sin(3*data[r][src]) + noise*v
				}
				if levels > 0 {
					v = math.Floor(math.Mod(math.Abs(v)*3, float64(levels)))
				}
				if gen.Intn(20) == 0 {
					v = math.NaN()
				}
				data[r][c] = v
			}
		}
		cfg := DefaultLearnConfig()
		cfg.RDCSample = 40 + gen.Intn(200)
		cfg.Seed = int64(trial)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		scope := gen.Perm(k)[:2+gen.Intn(k-1)]
		sort.Ints(scope)
		newLearner := func(workers int) *learner {
			return &learner{data: data, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), workers: workers}
		}
		ref := newLearner(1)
		want := ref.lazyComponents(rows, scope)
		next := ref.rng.Int63()
		for _, workers := range []int{1, 4} {
			l := newLearner(workers)
			if got := l.independentComponents(rows, scope); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d workers, scope %v: components %v, lazy loop %v", trial, workers, scope, got, want)
			}
			if l.rng.Int63() != next {
				t.Fatalf("trial %d, %d workers: the random stream moved differently", trial, workers)
			}
		}
		if len(want) > 1 && len(want) < len(scope) {
			mixed++
		}
	}
	if mixed < 5 {
		t.Fatalf("%d of 40 trials split into some but not all columns: the patterns do not exercise the union", mixed)
	}
}
