package spn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---- Leaf tests ----

func TestLeafExactMoments(t *testing.T) {
	// Values: 10 x3, 20 x1, NULL x1. Total weight 5.
	data := []float64{10, 10, 10, 20, math.NaN()}
	l := NewLeaf(0, "x", data, 100, 8)
	if l.Total != 5 || l.NullW != 1 {
		t.Fatalf("total=%v nullw=%v", l.Total, l.NullW)
	}
	// P(x = 10) = 3/5.
	if p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{PointRange(10)}}); math.Abs(p-0.6) > 1e-12 {
		t.Fatalf("P(x=10) = %v, want 0.6", p)
	}
	// E(x * 1(all non-null)) = (30+20)/5 = 10.
	if e := l.Moment(ColQuery{Fn: FnIdent}); math.Abs(e-10) > 1e-12 {
		t.Fatalf("E(x) = %v, want 10", e)
	}
	// E(x^2) = (300+400)/5 = 140.
	if e := l.Moment(ColQuery{Fn: FnSquare}); math.Abs(e-140) > 1e-12 {
		t.Fatalf("E(x^2) = %v, want 140", e)
	}
	// P(not null) = 4/5.
	if p := l.Moment(ColQuery{Fn: FnOne, ExcludeNull: true}); math.Abs(p-0.8) > 1e-12 {
		t.Fatalf("P(not null) = %v, want 0.8", p)
	}
	// Unconstrained FnOne = exactly 1 (NULL included).
	if p := l.Moment(ColQuery{Fn: FnOne}); p != 1 {
		t.Fatalf("unconstrained = %v, want 1", p)
	}
}

func TestLeafRangeSemantics(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	l := NewLeaf(0, "x", data, 100, 8)
	cases := []struct {
		r    Range
		want float64
	}{
		{Range{Lo: 2, Hi: 4, LoIncl: true, HiIncl: true}, 0.6},
		{Range{Lo: 2, Hi: 4, LoIncl: false, HiIncl: true}, 0.4},
		{Range{Lo: 2, Hi: 4, LoIncl: true, HiIncl: false}, 0.4},
		{Range{Lo: 2, Hi: 4, LoIncl: false, HiIncl: false}, 0.2},
		{Range{Lo: math.Inf(-1), Hi: 3, LoIncl: true, HiIncl: false}, 0.4},
	}
	for _, c := range cases {
		if p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{c.r}}); math.Abs(p-c.want) > 1e-12 {
			t.Errorf("range %+v: p = %v, want %v", c.r, p, c.want)
		}
	}
	// Union of ranges (IN-style).
	p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{PointRange(1), PointRange(5)}})
	if math.Abs(p-0.4) > 1e-12 {
		t.Fatalf("IN(1,5) = %v, want 0.4", p)
	}
}

func TestLeafInverseClamp(t *testing.T) {
	// Tuple factors: values 0, 1, 2, 4. FnInv clamps 0 to 1.
	data := []float64{0, 1, 2, 4}
	l := NewLeaf(0, "f", data, 100, 8)
	want := (1.0 + 1.0 + 0.5 + 0.25) / 4
	if e := l.Moment(ColQuery{Fn: FnInv}); math.Abs(e-want) > 1e-12 {
		t.Fatalf("E(1/max(f,1)) = %v, want %v", e, want)
	}
	want2 := (1.0 + 1.0 + 0.25 + 0.0625) / 4
	if e := l.Moment(ColQuery{Fn: FnInvSquare}); math.Abs(e-want2) > 1e-12 {
		t.Fatalf("E(1/max(f,1)^2) = %v, want %v", e, want2)
	}
}

func TestLeafBinnedMode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 100
	}
	l := NewLeaf(0, "x", data, 32, 64) // force binning
	if !l.Binned {
		t.Fatal("leaf should be binned")
	}
	// P(x < 50) should be about 0.5.
	p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{{Lo: math.Inf(-1), Hi: 50, LoIncl: true, HiIncl: false}}})
	if math.Abs(p-0.5) > 0.05 {
		t.Fatalf("P(x<50) = %v, want ~0.5", p)
	}
	// E(x) should be about 50.
	if e := l.Moment(ColQuery{Fn: FnIdent}); math.Abs(e-50) > 2 {
		t.Fatalf("E(x) = %v, want ~50", e)
	}
	// E(x^2) of U(0,100) is 10000/3.
	if e := l.Moment(ColQuery{Fn: FnSquare}); math.Abs(e-10000.0/3)/(10000.0/3) > 0.05 {
		t.Fatalf("E(x^2) = %v, want ~3333", e)
	}
}

func TestLeafUpdate(t *testing.T) {
	l := NewLeaf(0, "x", []float64{1, 2, 3}, 100, 8)
	l.Add(2, 1) // second 2
	if p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{PointRange(2)}}); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P(x=2) after insert = %v, want 0.5", p)
	}
	l.Add(7, 1) // unseen value inserted in order
	if p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{PointRange(7)}}); math.Abs(p-0.2) > 1e-12 {
		t.Fatalf("P(x=7) = %v, want 0.2", p)
	}
	for i := 1; i < len(l.Vals); i++ {
		if l.Vals[i-1] >= l.Vals[i] {
			t.Fatal("values not sorted after insert")
		}
	}
	l.Add(7, -1) // delete it again
	if p := l.Moment(ColQuery{Fn: FnOne, Ranges: []Range{PointRange(7)}}); p != 0 {
		t.Fatalf("P(x=7) after delete = %v, want 0", p)
	}
	l.Add(math.NaN(), 1) // NULL insert
	if l.NullW != 1 {
		t.Fatalf("null weight = %v, want 1", l.NullW)
	}
}

// ---- Hand-built SPN matching Figure 3c/3d of the paper ----

// figure3SPN builds the exact SPN of Figure 3c: sum node with weights
// 0.3/0.7 over two product nodes; each product has a region leaf and an age
// leaf. Region codes: EU=0, ASIA=1.
func figure3SPN() *SPN {
	regionLeft := &Leaf{Col: 0, Name: "c_region", Vals: []float64{0, 1}, Freq: []float64{80, 20}, Total: 100}
	// Age left: 15% younger than 30 -> 15 at age 25, 85 at age 70.
	ageLeft := &Leaf{Col: 1, Name: "c_age", Vals: []float64{25, 70}, Freq: []float64{15, 85}, Total: 100}
	regionRight := &Leaf{Col: 0, Name: "c_region", Vals: []float64{0, 1}, Freq: []float64{10, 90}, Total: 100}
	ageRight := &Leaf{Col: 1, Name: "c_age", Vals: []float64{25, 70}, Freq: []float64{20, 80}, Total: 100}
	mk := func(r, a *Leaf) *Node {
		return &Node{Kind: ProductKind, Scope: []int{0, 1}, Children: []*Node{
			{Kind: LeafKind, Scope: []int{0}, Leaf: r},
			{Kind: LeafKind, Scope: []int{1}, Leaf: a},
		}}
	}
	root := &Node{
		Kind:        SumKind,
		Scope:       []int{0, 1},
		Children:    []*Node{mk(regionLeft, ageLeft), mk(regionRight, ageRight)},
		ChildCounts: []float64{300, 700},
	}
	s := &SPN{Root: root, Columns: []string{"c_region", "c_age"}, RowCount: 1000}
	s.Refresh() // inference runs on the compiled form
	return s
}

// Probability returns P(all range constraints hold), i.e. the request with
// every Fn forced to FnOne.
func (s *SPN) Probability(cols []ColQuery) (float64, error) {
	req := Request{Cols: make([]ColQuery, len(cols))}
	for i, c := range cols {
		c.Fn = FnOne
		req.Cols[i] = c
	}
	return s.Evaluate(req)
}

func TestFigure3dProbability(t *testing.T) {
	s := figure3SPN()
	if err := s.Root.Validate(); err != nil {
		t.Fatal(err)
	}
	// P(region=EU, age<30) = 0.3*(0.8*0.15) + 0.7*(0.1*0.2) = 0.036+0.014 = 0.05.
	p, err := s.Probability([]ColQuery{
		{Col: 0, Ranges: []Range{PointRange(0)}},
		{Col: 1, Ranges: []Range{{Lo: math.Inf(-1), Hi: 30, LoIncl: true, HiIncl: false}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.05) > 1e-12 {
		t.Fatalf("P = %v, want 0.05 (paper Figure 3d)", p)
	}
	// Times 1000 rows -> 50 European customers younger than 30.
	if est := p * s.RowCount; math.Abs(est-50) > 1e-9 {
		t.Fatalf("estimate = %v, want 50", est)
	}
}

func TestFigure4ConditionalExpectation(t *testing.T) {
	s := figure3SPN()
	// Figure 4a: E(age * 1(region=EU)).
	// Left cluster: E(age)=0.15*25+0.85*70=63.25; weighted: 0.8*63.25=50.6
	// Right cluster: E(age)=0.2*25+0.8*70=61; weighted: 0.1*61=6.1
	// Total: 0.3*50.6 + 0.7*6.1 = 15.18 + 4.27 = 19.45
	num, err := s.Evaluate(Request{Cols: []ColQuery{
		{Col: 0, Fn: FnOne, Ranges: []Range{PointRange(0)}},
		{Col: 1, Fn: FnIdent},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(num-19.45) > 1e-9 {
		t.Fatalf("E(age*1_EU) = %v, want 19.45", num)
	}
	// Figure 4b: P(region=EU) = 0.3*0.8 + 0.7*0.1 = 0.31.
	den, err := s.Probability([]ColQuery{{Col: 0, Ranges: []Range{PointRange(0)}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(den-0.31) > 1e-12 {
		t.Fatalf("P(EU) = %v, want 0.31", den)
	}
	// Conditional expectation: the ratio.
	if e := num / den; math.Abs(e-62.741935) > 1e-5 {
		t.Fatalf("E(age|EU) = %v", e)
	}
}

// ---- Learning tests ----

// clusteredData generates the Figure 3a-style table: 30% older Europeans,
// 70% younger Asians. Region: EU=0, ASIA=1.
func clusteredData(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		if i < n*3/10 {
			age := 55 + rng.Float64()*45 // 55..100
			region := 0.0
			if rng.Float64() < 0.1 {
				region = 1
			}
			data[i] = []float64{region, math.Floor(age)}
		} else {
			age := 18 + rng.Float64()*25 // 18..43
			region := 1.0
			if rng.Float64() < 0.1 {
				region = 0
			}
			data[i] = []float64{region, math.Floor(age)}
		}
	}
	rng.Shuffle(n, func(i, j int) { data[i], data[j] = data[j], data[i] })
	return data
}

func TestLearnRecoversJointDistribution(t *testing.T) {
	data := clusteredData(5000, 42)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Root.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ground truth from the data itself.
	countTrue := 0
	for _, row := range data {
		if row[0] == 0 && row[1] < 30 {
			countTrue++
		}
	}
	p, err := s.Probability([]ColQuery{
		{Col: 0, Ranges: []Range{PointRange(0)}},
		{Col: 1, Ranges: []Range{{Lo: math.Inf(-1), Hi: 30, LoIncl: true, HiIncl: false}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	est := p * float64(len(data))
	if relErr := math.Abs(est-float64(countTrue)) / math.Max(1, float64(countTrue)); relErr > 0.25 {
		t.Fatalf("estimate %v vs true %v: rel err %v too high", est, countTrue, relErr)
	}
}

func TestLearnConditionalExpectation(t *testing.T) {
	data := clusteredData(5000, 7)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sumTrue, nTrue float64
	for _, row := range data {
		if row[0] == 0 {
			sumTrue += row[1]
			nTrue++
		}
	}
	avgTrue := sumTrue / nTrue
	num, err := s.Evaluate(Request{Cols: []ColQuery{
		{Col: 0, Fn: FnOne, Ranges: []Range{PointRange(0)}},
		{Col: 1, Fn: FnIdent},
	}})
	if err != nil {
		t.Fatal(err)
	}
	den, err := s.Probability([]ColQuery{{Col: 0, Ranges: []Range{PointRange(0)}}})
	if err != nil {
		t.Fatal(err)
	}
	avgEst := num / den
	if math.Abs(avgEst-avgTrue)/avgTrue > 0.1 {
		t.Fatalf("AVG estimate %v vs true %v", avgEst, avgTrue)
	}
}

func TestLearnIndependentColumnsYieldProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3000
	data := make([][]float64, n)
	for i := range data {
		data[i] = []float64{math.Floor(rng.Float64() * 10), math.Floor(rng.Float64() * 10)}
	}
	s, err := Learn(data, []string{"a", "b"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Independent columns should produce a product split at (or near) the
	// root rather than deep sum chains.
	if s.Root.Kind != ProductKind {
		t.Fatalf("root kind = %v, want product for independent columns", s.Root.Kind)
	}
}

func TestLearnHandlesNulls(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2000
	data := make([][]float64, n)
	for i := range data {
		v := math.Floor(rng.Float64() * 5)
		w := v*10 + math.Floor(rng.Float64()*3)
		if rng.Float64() < 0.2 {
			w = math.NaN()
		}
		data[i] = []float64{v, w}
	}
	s, err := Learn(data, []string{"a", "b"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	// P(b not null) should be about 0.8.
	idx := s.ColumnIndex("b")
	p, err := s.Probability([]ColQuery{{Col: idx, ExcludeNull: true}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.8) > 0.05 {
		t.Fatalf("P(b not null) = %v, want ~0.8", p)
	}
}

func TestLearnErrors(t *testing.T) {
	if _, err := Learn(nil, []string{"a"}, DefaultLearnConfig()); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := Learn([][]float64{{1, 2}}, []string{"a"}, DefaultLearnConfig()); err == nil {
		t.Fatal("expected error for column count mismatch")
	}
}

func TestLearnSingleColumn(t *testing.T) {
	data := [][]float64{{1}, {2}, {3}, {1}}
	s, err := Learn(data, []string{"x"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Probability([]ColQuery{{Col: 0, Ranges: []Range{PointRange(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P(x=1) = %v, want 0.5", p)
	}
}

// ---- Probability invariants (property-based) ----

func TestProbabilityInvariants(t *testing.T) {
	data := clusteredData(2000, 13)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(loRaw, width float64) bool {
		lo := math.Mod(math.Abs(loRaw), 100)
		hi := lo + math.Mod(math.Abs(width), 100)
		p, err := s.Probability([]ColQuery{{Col: 1, Ranges: []Range{{Lo: lo, Hi: hi, LoIncl: true, HiIncl: true}}}})
		if err != nil {
			return false
		}
		if p < -1e-9 || p > 1+1e-9 {
			return false
		}
		// Monotonicity: widening the range cannot lower the probability.
		p2, err := s.Probability([]ColQuery{{Col: 1, Ranges: []Range{{Lo: lo - 1, Hi: hi + 1, LoIncl: true, HiIncl: true}}}})
		if err != nil {
			return false
		}
		return p2 >= p-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalProbabilityIsOne(t *testing.T) {
	data := clusteredData(2000, 17)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Probability([]ColQuery{
		{Col: 0, Ranges: []Range{FullRange()}},
		{Col: 1, Ranges: []Range{FullRange()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No NULLs in this data set, so the full range covers everything.
	if math.Abs(p-1) > 1e-9 {
		t.Fatalf("total probability = %v, want 1", p)
	}
}

// ---- Update tests ----

func TestInsertShiftsDistribution(t *testing.T) {
	data := clusteredData(2000, 23)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	evalP := func() float64 {
		p, err := s.Probability([]ColQuery{
			{Col: 0, Ranges: []Range{PointRange(0)}},
			{Col: 1, Ranges: []Range{{Lo: math.Inf(-1), Hi: 30, LoIncl: true, HiIncl: false}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := evalP()
	// Insert 500 young European customers (the paper's motivating update).
	for i := 0; i < 500; i++ {
		if err := s.Update([]float64{0, 22}, 1); err != nil {
			t.Fatal(err)
		}
	}
	after := evalP()
	if after <= before {
		t.Fatalf("P should rise after inserts: before=%v after=%v", before, after)
	}
	if s.RowCount != 2500 {
		t.Fatalf("row count = %v, want 2500", s.RowCount)
	}
	// The estimated count of young Europeans should have grown by roughly
	// the 500 inserted tuples.
	growth := after*s.RowCount - before*2000
	if growth < 350 || growth > 650 {
		t.Fatalf("estimated growth = %v, want ~500", growth)
	}
}

func TestInsertThenDeleteRestores(t *testing.T) {
	data := clusteredData(1000, 29)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	probe := []ColQuery{{Col: 1, Ranges: []Range{{Lo: 0, Hi: 40, LoIncl: true, HiIncl: true}}}}
	before, _ := s.Probability(probe)
	tuple := []float64{1, 33}
	if err := s.Update(tuple, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(tuple, -1); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Probability(probe)
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("insert+delete should restore: before=%v after=%v", before, after)
	}
	if s.RowCount != 1000 {
		t.Fatalf("row count = %v, want 1000", s.RowCount)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	s := figure3SPN()
	if err := s.Update([]float64{1}, 1); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := s.Update([]float64{1, 2, 3}, -1); err == nil {
		t.Fatal("expected dimension error")
	}
}

// ---- MPE / classification ----

func TestMostProbableValue(t *testing.T) {
	s := figure3SPN()
	// Given age < 30, the most probable region: P(EU, young)=0.05,
	// P(ASIA, young) = 0.3*0.2*0.15 + 0.7*0.9*0.2 = 0.009+0.126 = 0.135.
	evidence := []ColQuery{{Col: 1, Ranges: []Range{{Lo: math.Inf(-1), Hi: 30, LoIncl: true, HiIncl: false}}}}
	v, err := s.MostProbableValue(0, []float64{0, 1}, evidence)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("MPE region for young = %v, want ASIA(1)", v)
	}
	// Given region = EU, the most probable age bucket is the old one:
	// P(EU, age>=55) = 0.3*0.8*0.85 + 0.7*0.1*0.8 = 0.26 versus
	// P(EU, age<30)  = 0.05 (Figure 3d).
	evidence = []ColQuery{{Col: 0, Ranges: []Range{PointRange(0)}}}
	v, err = s.MostProbableValue(1, []float64{25, 70}, evidence)
	if err != nil {
		t.Fatal(err)
	}
	if v != 70 {
		t.Fatalf("MPE age for EU = %v, want 70", v)
	}
}

func TestLeafValues(t *testing.T) {
	s := figure3SPN()
	vals := s.LeafValues(0)
	if len(vals) != 2 {
		t.Fatalf("leaf values = %v, want 2 distinct regions", vals)
	}
}

// ---- Serialization ----

// gobRoundTrip decodes s the way ensemble/persist decodes the models in a
// model file: gob, then Validate, then Refresh for the caches gob skips.
func gobRoundTrip(t *testing.T, s *SPN) *SPN {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var out SPN
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if err := out.Root.Validate(); err != nil {
		t.Fatal(err)
	}
	out.Refresh()
	return &out
}

func TestSerializationRoundTrip(t *testing.T) {
	data := clusteredData(1000, 31)
	s, err := Learn(data, []string{"c_region", "c_age"}, DefaultLearnConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2 := gobRoundTrip(t, s)
	probe := []ColQuery{
		{Col: 0, Ranges: []Range{PointRange(0)}},
		{Col: 1, Ranges: []Range{{Lo: 0, Hi: 50, LoIncl: true, HiIncl: true}}},
	}
	p1, _ := s.Probability(probe)
	p2, _ := s2.Probability(probe)
	if p1 != p2 {
		t.Fatalf("round trip changed inference: %v vs %v", p1, p2)
	}
	if s2.RowCount != s.RowCount || len(s2.Columns) != len(s.Columns) {
		t.Fatal("round trip lost metadata")
	}
	// Updates must still work after round trip (centroids preserved).
	if err := s2.Update([]float64{0, 25}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	s2 := gobRoundTrip(t, figure3SPN())
	if s2.RowCount != 1000 {
		t.Fatalf("row count = %v", s2.RowCount)
	}
}

// ---- Structural metrics ----

func TestNodeMetrics(t *testing.T) {
	s := figure3SPN()
	if n := s.Root.NumNodes(); n != 7 {
		t.Fatalf("NumNodes = %d, want 7", n)
	}
}

func TestValidateCatchesBrokenScopes(t *testing.T) {
	s := figure3SPN()
	s.Root.Children[0].Scope = []int{0} // break product scope
	if err := s.Root.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := figure3SPN()
	if _, err := s.Evaluate(Request{Cols: []ColQuery{{Col: 5}}}); err == nil {
		t.Fatal("expected out-of-range column error")
	}
	if _, err := s.Evaluate(Request{Cols: []ColQuery{{Col: 0}, {Col: 0}}}); err == nil {
		t.Fatal("expected duplicate column error")
	}
}
