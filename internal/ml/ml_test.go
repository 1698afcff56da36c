package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/table"
)

// linearData generates y = 3*x0 - 2*x1 + noise.
func linearData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10
		xs[i] = []float64{x0, x1}
		ys[i] = 3*x0 - 2*x1 + rng.NormFloat64()*0.1
	}
	return xs, ys
}

// stepData generates a piecewise-constant target, ideal for trees.
func stepData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := rng.Float64() * 10
		xs[i] = []float64{x}
		switch {
		case x < 3:
			ys[i] = 10
		case x < 7:
			ys[i] = 20
		default:
			ys[i] = 5
		}
	}
	return xs, ys
}

func TestTreeFitsStepFunction(t *testing.T) {
	xs, ys := stepData(2000, 1)
	tree, err := FitTree(xs, ys, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{{1, 10}, {5, 20}, {9, 5}}
	for _, c := range cases {
		if got := tree.Predict([]float64{c.x}); math.Abs(got-c.want) > 1 {
			t.Errorf("Predict(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestTreeRMSEBeatsMeanPredictor(t *testing.T) {
	xs, ys := linearData(2000, 2)
	tree, err := FitTree(xs, ys, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := linearData(500, 3)
	preds := make([]float64, len(testX))
	for i, x := range testX {
		preds[i] = tree.Predict(x)
	}
	rmse := RMSE(preds, testY)
	// Mean predictor RMSE is the target's std dev (~10.4 for this data).
	if rmse > 5 {
		t.Fatalf("tree RMSE %v too high", rmse)
	}
}

func TestTreeHandlesNaNFeatures(t *testing.T) {
	xs, ys := stepData(500, 4)
	xs[0][0] = math.NaN()
	tree, err := FitTree(xs, ys, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := tree.Predict([]float64{math.NaN()}); math.IsNaN(v) {
		t.Fatal("prediction on NaN feature should not be NaN")
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, DefaultTreeConfig()); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1, 2}, DefaultTreeConfig()); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestMLPFitsLinear(t *testing.T) {
	xs, ys := linearData(2000, 5)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 40
	mlp, err := FitMLP(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := linearData(500, 6)
	preds := make([]float64, len(testX))
	for i, x := range testX {
		preds[i] = mlp.Predict(x)
	}
	rmse := RMSE(preds, testY)
	if rmse > 2 {
		t.Fatalf("MLP RMSE %v too high for a linear target", rmse)
	}
}

func TestMLPDeterministic(t *testing.T) {
	xs, ys := linearData(300, 7)
	cfg := DefaultMLPConfig()
	cfg.Epochs = 5
	a, err := FitMLP(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitMLP(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{5, 5}
	if a.Predict(x) != b.Predict(x) {
		t.Fatal("same seed must give identical models")
	}
}

func TestMLPHandlesNaN(t *testing.T) {
	xs, ys := linearData(300, 8)
	xs[10][1] = math.NaN()
	cfg := DefaultMLPConfig()
	cfg.Epochs = 3
	mlp, err := FitMLP(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := mlp.Predict([]float64{math.NaN(), 1}); math.IsNaN(v) {
		t.Fatal("NaN leak through mean imputation")
	}
}

func TestRMSE(t *testing.T) {
	if v := RMSE([]float64{1, 2}, []float64{1, 2}); v != 0 {
		t.Fatalf("RMSE identical = %v", v)
	}
	if v := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(v-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", v)
	}
	if !math.IsNaN(RMSE(nil, nil)) {
		t.Fatal("empty RMSE should be NaN")
	}
}

// rspnFixture learns an RSPN over data where y depends on categorical c.
func rspnFixture(t *testing.T) *rspn.RSPN {
	t.Helper()
	meta := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "c", Kind: schema.IntKind},
		{Name: "y", Kind: schema.FloatKind},
	}}
	tb := table.New(meta)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		c := float64(rng.Intn(3))
		y := c*100 + rng.NormFloat64()*5
		tb.AppendRow(table.Float(c), table.Float(y))
	}
	opts := rspn.DefaultLearnOptions()
	opts.SPN.MinInstanceFrac = 0.05
	r, err := rspn.Learn(context.Background(), tb, []string{"t"}, nil, []string{"c", "y"}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRSPNRegressor(t *testing.T) {
	r := rspnFixture(t)
	reg, err := NewRSPNRegressor(r, "y", []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0.0; c < 3; c++ {
		got, err := reg.Predict([]float64{c})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c*100) > 15 {
			t.Errorf("E(y | c=%v) = %v, want ~%v", c, got, c*100)
		}
	}
	// Unconstrained (NaN feature): prediction near the global mean 100.
	got, err := reg.Predict([]float64{math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100) > 20 {
		t.Errorf("unconditional prediction = %v, want ~100", got)
	}
}

func TestRSPNRegressorZeroProbabilityEvidence(t *testing.T) {
	r := rspnFixture(t)
	reg, err := NewRSPNRegressor(r, "y", []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	// c = 99 never occurs: fall back to the unconditional mean, not 0.
	got, err := reg.Predict([]float64{99})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100) > 25 {
		t.Errorf("zero-evidence prediction = %v, want ~100", got)
	}
}

func TestRSPNClassifier(t *testing.T) {
	r := rspnFixture(t)
	clf, err := NewRSPNClassifier(r, "c", []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ y, want float64 }{{0, 0}, {100, 1}, {200, 2}}
	for _, cse := range cases {
		got, err := clf.Predict([]float64{cse.y})
		if err != nil {
			t.Fatal(err)
		}
		if got != cse.want {
			t.Errorf("classify(y=%v) = %v, want %v", cse.y, got, cse.want)
		}
	}
	// Accuracy over a labelled sample should be high.
	var feats [][]float64
	var labels []float64
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		c := float64(rng.Intn(3))
		feats = append(feats, []float64{c*100 + rng.NormFloat64()*5})
		labels = append(labels, c)
	}
	acc, err := clf.Accuracy(feats, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy %v too low", acc)
	}
}

func TestRSPNRegressorErrors(t *testing.T) {
	r := rspnFixture(t)
	if _, err := NewRSPNRegressor(r, "nope", []string{"c"}); err == nil {
		t.Fatal("expected unknown target error")
	}
	if _, err := NewRSPNRegressor(r, "y", []string{"nope"}); err == nil {
		t.Fatal("expected unknown feature error")
	}
	reg, err := NewRSPNRegressor(r, "y", []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Predict([]float64{1, 2}); err == nil {
		t.Fatal("expected feature-count error")
	}
}

// Accuracy computes classification accuracy over a labelled set.
func (c *RSPNClassifier) Accuracy(features [][]float64, labels []float64) (float64, error) {
	if len(features) == 0 {
		return 0, fmt.Errorf("ml: empty evaluation set")
	}
	hits := 0
	for i, x := range features {
		p, err := c.Predict(x)
		if err != nil {
			return 0, err
		}
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(features)), nil
}
