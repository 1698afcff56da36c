package ml

import (
	"fmt"
	"math"

	"repro/internal/rspn"
	"repro/internal/spn"
)

// RSPNRegressor answers regression tasks directly from an RSPN (Section
// 4.3): the prediction for a target column given feature values is the
// conditional expectation E(target | features). No additional training
// happens — the "model" is the ensemble member itself.
type RSPNRegressor struct {
	R        *rspn.RSPN
	Target   string
	Features []string
	// Tolerance widens point evidence on continuous features to a
	// relative fraction of the feature's domain, so binned leaves retain
	// probability mass around the conditioning value. 0 picks 2%.
	Tolerance float64

	targetIdx  int
	featureIdx []int
	domainLo   []float64
	domainHi   []float64
}

// NewRSPNRegressor prepares a regressor for the target column using the
// given feature columns, all of which must be learned by the RSPN.
func NewRSPNRegressor(r *rspn.RSPN, target string, features []string) (*RSPNRegressor, error) {
	reg := &RSPNRegressor{R: r, Target: target, Features: features, Tolerance: 0.02}
	reg.targetIdx = r.Model.ColumnIndex(target)
	if reg.targetIdx < 0 {
		return nil, fmt.Errorf("ml: target column %s not in model", target)
	}
	for _, f := range features {
		idx := r.Model.ColumnIndex(f)
		if idx < 0 {
			return nil, fmt.Errorf("ml: feature column %s not in model", f)
		}
		reg.featureIdx = append(reg.featureIdx, idx)
		vals := r.Model.LeafValues(idx)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if math.IsInf(lo, 1) {
			lo, hi = 0, 1
		}
		reg.domainLo = append(reg.domainLo, lo)
		reg.domainHi = append(reg.domainHi, hi)
	}
	return reg, nil
}

// evidence builds the conditioning ranges for one feature vector; NaN
// features are left unconstrained.
func (reg *RSPNRegressor) evidence(x []float64) []spn.ColQuery {
	tol := reg.Tolerance
	if tol <= 0 {
		tol = 0.02
	}
	var out []spn.ColQuery
	for i, idx := range reg.featureIdx {
		v := x[i]
		if math.IsNaN(v) {
			continue
		}
		w := (reg.domainHi[i] - reg.domainLo[i]) * tol / 2
		out = append(out, spn.ColQuery{Col: idx, Fn: spn.FnOne,
			Ranges: []spn.Range{{Lo: v - w, Hi: v + w, LoIncl: true, HiIncl: true}}})
	}
	return out
}

// Predict returns E(target | features ~= x). When the evidence has zero
// probability under the model the unconditional mean is returned.
func (reg *RSPNRegressor) Predict(x []float64) (float64, error) {
	if len(x) != len(reg.featureIdx) {
		return 0, fmt.Errorf("ml: got %d features, want %d", len(x), len(reg.featureIdx))
	}
	ev := reg.evidence(x)
	num, err := reg.R.Model.Evaluate(spn.Request{Cols: append(append([]spn.ColQuery(nil), ev...),
		spn.ColQuery{Col: reg.targetIdx, Fn: spn.FnIdent})})
	if err != nil {
		return 0, err
	}
	den, err := reg.R.Model.Evaluate(spn.Request{Cols: append(append([]spn.ColQuery(nil), ev...),
		spn.ColQuery{Col: reg.targetIdx, Fn: spn.FnOne, ExcludeNull: true})})
	if err != nil {
		return 0, err
	}
	if den <= 0 {
		// Zero-probability evidence: fall back to the unconditional mean.
		num, err = reg.R.Model.Evaluate(spn.Request{Cols: []spn.ColQuery{{Col: reg.targetIdx, Fn: spn.FnIdent}}})
		if err != nil {
			return 0, err
		}
		den, err = reg.R.Model.Evaluate(spn.Request{Cols: []spn.ColQuery{{Col: reg.targetIdx, Fn: spn.FnOne, ExcludeNull: true}}})
		if err != nil {
			return 0, err
		}
		if den <= 0 {
			return 0, nil
		}
	}
	return num / den, nil
}

// RSPNClassifier answers classification tasks via most-probable-explanation
// over the target column (Section 4.3).
type RSPNClassifier struct {
	reg        *RSPNRegressor
	candidates []float64
}

// NewRSPNClassifier prepares a classifier; candidate classes are taken from
// the model's leaves.
func NewRSPNClassifier(r *rspn.RSPN, target string, features []string) (*RSPNClassifier, error) {
	reg, err := NewRSPNRegressor(r, target, features)
	if err != nil {
		return nil, err
	}
	cands := r.Model.LeafValues(reg.targetIdx)
	if len(cands) == 0 {
		return nil, fmt.Errorf("ml: target column %s has no values", target)
	}
	return &RSPNClassifier{reg: reg, candidates: cands}, nil
}

// Predict returns the most probable class for the feature vector.
func (c *RSPNClassifier) Predict(x []float64) (float64, error) {
	if len(x) != len(c.reg.featureIdx) {
		return 0, fmt.Errorf("ml: got %d features, want %d", len(x), len(c.reg.featureIdx))
	}
	return c.reg.R.Model.MostProbableValue(c.reg.targetIdx, c.candidates, c.reg.evidence(x))
}
