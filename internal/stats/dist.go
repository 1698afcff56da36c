package stats

import "math"

// NormalCDF returns P(Z <= x) for a standard normal variable Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the x with NormalCDF(x) == p using the
// Beasley-Springer-Moro / Acklam rational approximation, accurate to about
// 1e-9 over (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions (Acklam 2003).
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// ConfidenceZ returns the two-sided z value for the given confidence level,
// e.g. ConfidenceZ(0.95) ~= 1.96.
func ConfidenceZ(level float64) float64 {
	if level <= 0 || level >= 1 {
		return 1.959963984540054
	}
	return NormalQuantile(0.5 + level/2)
}

// ProductVariance returns the variance of the product of two independent
// random variables with the given means and variances:
//
//	V(XY) = V(X)V(Y) + V(X)E(Y)^2 + V(Y)E(X)^2
//
// This is the recursion used in Section 5.1 of the paper to propagate
// uncertainty through probabilistic query compilations.
func ProductVariance(meanX, varX, meanY, varY float64) float64 {
	return varX*varY + varX*meanY*meanY + varY*meanX*meanX
}

// BinomialVariance returns the variance of a proportion estimate p computed
// from n samples: p(1-p)/n. It guards against p outside [0, 1].
func BinomialVariance(p float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p * (1 - p) / float64(n)
}

// Welford accumulates running mean and variance in a single pass. It backs
// the exact executor's AVG/VAR aggregates and the sample-based confidence
// interval ground truth.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 when fewer than 2 points).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}
