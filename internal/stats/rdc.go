package stats

import (
	"math"
	"math/rand"
)

// RDCConfig controls the Randomized Dependence Coefficient computation
// (Lopez-Paz et al., NIPS 2013), the correlation measure used by the MSPN
// learning algorithm and by DeepDB's ensemble construction.
type RDCConfig struct {
	// K is the number of random nonlinear projections per side.
	K int
	// Scale multiplies the Gaussian projection weights (s in the paper).
	Scale float64
	// Seed makes the projection deterministic.
	Seed int64
}

// DefaultRDCConfig mirrors the defaults used by SPFlow's MSPN learner:
// k = 20 projections with scale 1/6.
func DefaultRDCConfig() RDCConfig {
	return RDCConfig{K: 20, Scale: 1.0 / 6.0, Seed: 1}
}

// RDCRole is the side of a pair a prepared column stands on. Both sides'
// random projections come from one stream seeded by RDCConfig.Seed: X takes
// its first K draws and Y the next K, so a column prepared for one role
// cannot stand in for the other.
type RDCRole int

// The two sides of an RDC pair.
const (
	RoleX RDCRole = iota
	RoleY
)

// RDCColumn is one sample's half of an RDC, everything that does not
// depend on the other side: (1) the copula transform via empirical ranks,
// (2) the random sine projection, centered, and the inverse of its ridge
// covariance. Prepare a column once with PrepareRDC and pair it with
// RDCPair as often as needed; the all-pairs loops of dependency testing
// then transform and invert each column once instead of once per pair.
type RDCColumn struct {
	n   int
	cop []float64 // ECDF of the sample, for the Pearson fallback
	// feat is the centered projection, n x K for RoleY and transposed
	// (K x n) for RoleX, the orientation the cross-covariance reads.
	feat *Matrix
	// inv is the inverse of the ridge covariance; nil when it is singular.
	inv *Matrix
}

// ridge regularizes the covariance matrices of the projected sides.
const ridge = 1e-6

// PrepareRDC runs the per-column step of an RDC for the given role.
func PrepareRDC(xs []float64, role RDCRole, cfg RDCConfig) *RDCColumn {
	n := len(xs)
	if n < 4 {
		return &RDCColumn{n: n}
	}
	if cfg.K <= 0 {
		cfg = DefaultRDCConfig()
	}
	cop := ECDF(xs)
	c := centered(sineProject(cop, projection(cfg, role)))
	ct := c.Transpose()
	cov := scale(ct.Mul(c), 1.0/float64(n-1))
	cov.AddDiagonal(ridge)
	out := &RDCColumn{n: n, cop: cop, feat: c}
	if role == RoleX {
		out.feat = ct
	}
	if inv, err := cov.Inverse(); err == nil {
		out.inv = inv
	}
	return out
}

// RDCPair computes the Randomized Dependence Coefficient between two
// paired samples prepared as x (RoleX) and y (RoleY). The result lies in
// [0, 1]: 0 means independent (up to sampling noise), 1 means a
// deterministic relation. It is (3) of the three steps: the largest
// canonical correlation between the two projected sets, from the CCA
// eigenproblem
//
//	Cxx^-1 Cxy Cyy^-1 Cyx v = rho^2 v
//
// Degenerate projections (constant columns) fall back to the absolute rank
// correlation, which is what RDC converges to in the k=1 linear case.
// Samples of different lengths, or of fewer than 4 rows, give 0.
func RDCPair(x, y *RDCColumn) float64 {
	if x.n < 4 || x.n != y.n {
		return 0
	}
	rho, ok := maxCanonicalCorrelation(x, y)
	if !ok {
		return math.Abs(Pearson(x.cop, y.cop))
	}
	return rho
}

// maxCanonicalCorrelation returns the largest canonical correlation
// between the column spaces of the two prepared projections, and false
// when a covariance is singular or the eigenproblem does not converge.
func maxCanonicalCorrelation(x, y *RDCColumn) (float64, bool) {
	if x.inv == nil || y.inv == nil {
		return 0, false
	}
	cxy := scale(x.feat.Mul(y.feat), 1.0/float64(x.n-1))
	cyx := cxy.Transpose()
	m := x.inv.Mul(cxy).Mul(y.inv).Mul(cyx)
	eig, err := EigenvaluesGeneral(m)
	if err != nil {
		return 0, false
	}
	maxEig := 0.0
	for _, e := range eig {
		if e > maxEig {
			maxEig = e
		}
	}
	if maxEig > 1 {
		maxEig = 1 // clamp numerical overshoot
	}
	return math.Sqrt(maxEig), true
}

// sineFeatures are the weights of k random sine features sin(w*u + b).
type sineFeatures struct{ w, b []float64 }

// projection draws the sine features of one role: w ~ N(0, scale) and a
// bias drawn uniformly, X from the first K draws of the seeded stream and
// Y from the next K.
func projection(cfg RDCConfig, role RDCRole) sineFeatures {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var f sineFeatures
	for r := RoleX; r <= role; r++ {
		f = sineFeatures{w: make([]float64, cfg.K), b: make([]float64, cfg.K)}
		for j := 0; j < cfg.K; j++ {
			f.w[j] = rng.NormFloat64() * cfg.Scale * 2 * math.Pi
			f.b[j] = rng.Float64() * 2 * math.Pi
		}
	}
	return f
}

// sineProject maps the 1-D copula values through the sine features.
// Returns an n x k matrix.
func sineProject(u []float64, f sineFeatures) *Matrix {
	n, k := len(u), len(f.w)
	out := NewMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			out.Set(i, j, math.Sin(f.w[j]*u[i]+f.b[j]))
		}
	}
	return out
}

func centered(m *Matrix) *Matrix {
	out := m.Clone()
	for j := 0; j < m.Cols; j++ {
		mean := 0.0
		for i := 0; i < m.Rows; i++ {
			mean += m.At(i, j)
		}
		mean /= float64(m.Rows)
		for i := 0; i < m.Rows; i++ {
			out.Set(i, j, m.At(i, j)-mean)
		}
	}
	return out
}

func scale(m *Matrix, f float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= f
	}
	return m
}
