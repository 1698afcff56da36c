// Package stats provides the numerical substrate for DeepDB: ranking and
// copula transforms, the Randomized Dependence Coefficient (RDC) with its
// canonical correlation analysis, KMeans clustering, and distribution
// helpers.
//
// Everything is hand-rolled on the standard library so the module stays
// dependency-free and offline-buildable.
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

// LearnRDCConfig is the RDC setup of every dependency test of learning,
// ensemble selection and SPN column splits alike: k = 10 sine projections
// per side with scale 1/6, the values SPFlow's MSPN learner uses.
func LearnRDCConfig(seed int64) RDCConfig {
	return RDCConfig{K: 10, Scale: 1.0 / 6.0, Seed: seed}
}

// RDCRole is the side of a pair a prepared column stands on. Both sides'
// random projections come from one stream seeded by RDCConfig.Seed: X takes
// its first K draws and Y the next K, so a column prepared for one role
// cannot stand in for the other. Roles combine as flags: a column prepared
// for RoleX|RoleY serves both sides from one copula transform.
type RDCRole int

// The two sides of an RDC pair.
const (
	RoleX RDCRole = 1 << iota
	RoleY
)

// PairRoles is the roles column i of k takes when every pair (i, j > i)
// is tested: x for every column but the last, y for every one but the
// first.
func PairRoles(i, k int) RDCRole {
	var roles RDCRole
	if i < k-1 {
		roles |= RoleX
	}
	if i > 0 {
		roles |= RoleY
	}
	return roles
}

// RDCColumn is one sample's half of an RDC, everything that does not
// depend on the other side: (1) the copula transform via empirical ranks,
// (2) for each role it was prepared for, the random sine projection,
// centered, and the inverse Cholesky factor of its ridge covariance.
// Prepare a column once with PrepareRDC and pair it with RDCPair as often
// as needed; the all-pairs loops of dependency testing then transform and
// factor each column once instead of once per pair.
type RDCColumn struct {
	n    int
	cop  []float64 // ECDF of the sample, for the Pearson fallback
	x, y *rdcSide  // the prepared roles; nil for a role not asked for
}

// rdcSide is a column's projection for one role.
type rdcSide struct {
	k int
	// feat is the centered projection, k x n row-major: row j is sine
	// feature j over the sample.
	feat []float64
	// rinv is R⁻¹ (k x k, lower triangular), where R Rᵀ is the ridge
	// covariance of feat; nil when the covariance is not positive
	// definite to working precision.
	rinv []float64
}

// ridge regularizes the covariance matrices of the projected sides.
const ridge = 1e-6

// PrepareRDC runs the per-column step of an RDC for the given roles.
func PrepareRDC(xs []float64, roles RDCRole, cfg RDCConfig) *RDCColumn {
	n := len(xs)
	if n < 4 {
		return &RDCColumn{n: n}
	}
	// A row's copula value (the empirical copula transform) is its tie
	// group's rank over n, so each group's sine features are computed once
	// for all its rows.
	group, levels := tieGroups(xs)
	for g := range levels {
		levels[g] /= float64(n)
	}
	cop := make([]float64, n)
	for i, g := range group {
		cop[i] = levels[g]
	}
	out := &RDCColumn{n: n, cop: cop}
	fx, fy := projections(cfg)
	if roles&RoleX != 0 {
		out.x = prepareSide(group, levels, fx)
	}
	if roles&RoleY != 0 {
		out.y = prepareSide(group, levels, fy)
	}
	return out
}

// prepareSide projects the copula values (levels[group[i]] for row i)
// through the sine features, centers each feature in place and factors
// the ridge covariance.
func prepareSide(group []int32, levels []float64, f sineFeatures) *rdcSide {
	n, k := len(group), len(f.w)
	feat := make([]float64, k*n)
	sines := make([]float64, len(levels))
	for j := 0; j < k; j++ {
		row := feat[j*n : (j+1)*n]
		w, b := f.w[j], f.b[j]
		for g, u := range levels {
			sines[g] = math.Sin(w*u + b)
		}
		mean := 0.0
		for i, g := range group {
			row[i] = sines[g]
			mean += row[i]
		}
		mean /= float64(n)
		for i := range row {
			row[i] -= mean
		}
	}
	inv := 1.0 / float64(n-1)
	cov := make([]float64, k*k)
	cells := make([]float64, k)
	for a := 0; a < k; a++ {
		dots(cells[:k-a], feat[a*n:(a+1)*n], feat[a*n:])
		for b := a; b < k; b++ {
			c := cells[b-a] * inv
			cov[a*k+b], cov[b*k+a] = c, c
		}
		cov[a*k+a] += ridge
	}
	return &rdcSide{k: k, feat: feat, rinv: choleskyInverse(cov, k)}
}

// dot sums a[i]*b[i] in index order, skipping the terms whose a[i] is 0.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		if v == 0 {
			continue
		}
		s += v * b[i]
	}
	return s
}

// dots sets out[c] to dot(a, rows[c*n:(c+1)*n]), n = len(a), for every c.
// It reads a once per four cells, each of the four sums still adding its
// terms in index order, so every cell equals dot's bit for bit.
func dots(out, a, rows []float64) {
	n := len(a)
	c := 0
	for ; c+4 <= len(out); c += 4 {
		b0 := rows[c*n:][:n]
		b1 := rows[(c+1)*n:][:n]
		b2 := rows[(c+2)*n:][:n]
		b3 := rows[(c+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for i, v := range a {
			if v == 0 {
				continue
			}
			s0 += v * b0[i]
			s1 += v * b1[i]
			s2 += v * b2[i]
			s3 += v * b3[i]
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < len(out); c++ {
		out[c] = dot(a, rows[c*n:][:n])
	}
}

// choleskyInverse factors the symmetric k x k matrix a as R Rᵀ with R
// lower triangular and returns R⁻¹, or nil when a pivot falls below 1e-12
// (a is not positive definite to working precision).
func choleskyInverse(a []float64, k int) []float64 {
	r := make([]float64, k*k)
	for j := 0; j < k; j++ {
		d := a[j*k+j]
		for p := 0; p < j; p++ {
			d -= r[j*k+p] * r[j*k+p]
		}
		if !(d >= 1e-12) {
			return nil
		}
		rjj := math.Sqrt(d)
		r[j*k+j] = rjj
		for i := j + 1; i < k; i++ {
			s := a[i*k+j]
			for p := 0; p < j; p++ {
				s -= r[i*k+p] * r[j*k+p]
			}
			r[i*k+j] = s / rjj
		}
	}
	// Column j of R⁻¹ solves R v = e_j by forward substitution.
	inv := make([]float64, k*k)
	for j := 0; j < k; j++ {
		inv[j*k+j] = 1 / r[j*k+j]
		for i := j + 1; i < k; i++ {
			s := 0.0
			for p := j; p < i; p++ {
				s -= r[i*k+p] * inv[p*k+j]
			}
			inv[i*k+j] = s / r[i*k+i]
		}
	}
	return inv
}

// RDCPair computes the Randomized Dependence Coefficient between two
// paired samples, x prepared for RoleX and y for RoleY. The result lies in
// [0, 1]: 0 means independent (up to sampling noise), 1 means a
// deterministic relation. It is (3) of the three steps: the largest
// canonical correlation between the two projected sets. With the
// covariances factored as Cxx = Rx Rxᵀ and Cyy = Ry Ryᵀ, its square is the
// largest eigenvalue of the symmetric W Wᵀ, W = Rx⁻¹ Cxy Ry⁻ᵀ, which
// shares its eigenvalues with the CCA matrix Cxx⁻¹ Cxy Cyy⁻¹ Cyx.
//
// Degenerate projections (covariances that are not positive definite)
// fall back to the absolute rank correlation, which is what RDC converges
// to in the k=1 linear case. Samples of different lengths, or of fewer
// than 4 rows, give 0.
func RDCPair(x, y *RDCColumn) float64 {
	if x.n < 4 || x.n != y.n {
		return 0
	}
	rho, ok := maxCanonicalCorrelation(x.x, y.y, x.n)
	if !ok {
		return math.Abs(Pearson(x.cop, y.cop))
	}
	return rho
}

// maxCanonicalCorrelation returns the largest canonical correlation
// between the column spaces of the two prepared projections over n rows,
// and false when a covariance is not positive definite.
func maxCanonicalCorrelation(x, y *rdcSide, n int) (float64, bool) {
	if x.rinv == nil || y.rinv == nil {
		return 0, false
	}
	kx, ky := x.k, y.k
	cxy := crossCovariance(x, y, n)
	// t = Rx⁻¹ Cxy, then w = t Ry⁻ᵀ; both factors are lower triangular.
	t := make([]float64, kx*ky)
	for i := 0; i < kx; i++ {
		for j := 0; j < ky; j++ {
			s := 0.0
			for p := 0; p <= i; p++ {
				s += x.rinv[i*kx+p] * cxy[p*ky+j]
			}
			t[i*ky+j] = s
		}
	}
	w := make([]float64, kx*ky)
	for i := 0; i < kx; i++ {
		for j := 0; j < ky; j++ {
			s := 0.0
			for q := 0; q <= j; q++ {
				s += t[i*ky+q] * y.rinv[j*ky+q]
			}
			w[i*ky+j] = s
		}
	}
	m := make([]float64, kx*kx)
	for i := 0; i < kx; i++ {
		for l := i; l < kx; l++ {
			s := dot(w[i*ky:(i+1)*ky], w[l*ky:(l+1)*ky])
			m[i*kx+l], m[l*kx+i] = s, s
		}
	}
	maxEig := maxEigenvalue(m, kx)
	if maxEig > 1 {
		maxEig = 1 // clamp numerical overshoot
	}
	if maxEig < 0 {
		maxEig = 0
	}
	return math.Sqrt(maxEig), true
}

// crossCovariance returns Cxy (x.k x y.k, row-major), the covariance
// between the two prepared projections over n rows.
func crossCovariance(x, y *rdcSide, n int) []float64 {
	kx, ky := x.k, y.k
	inv := 1.0 / float64(n-1)
	cxy := make([]float64, kx*ky)
	for i := 0; i < kx; i++ {
		cells := cxy[i*ky : (i+1)*ky]
		dots(cells, x.feat[i*n:(i+1)*n], y.feat)
		for j := range cells {
			cells[j] *= inv
		}
	}
	return cxy
}

// maxEigenvalue returns the largest eigenvalue of the symmetric k x k
// matrix a, which it overwrites. Cyclic Jacobi rotations annihilate each
// off-diagonal element in turn; an element negligible beside both
// diagonal elements it couples is set to zero, and the sweeps stop once
// no off-diagonal element is left (they converge quadratically, so a
// handful suffice; the cap only guards against a pathological input).
func maxEigenvalue(a []float64, k int) float64 {
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				apq := a[p*k+q]
				if apq == 0 {
					continue
				}
				app, aqq := a[p*k+p], a[q*k+q]
				g := 100 * math.Abs(apq)
				if math.Abs(app)+g == math.Abs(app) && math.Abs(aqq)+g == math.Abs(aqq) {
					a[p*k+q], a[q*k+p] = 0, 0
					continue
				}
				rotated = true
				// The rotation angle's tangent, the smaller root of
				// t² + 2θt - 1 = 0.
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				a[p*k+p] = app - t*apq
				a[q*k+q] = aqq + t*apq
				a[p*k+q], a[q*k+p] = 0, 0
				for r := 0; r < k; r++ {
					if r == p || r == q {
						continue
					}
					arp, arq := a[r*k+p], a[r*k+q]
					a[r*k+p] = c*arp - s*arq
					a[r*k+q] = s*arp + c*arq
					a[p*k+r], a[q*k+r] = a[r*k+p], a[r*k+q]
				}
			}
		}
		if !rotated {
			break
		}
	}
	maxEig := math.Inf(-1)
	for i := 0; i < k; i++ {
		maxEig = math.Max(maxEig, a[i*k+i])
	}
	return maxEig
}

// sineFeatures are the weights of k random sine features sin(w*u + b).
type sineFeatures struct{ w, b []float64 }

// projections draws both roles' sine features: w ~ N(0, scale) and a bias
// drawn uniformly, X from the first K draws of the seeded stream and Y
// from the next K.
func projections(cfg RDCConfig) (x, y sineFeatures) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := func() sineFeatures {
		f := sineFeatures{w: make([]float64, cfg.K), b: make([]float64, cfg.K)}
		for j := 0; j < cfg.K; j++ {
			f.w[j] = rng.NormFloat64() * cfg.Scale * 2 * math.Pi
			f.b[j] = rng.Float64() * 2 * math.Pi
		}
		return f
	}
	x = draw()
	return x, draw()
}
