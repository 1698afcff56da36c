package stats

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// rdc is the one-shot RDC of a pair, both columns prepared on the spot.
func rdc(xs, ys []float64, cfg RDCConfig) float64 {
	return RDCPair(PrepareRDC(xs, RoleX, cfg), PrepareRDC(ys, RoleY, cfg))
}

// DefaultRDCConfig is the tests' wider setup than the learners': k = 20
// projections per side with scale 1/6.
func DefaultRDCConfig() RDCConfig {
	return RDCConfig{K: 20, Scale: 1.0 / 6.0, Seed: 1}
}

// rdcRef is the one-step RDC that PrepareRDC and RDCPair split in two,
// kept as the reference they must match bit for bit: both sides transformed
// and projected together, the covariances from full matrix products, and
// the same symmetric solver.
func rdcRef(xs, ys []float64, cfg RDCConfig) float64 {
	n := len(xs)
	if n < 4 || n != len(ys) {
		return 0
	}
	cx := ECDF(xs)
	cy := ECDF(ys)
	rng := rand.New(rand.NewSource(cfg.Seed))
	px := sineProjectRef(cx, cfg.K, cfg.Scale, rng)
	py := sineProjectRef(cy, cfg.K, cfg.Scale, rng)
	x, y := centered(px), centered(py)
	inv := 1.0 / float64(n-1)
	cxx := scale(x.Transpose().Mul(x), inv)
	cyy := scale(y.Transpose().Mul(y), inv)
	cxy := scale(x.Transpose().Mul(y), inv)
	cxx.AddDiagonal(ridge)
	cyy.AddDiagonal(ridge)
	rx, ry := choleskyInverse(cxx.Data, cfg.K), choleskyInverse(cyy.Data, cfg.K)
	if rx == nil || ry == nil {
		return math.Abs(Pearson(cx, cy))
	}
	w := (&Matrix{cfg.K, cfg.K, rx}).Mul(cxy).Mul((&Matrix{cfg.K, cfg.K, ry}).Transpose())
	m := w.Mul(w.Transpose())
	maxEig := maxEigenvalue(m.Data, cfg.K)
	if maxEig > 1 {
		maxEig = 1
	}
	if maxEig < 0 {
		maxEig = 0
	}
	return math.Sqrt(maxEig)
}

// rdcOld is the one-step RDC as it was computed before the symmetric
// solver: the Gauss-Jordan inverses of both covariances and the general
// eigen-solver on the non-symmetric CCA matrix.
func rdcOld(xs, ys []float64, cfg RDCConfig) float64 {
	n := len(xs)
	if n < 4 || n != len(ys) {
		return 0
	}
	cx := ECDF(xs)
	cy := ECDF(ys)
	rng := rand.New(rand.NewSource(cfg.Seed))
	px := sineProjectRef(cx, cfg.K, cfg.Scale, rng)
	py := sineProjectRef(cy, cfg.K, cfg.Scale, rng)
	rho, err := maxCanonicalCorrelationRef(px, py)
	if err != nil {
		return math.Abs(Pearson(cx, cy))
	}
	return rho
}

func sineProjectRef(u []float64, k int, scale float64, rng *rand.Rand) *Matrix {
	n := len(u)
	w := make([]float64, k)
	b := make([]float64, k)
	for j := 0; j < k; j++ {
		w[j] = rng.NormFloat64() * scale * 2 * math.Pi
		b[j] = rng.Float64() * 2 * math.Pi
	}
	out := NewMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			out.Set(i, j, math.Sin(w[j]*u[i]+b[j]))
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

// maxCanonicalCorrelationRef is the old solver's step (3): the largest
// canonical correlation of two projections from the eigenvalues of
// Cxx⁻¹ Cxy Cyy⁻¹ Cyx.
func maxCanonicalCorrelationRef(x, y *Matrix) (float64, error) {
	n := x.Rows
	cx := centered(x)
	cy := centered(y)
	inv := 1.0 / float64(n-1)
	cxx := scale(cx.Transpose().Mul(cx), inv)
	cyy := scale(cy.Transpose().Mul(cy), inv)
	cxy := scale(cx.Transpose().Mul(cy), inv)
	cyx := cxy.Transpose()
	cxx.AddDiagonal(ridge)
	cyy.AddDiagonal(ridge)
	ixx, err := cxx.Inverse()
	if err != nil {
		return 0, err
	}
	iyy, err := cyy.Inverse()
	if err != nil {
		return 0, err
	}
	m := ixx.Mul(cxy).Mul(iyy).Mul(cyx)
	eig, err := EigenvaluesGeneral(m)
	if err != nil {
		return 0, err
	}
	maxEig := 0.0
	for _, e := range eig {
		if e > maxEig {
			maxEig = e
		}
	}
	if maxEig > 1 {
		maxEig = 1
	}
	return math.Sqrt(maxEig), nil
}

// rdcCases returns the columns the RDC tests pair up at one sample size:
// Gaussian noise, small integers, a constant, uniform values with the
// learner's NULL sentinel, and a near-linear function of the noise.
func rdcCases(n int, rng *rand.Rand) [][]float64 {
	col := func(gen func() float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gen()
		}
		return out
	}
	noise := col(rng.NormFloat64)
	cols := [][]float64{
		noise,
		col(func() float64 { return float64(rng.Intn(7)) }),
		col(func() float64 { return 4 }),
		col(func() float64 {
			if rng.Intn(5) == 0 {
				return math.Inf(-1) // the learner's NULL sentinel
			}
			return rng.Float64()
		}),
	}
	lin := make([]float64, n)
	for i, v := range noise {
		lin[i] = 2*v + 0.01*rng.NormFloat64()
	}
	return append(cols, lin)
}

// rdcConfigs are the two setups the RDC tests run: the learners' and a
// small, wide one.
var rdcConfigs = []RDCConfig{LearnRDCConfig(7), {K: 4, Scale: 0.5, Seed: 3}}

// TestPreparedRDCMatchesReference: the two-step RDC equals the one-step
// reference with the same solver bit for bit, including every fallback;
// one prepared column gives the same answer in every pair it joins; and a
// column prepared for both roles at once equals one prepared per role.
func TestPreparedRDCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 4, 5, 40, 200} {
		cols := rdcCases(n, rng)
		for _, cfg := range rdcConfigs {
			xs := make([]*RDCColumn, len(cols))
			ys := make([]*RDCColumn, len(cols))
			both := make([]*RDCColumn, len(cols))
			for i, c := range cols {
				xs[i], ys[i] = PrepareRDC(c, RoleX, cfg), PrepareRDC(c, RoleY, cfg)
				both[i] = PrepareRDC(c, RoleX|RoleY, cfg)
			}
			// Each column with itself and with the next: every prepared
			// column serves two pairs on each side.
			for i := range cols {
				for _, j := range []int{i, (i + 1) % len(cols)} {
					got, want := RDCPair(xs[i], ys[j]), rdcRef(cols[i], cols[j], cfg)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d cfg=%+v pair (%d,%d): prepared %v, reference %v", n, cfg, i, j, got, want)
					}
					if b := RDCPair(both[i], both[j]); math.Float64bits(b) != math.Float64bits(want) {
						t.Fatalf("n=%d cfg=%+v pair (%d,%d): prepared for both roles %v, reference %v", n, cfg, i, j, b, want)
					}
				}
			}
		}
	}
	// Different lengths give 0, as the reference does.
	if got := rdc(rdcCases(10, rng)[0], rdcCases(11, rng)[0], DefaultRDCConfig()); got != 0 {
		t.Fatalf("RDC of samples of different lengths = %v, want 0", got)
	}
}

// rdcTolerance is how far RDCPair may be from the 256-bit reference.
const rdcTolerance = 1e-11

// rdcAccuracyCase is one pair of the accuracy tests with its 256-bit RDC.
type rdcAccuracyCase struct {
	what   string
	xs, ys []float64
	cfg    RDCConfig
	want   float64
}

// rdcAccuracyCases are the pairs of the accuracy tests, each case column
// with itself and with the next at n = 5, 40, 200 and 1500 under both
// configurations, with their references computed once for both tests.
var rdcAccuracyCases = sync.OnceValue(func() []rdcAccuracyCase {
	var out []rdcAccuracyCase
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 40, 200, 1500} {
		cols := rdcCases(n, rng)
		for _, cfg := range rdcConfigs {
			for i := range cols {
				for _, j := range []int{i, (i + 1) % len(cols)} {
					out = append(out, rdcAccuracyCase{
						what: fmt.Sprintf("n=%d K=%d pair (%d,%d)", n, cfg.K, i, j),
						xs:   cols[i], ys: cols[j], cfg: cfg,
						want: rdcBig(cols[i], cols[j], cfg),
					})
				}
			}
		}
	}
	return out
})

// TestRDCMatchesHighPrecision: RDCPair is within rdcTolerance of the
// same coefficient computed in 256-bit arithmetic from the same sine
// features, on every accuracy case.
func TestRDCMatchesHighPrecision(t *testing.T) {
	worst := 0.0
	for _, c := range rdcAccuracyCases() {
		got := rdc(c.xs, c.ys, c.cfg)
		d := math.Abs(got - c.want)
		worst = math.Max(worst, d)
		if !(d <= rdcTolerance) {
			t.Errorf("%s: RDC %v, 256-bit reference %v (off by %.3g)", c.what, got, c.want, d)
		}
	}
	t.Logf("worst |RDC - reference| = %.3g", worst)
}

// TestOldRDCSolverMissesHighPrecision is the must-fail twin of the
// accuracy test: the general eigen-solver the RDC used before misses the
// tolerance on some case, so the test can tell the two solvers apart.
func TestOldRDCSolverMissesHighPrecision(t *testing.T) {
	worst, at := 0.0, ""
	for _, c := range rdcAccuracyCases() {
		if d := math.Abs(rdcOld(c.xs, c.ys, c.cfg) - c.want); d > worst {
			worst, at = d, c.what
		}
	}
	if worst <= rdcTolerance {
		t.Fatalf("the old solver is within %.3g of the reference everywhere: the accuracy test cannot tell it apart", worst)
	}
	t.Logf("old solver: worst |RDC - reference| = %.3g at %s", worst, at)
}

// rdcBig is the RDC of a pair computed in 256-bit arithmetic from the
// float64 copula values and sine features PrepareRDC starts from:
// centering, covariances, Cholesky factors, W Wᵀ and its Jacobi
// eigenvalues all in math/big, the sweeps run until the off-diagonal part
// is below 1e-60.
func rdcBig(xs, ys []float64, cfg RDCConfig) float64 {
	n := len(xs)
	fx, fy := projections(cfg)
	x, y := bigFeatures(ECDF(xs), fx), bigFeatures(ECDF(ys), fy)
	k := cfg.K
	denom := bigOf(float64(n - 1))
	cov := func(a, b [][]*big.Float) [][]*big.Float {
		out := bigMatrix(k, k)
		for i := range a {
			for j := range b {
				s := bigOf(0)
				for r := 0; r < n; r++ {
					s.Add(s, bigMul(a[i][r], b[j][r]))
				}
				out[i][j] = s.Quo(s, denom)
			}
		}
		return out
	}
	cxx, cyy, cxy := cov(x, x), cov(y, y), cov(x, y)
	for i := 0; i < k; i++ {
		cxx[i][i].Add(cxx[i][i], bigOf(ridge))
		cyy[i][i].Add(cyy[i][i], bigOf(ridge))
	}
	rx, ry := bigCholeskyInverse(cxx), bigCholeskyInverse(cyy)
	// w = Rx⁻¹ Cxy Ry⁻ᵀ, m = w wᵀ.
	prod := func(a, b [][]*big.Float, bT bool) [][]*big.Float {
		out := bigMatrix(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				s := bigOf(0)
				for p := 0; p < k; p++ {
					bv := b[p][j]
					if bT {
						bv = b[j][p]
					}
					s.Add(s, bigMul(a[i][p], bv))
				}
				out[i][j] = s
			}
		}
		return out
	}
	w := prod(prod(rx, cxy, false), ry, true)
	m := prod(w, w, true)
	eig := bigJacobiMax(m)
	if eig.Cmp(bigOf(1)) > 0 {
		eig = bigOf(1)
	}
	if eig.Sign() < 0 {
		eig = bigOf(0)
	}
	f, _ := new(big.Float).SetPrec(bigPrec).Sqrt(eig).Float64()
	return f
}

const bigPrec = 256

func bigOf(v float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(v) }

func bigMul(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(bigPrec).Mul(a, b) }

func bigMatrix(r, c int) [][]*big.Float {
	out := make([][]*big.Float, r)
	for i := range out {
		out[i] = make([]*big.Float, c)
		for j := range out[i] {
			out[i][j] = bigOf(0)
		}
	}
	return out
}

// bigFeatures returns the sine features of the copula values (computed in
// float64, as PrepareRDC does), centered in 256 bits; k rows of n.
func bigFeatures(cop []float64, f sineFeatures) [][]*big.Float {
	out := make([][]*big.Float, len(f.w))
	for j := range out {
		row := make([]*big.Float, len(cop))
		mean := bigOf(0)
		for i, u := range cop {
			row[i] = bigOf(math.Sin(f.w[j]*u + f.b[j]))
			mean.Add(mean, row[i])
		}
		mean.Quo(mean, bigOf(float64(len(cop))))
		for i := range row {
			row[i].Sub(row[i], mean)
		}
		out[j] = row
	}
	return out
}

// bigCholeskyInverse returns R⁻¹ for a = R Rᵀ, R lower triangular.
func bigCholeskyInverse(a [][]*big.Float) [][]*big.Float {
	k := len(a)
	r := bigMatrix(k, k)
	for j := 0; j < k; j++ {
		d := new(big.Float).SetPrec(bigPrec).Set(a[j][j])
		for p := 0; p < j; p++ {
			d.Sub(d, bigMul(r[j][p], r[j][p]))
		}
		r[j][j].Sqrt(d)
		for i := j + 1; i < k; i++ {
			s := new(big.Float).SetPrec(bigPrec).Set(a[i][j])
			for p := 0; p < j; p++ {
				s.Sub(s, bigMul(r[i][p], r[j][p]))
			}
			r[i][j].Quo(s, r[j][j])
		}
	}
	inv := bigMatrix(k, k)
	for j := 0; j < k; j++ {
		inv[j][j].Quo(bigOf(1), r[j][j])
		for i := j + 1; i < k; i++ {
			s := bigOf(0)
			for p := j; p < i; p++ {
				s.Sub(s, bigMul(r[i][p], inv[p][j]))
			}
			inv[i][j].Quo(s, r[i][i])
		}
	}
	return inv
}

// bigJacobiMax returns the largest eigenvalue of the symmetric matrix a
// (overwritten) by cyclic Jacobi sweeps.
func bigJacobiMax(a [][]*big.Float) *big.Float {
	k := len(a)
	eps := bigOf(1e-60)
	one := bigOf(1)
	for sweep := 0; sweep < 100; sweep++ {
		done := true
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				apq := a[p][q]
				if new(big.Float).Abs(apq).Cmp(eps) < 0 {
					continue
				}
				done = false
				// theta = (aqq - app) / (2 apq); t = sign(theta) / (|theta| + sqrt(theta² + 1)).
				theta := new(big.Float).SetPrec(bigPrec).Sub(a[q][q], a[p][p])
				theta.Quo(theta, bigMul(bigOf(2), apq))
				root := new(big.Float).SetPrec(bigPrec).Sqrt(new(big.Float).SetPrec(bigPrec).Add(bigMul(theta, theta), one))
				t := new(big.Float).SetPrec(bigPrec).Quo(one, new(big.Float).SetPrec(bigPrec).Add(new(big.Float).Abs(theta), root))
				if theta.Sign() < 0 {
					t.Neg(t)
				}
				c := new(big.Float).SetPrec(bigPrec).Quo(one, new(big.Float).SetPrec(bigPrec).Sqrt(new(big.Float).SetPrec(bigPrec).Add(bigMul(t, t), one)))
				s := bigMul(t, c)
				tapq := bigMul(t, apq)
				a[p][p] = new(big.Float).SetPrec(bigPrec).Sub(a[p][p], tapq)
				a[q][q] = new(big.Float).SetPrec(bigPrec).Add(a[q][q], tapq)
				a[p][q], a[q][p] = bigOf(0), bigOf(0)
				for r := 0; r < k; r++ {
					if r == p || r == q {
						continue
					}
					arp, arq := a[r][p], a[r][q]
					np := new(big.Float).SetPrec(bigPrec).Sub(bigMul(c, arp), bigMul(s, arq))
					nq := new(big.Float).SetPrec(bigPrec).Add(bigMul(s, arp), bigMul(c, arq))
					a[r][p], a[p][r] = np, np
					a[r][q], a[q][r] = nq, nq
				}
			}
		}
		if done {
			break
		}
	}
	max := a[0][0]
	for i := 1; i < k; i++ {
		if a[i][i].Cmp(max) > 0 {
			max = a[i][i]
		}
	}
	return max
}

// TestPreparedRDCRolesMatter is the must-fail twin of the bit-identity
// test: preparing the two columns in swapped roles changes the answer, so
// an implementation that drew a side's projection from the wrong part of
// the stream would not pass the comparison above.
func TestPreparedRDCRolesMatter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()*4 - 2
		ys[i] = xs[i]*xs[i] + 0.3*rng.NormFloat64()
	}
	cfg := RDCConfig{K: 10, Scale: 1.0 / 6.0, Seed: 1}
	want := rdcRef(xs, ys, cfg)
	swapped := RDCPair(PrepareRDC(ys, RoleX, cfg), PrepareRDC(xs, RoleY, cfg))
	if math.Float64bits(swapped) == math.Float64bits(want) {
		t.Fatalf("swapped roles gave the reference's %v: the identity check cannot see a role mix-up", want)
	}
}
