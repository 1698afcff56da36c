package stats

import (
	"math"
	"math/rand"
	"testing"
)

// rdc is the one-shot RDC of a pair, both columns prepared on the spot.
func rdc(xs, ys []float64, cfg RDCConfig) float64 {
	return RDCPair(PrepareRDC(xs, RoleX, cfg), PrepareRDC(ys, RoleY, cfg))
}

// rdcRef is the one-step RDC that PrepareRDC and RDCPair split in two,
// kept as the reference they must match bit for bit.
func rdcRef(xs, ys []float64, cfg RDCConfig) float64 {
	n := len(xs)
	if n < 4 || n != len(ys) {
		return 0
	}
	if cfg.K <= 0 {
		cfg = DefaultRDCConfig()
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
	eig, err := eigenvaluesGeneralRef(m)
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

// TestPreparedRDCMatchesReference: the two-step RDC equals the one-step
// reference bit for bit, including every fallback, and one prepared column
// gives the same answer in every pair it joins.
func TestPreparedRDCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	col := func(n int, gen func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	noise := func(int) float64 { return rng.NormFloat64() }
	ints := func(int) float64 { return float64(rng.Intn(7)) }
	constant := func(int) float64 { return 4 }
	withNull := func(int) float64 {
		if rng.Intn(5) == 0 {
			return math.Inf(-1) // the learner's NULL sentinel
		}
		return rng.Float64()
	}
	cfgs := []RDCConfig{{K: 10, Scale: 1.0 / 6.0, Seed: 7}, {K: 4, Scale: 0.5, Seed: 3}}
	for _, n := range []int{0, 1, 3, 4, 5, 40, 200} {
		cols := [][]float64{col(n, noise), col(n, ints), col(n, constant), col(n, withNull)}
		lin := make([]float64, n)
		for i, v := range cols[0] {
			lin[i] = 2*v + 0.01*rng.NormFloat64()
		}
		cols = append(cols, lin)
		for _, cfg := range cfgs {
			xs := make([]*RDCColumn, len(cols))
			ys := make([]*RDCColumn, len(cols))
			for i, c := range cols {
				xs[i], ys[i] = PrepareRDC(c, RoleX, cfg), PrepareRDC(c, RoleY, cfg)
			}
			// Each column with itself and with the next: every prepared
			// column serves two pairs on each side.
			for i := range cols {
				for _, j := range []int{i, (i + 1) % len(cols)} {
					got, want := RDCPair(xs[i], ys[j]), rdcRef(cols[i], cols[j], cfg)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d cfg=%+v pair (%d,%d): prepared %v, reference %v", n, cfg, i, j, got, want)
					}
				}
			}
		}
	}
	// A zero configuration means the default one, as in the reference.
	xs, ys := col(40, noise), col(40, ints)
	if got, want := rdc(xs, ys, RDCConfig{}), rdcRef(xs, ys, RDCConfig{}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("zero configuration: prepared %v, reference %v", got, want)
	}
	// Different lengths give 0, as the reference does.
	if got := rdc(col(10, noise), col(11, noise), DefaultRDCConfig()); got != 0 {
		t.Fatalf("RDC of samples of different lengths = %v, want 0", got)
	}
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

// eigenvaluesGeneralRef is EigenvaluesGeneral as it was before its QR
// iteration reused its matrices: two new matrices per factorization and
// a third for the product.
func eigenvaluesGeneralRef(m *Matrix) ([]float64, error) {
	n := m.Rows
	a := m.Clone()
	for it := 0; it < 200; it++ {
		q, r := qrDecomposeRef(a)
		a = r.Mul(q)
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a.At(i, i)
	}
	return eig, nil
}

func qrDecomposeRef(a *Matrix) (q, r *Matrix) {
	n := a.Rows
	q = NewMatrix(n, n)
	r = NewMatrix(n, n)
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			c[i] = a.At(i, j)
		}
		cols[j] = c
	}
	for j := 0; j < n; j++ {
		v := cols[j]
		for k := 0; k < j; k++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += q.At(i, k) * v[i]
			}
			r.Set(k, j, dot)
			for i := 0; i < n; i++ {
				v[i] -= dot * q.At(i, k)
			}
		}
		norm := 0.0
		for i := 0; i < n; i++ {
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		r.Set(j, j, norm)
		if norm < 1e-14 {
			continue
		}
		for i := 0; i < n; i++ {
			q.Set(i, j, v[i]/norm)
		}
	}
	return q, r
}
