package stats

import (
	"fmt"
	"math"
	"testing"
)

// The dense matrix helpers and the general eigen-solver the RDC ran on
// before it factored each side's covariance and turned to a symmetric
// problem. They stay as the references of the tests that pin the old
// pipeline and show the new one is more accurate.

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialized rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("stats: matrix dims %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	mulAdd(out, m, b)
	return out
}

// mulAdd adds m * b to out.
func mulAdd(out, m, b *Matrix) {
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowO := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := range rowB {
				rowO[j] += a * rowB[j]
			}
		}
	}
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// AddDiagonal adds v to every diagonal element (ridge regularization).
func (m *Matrix) AddDiagonal(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination with partial pivoting. It returns an error when the matrix is
// singular to working precision.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("stats: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		inv.Set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest absolute value.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a.At(r, col)); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, fmt.Errorf("stats: singular matrix at column %d", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// EigenvaluesGeneral computes the eigenvalues of a general (possibly
// non-symmetric) matrix by 200 unshifted QR iterations with modified
// Gram-Schmidt factorizations and no convergence test, then reads the
// diagonal. It converges at the ratio of neighbouring eigenvalues, so close
// eigenvalues come out wrong.
func EigenvaluesGeneral(m *Matrix) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("stats: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	q, r := NewMatrix(n, n), NewMatrix(n, n)
	cols := make([]float64, n*n)
	const iters = 200
	for it := 0; it < iters; it++ {
		qrDecompose(a, q, r, cols)
		clear(a.Data)
		mulAdd(a, r, q) // a = r * q
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a.At(i, i)
	}
	return eig, nil
}

// qrDecompose computes a QR factorization of the square matrix a into q
// and r with the modified Gram-Schmidt process, which is stable enough for
// the small well-conditioned matrices we feed it. r's lower triangle must
// be zero; cols is n*n scratch. Every other cell of q and r is written.
func qrDecompose(a, q, r *Matrix, cols []float64) {
	n := a.Rows
	for j := 0; j < n; j++ {
		c := cols[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			c[i] = a.At(i, j)
		}
	}
	for j := 0; j < n; j++ {
		v := cols[j*n : (j+1)*n]
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
			// Degenerate column: leave Q column zero.
			for i := 0; i < n; i++ {
				q.Set(i, j, 0)
			}
			continue
		}
		for i := 0; i < n; i++ {
			q.Set(i, j, v[i]/norm)
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	m := NewMatrix(3, 3)
	vals := [][]float64{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}}
	for i := range vals {
		for j := range vals[i] {
			m.Set(i, j, vals[i][j])
		}
	}
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod := m.Mul(inv)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-9 {
				t.Fatalf("M*M^-1 not identity: %v", prod)
			}
		}
	}
}

func TestMatrixInverseSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
}

func TestSymmetricEigen(t *testing.T) {
	// Matrix [[2,1],[1,2]] has eigenvalues 1 and 3; the general solver
	// must find them off the diagonal too.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	eig, err := EigenvaluesGeneral(m)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(eig[0], eig[1]), math.Max(eig[0], eig[1])
	if math.Abs(lo-1) > 1e-8 || math.Abs(hi-3) > 1e-8 {
		t.Fatalf("eigenvalues = %v, want [1 3]", eig)
	}
}

func TestEigenvaluesGeneralDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 5)
	m.Set(1, 1, 2)
	m.Set(2, 2, 0.5)
	eig, err := EigenvaluesGeneral(m)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, e := range eig {
		if e > max {
			max = e
		}
	}
	if math.Abs(max-5) > 1e-6 {
		t.Fatalf("max eigenvalue = %v, want 5", max)
	}
}
