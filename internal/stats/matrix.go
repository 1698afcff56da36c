// Package stats provides the numerical substrate for DeepDB: ranking and
// copula transforms, the Randomized Dependence Coefficient (RDC), canonical
// correlation analysis, KMeans clustering, and distribution helpers.
//
// Everything is hand-rolled on the standard library so the module stays
// dependency-free and offline-buildable.
package stats

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix. It is deliberately small and
// allocation-transparent: the RDC and CCA computations only ever deal with
// k x k matrices where k is the number of random projections (<= 32).
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
	return out
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

// EigenvaluesGeneral computes eigenvalue magnitudes of a general (possibly
// non-symmetric) matrix via unshifted QR iteration with Householder
// reflections. It is used for the CCA product matrix, which is similar to a
// symmetric PSD matrix but not itself symmetric.
func EigenvaluesGeneral(m *Matrix) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("stats: eigen of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	const iters = 200
	for it := 0; it < iters; it++ {
		q, r := qrDecompose(a)
		a = r.Mul(q)
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a.At(i, i)
	}
	return eig, nil
}

// qrDecompose computes a QR factorization with the modified Gram-Schmidt
// process, which is stable enough for the small well-conditioned matrices we
// feed it.
func qrDecompose(a *Matrix) (q, r *Matrix) {
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
			// Degenerate column: leave Q column zero.
			continue
		}
		for i := 0; i < n; i++ {
			q.Set(i, j, v[i]/norm)
		}
	}
	return q, r
}
