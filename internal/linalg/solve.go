// Package linalg provides the dense linear-algebra kernel of the Markov
// estimators: solving Ax = b by Gaussian elimination with partial
// pivoting, in O(n³) time and O(n²) space. It is the paper's
// formulation and the reference: core.MarkovSystem.SolveDense solves a
// whole system with it, while the production solve
// (core.MarkovSystem.Solve) uses it only on the recursive components of
// the system's condensation, each k×k.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Solve solves A·x = b in place on copies (A and b are not modified) by
// Gaussian elimination with partial pivoting. It returns ErrSingular if
// no pivot exceeds the tolerance.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	if a.Rows == 0 {
		return nil, nil
	}
	m := a.Clone()
	x := make([]float64, len(b))
	copy(x, b)
	if err := eliminate(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInPlace is Solve without the copies: it overwrites a with its
// elimination and b with the solution x (meaningless when it returns an
// error). It suits callers that build a system only to solve it, where
// the two copies would be most of the allocation.
func SolveInPlace(a *Matrix, b []float64) error {
	if err := checkDims(a, b); err != nil {
		return err
	}
	return eliminate(a, b)
}

func checkDims(a *Matrix, b []float64) error {
	if a.Cols != a.Rows {
		return fmt.Errorf("linalg: matrix is %d×%d, want square", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("linalg: rhs has %d entries, want %d", len(b), a.Rows)
	}
	return nil
}

// eliminate replaces x, which holds the right-hand side b, with the
// solution of m·x = b by Gaussian elimination with partial pivoting,
// destroying m.
func eliminate(m *Matrix, x []float64) error {
	n := m.Rows
	const tol = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < tol {
			return ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vi, vj := m.At(col, j), m.At(pivot, j)
				m.Set(col, j, vj)
				m.Set(pivot, j, vi)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				m.Add(r, j, -f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return nil
}

// Residual returns the max-norm of A·x − b, a cheap verification that a
// solution is valid.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.Rows
	worst := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		for j := 0; j < a.Cols; j++ {
			s += a.At(i, j) * x[j]
		}
		if v := math.Abs(s); v > worst {
			worst = v
		}
	}
	return worst
}
