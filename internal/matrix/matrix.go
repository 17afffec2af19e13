// Package matrix implements the small dense linear-algebra kernel used
// by the ML and clustering substrates: row-major dense matrices,
// vectors, and the handful of BLAS-like operations back-propagation and
// Lloyd's algorithm need. The package is dependency-free and favours
// clarity plus bounds-checked correctness over vectorized throughput;
// hot loops still avoid per-element interface dispatch and allocation.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape reports an operation on incompatibly shaped operands.
var ErrShape = errors.New("matrix: incompatible shapes")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows x cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// SetData re-points m at data (length rows*cols, row-major) without
// copying and returns m. A kernel that reshapes its scratch every call
// keeps one header per matrix this way instead of allocating one.
func (m *Dense) SetData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d x %d", len(data), rows, cols))
	}
	m.rows, m.cols, m.data = rows, cols, data
	return m
}

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("matrix: row out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice (row-major). Mutating it mutates m.
func (m *Dense) Data() []float64 { return m.data }

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() { m.Fill(0) }

// MulInto computes dst = a * b, reusing dst's storage. dst must be
// a.rows x b.cols and must not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(ErrShape)
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulTransAInto computes dst = aᵀ * b, reusing dst's storage. dst must
// be a.cols x b.cols and must not alias a or b.
func MulTransAInto(dst, a, b *Dense) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic(ErrShape)
	}
	dst.Zero()
	for r := 0; r < a.rows; r++ {
		arow := a.data[r*a.cols : (r+1)*a.cols]
		brow := b.data[r*b.cols : (r+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulTransBInto computes dst = a * bᵀ, reusing dst's storage. dst must
// be a.rows x b.rows and must not alias a or b.
func MulTransBInto(dst, a, b *Dense) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(ErrShape)
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			sum := 0.0
			for k, av := range arow {
				sum += av * brow[k]
			}
			orow[j] = sum
		}
	}
}

// Apply replaces every element x with f(x) in place.
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

// AddRowVector adds vector v (length cols) to every row of m in place.
func (m *Dense) AddRowVector(v []float64) {
	if len(v) != m.cols {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ColSumsInto writes the per-column sum of m into out, which must have
// length Cols().
func (m *Dense) ColSumsInto(out []float64) {
	if len(out) != m.cols {
		panic(ErrShape)
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += v
		}
	}
}

// Equal reports whether a and b have identical shape and all elements
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
