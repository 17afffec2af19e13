package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

// The helpers below build and combine the fixtures the kernels are
// checked against; no shipped code needs them.

// FromRows builds a matrix from row slices, which must share a length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("matrix: ragged rows")
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Add returns a + b element-wise.
func Add(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(ErrShape)
	}
	out := NewDense(a.rows, a.cols)
	copy(out.data, a.data)
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// mul returns a * b in a fresh matrix.
func mul(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	MulInto(out, a, b)
	return out
}

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("non-zero element at (%d,%d)", i, j)
			}
		}
	}
}

// TestSetData checks that a re-pointed header reads and writes the
// given backing in place, reshapes on every call, and refuses a
// backing of the wrong length.
func TestSetData(t *testing.T) {
	backing := []float64{1, 2, 3, 4, 5, 6}
	var m Dense
	if got := m.SetData(2, 3, backing); got != &m || m.At(1, 0) != 4 {
		t.Fatalf("SetData(2, 3) reads %v at (1,0), want 4", m.At(1, 0))
	}
	m.SetData(3, 2, backing).Set(2, 1, 9)
	if backing[5] != 9 || m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("reshaped header is %dx%d and wrote %v", m.Rows(), m.Cols(), backing)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetData accepted 5 values for a 2x3 matrix")
		}
	}()
	m.SetData(2, 3, backing[:5])
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Set(1, 0, -1)
	if m.At(0, 1) != 3.5 || m.At(1, 0) != -1 {
		t.Fatal("Set/At mismatch")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows produced %v", m)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatal("empty FromRows should be 0x0")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	id := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if !Equal(mul(a, id), a, 0) {
		t.Fatal("a * I != a")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MulInto(NewDense(2, 3), NewDense(2, 3), NewDense(2, 3))
}

func TestMulInto(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	dst := NewDense(2, 2)
	dst.Fill(99) // must be overwritten
	MulInto(dst, a, b)
	want := FromRows([][]float64{{2, 1}, {4, 3}})
	if !Equal(dst, want, 1e-12) {
		t.Fatalf("MulInto = %v, want %v", dst, want)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at)
	}
	if !Equal(at.T(), a, 0) {
		t.Fatal("double transpose != original")
	}
}

func TestMulTransA(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	got := NewDense(2, 2)
	MulTransAInto(got, a, b)
	want := mul(a.T(), b)
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MulTransAInto = %v, want %v", got, want)
	}
}

func TestMulTransB(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{1, 1, 1}, {2, 0, 2}})
	got := NewDense(2, 2)
	MulTransBInto(got, a, b)
	want := mul(a, b.T())
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MulTransBInto = %v, want %v", got, want)
	}
}

func TestApply(t *testing.T) {
	a := FromRows([][]float64{{2, -4}, {6, -8}})
	a.Apply(math.Abs)
	if a.At(1, 1) != 8 || a.At(0, 1) != 4 {
		t.Fatalf("Apply: %v", a)
	}
}

func TestAddRowVectorColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVector([]float64{10, 20})
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !Equal(m, want, 0) {
		t.Fatalf("AddRowVector: %v", m)
	}
	sums := make([]float64, 2)
	m.ColSumsInto(sums)
	if sums[0] != 24 || sums[1] != 46 {
		t.Fatalf("ColSums: %v", sums)
	}
}

func TestRowAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 30
	if m.At(1, 0) != 30 {
		t.Fatal("Row should alias storage")
	}
}

// Property: matrix multiplication distributes over addition,
// A*(B+C) == A*B + A*C.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 3, 4)
		b := randomMatrix(seed+1, 4, 2)
		c := randomMatrix(seed+2, 4, 2)
		left := mul(a, Add(b, c))
		right := Add(mul(a, b), mul(a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMatrix(seed, 3, 5)
		b := randomMatrix(seed+7, 5, 2)
		return Equal(mul(a, b).T(), mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(seed int64, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range m.data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.data[i] = float64(int64(x%2000)-1000) / 100
	}
	return m
}
