// Package dataset provides the data substrate of the reproduction: the
// sample/dataset model shared by every node, a CSV codec, feature
// scaling, train/test splitting, and a synthetic generator for the
// Beijing Multi-Site Air-Quality data the paper evaluates on (see
// DESIGN.md §4 for the substitution rationale).
//
// Following the paper (§III-B), a sample ξ = (x, y) is a point in the
// joint d-dimensional data space; clustering and query boundaries
// operate over all columns, while model training splits the columns
// into inputs x (every non-target column) and the desired output y
// (the designated target column).
package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"qens/internal/geometry"
	"qens/internal/rng"
)

// Dataset is an in-memory table of float64 samples over named columns.
// One column is designated as the learning target. The zero value is
// not usable; construct with New.
//
// The samples live in one row-major slice with stride Dims(), and rows
// are only ever appended: nothing rewrites a stored value, so a View
// taken earlier keeps reading the rows it saw, and CopyAppend can hand
// its result the same storage.
type Dataset struct {
	columns []string
	target  int       // index into columns
	data    []float64 // row i is data[i*Dims() : (i+1)*Dims()]
	// end is shared by every dataset over data's backing array: the
	// length of its longest claimed prefix. A dataset writes past its
	// own length only after claiming the space with a CompareAndSwap
	// from its length, so two datasets grown from one parent never
	// write the same spare capacity.
	end *atomic.Int64
}

// Common errors returned by dataset operations.
var (
	ErrNoColumns     = errors.New("dataset: no columns")
	ErrRowWidth      = errors.New("dataset: row width mismatch")
	ErrEmpty         = errors.New("dataset: empty dataset")
	ErrColumnUnknown = errors.New("dataset: unknown column")
)

// New creates an empty dataset over the given columns with the target
// column named by target.
func New(columns []string, target string) (*Dataset, error) {
	if len(columns) == 0 {
		return nil, ErrNoColumns
	}
	idx := -1
	seen := make(map[string]bool, len(columns))
	for i, c := range columns {
		if seen[c] {
			return nil, fmt.Errorf("dataset: duplicate column %q", c)
		}
		seen[c] = true
		if c == target {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("%w: %q", ErrColumnUnknown, target)
	}
	cols := append([]string(nil), columns...)
	return &Dataset{columns: cols, target: idx}, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(columns []string, target string) *Dataset {
	d, err := New(columns, target)
	if err != nil {
		panic(err)
	}
	return d
}

// Append adds a sample row. The row is copied.
func (d *Dataset) Append(row []float64) error {
	if err := d.checkRow(row); err != nil {
		return err
	}
	d.appendValues(row)
	return nil
}

// checkRow reports a row that does not fit the schema.
func (d *Dataset) checkRow(row []float64) error {
	if len(row) != len(d.columns) {
		return fmt.Errorf("%w: got %d values for %d columns", ErrRowWidth, len(row), len(d.columns))
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite value %v in column %q", v, d.columns[i])
		}
	}
	return nil
}

// appendValues appends whole rows of values, writing into the backing
// array's spare capacity when d claims it and into a grown copy
// otherwise.
func (d *Dataset) appendValues(vals []float64) {
	n := len(d.data)
	if d.end == nil || cap(d.data)-n < len(vals) || !d.end.CompareAndSwap(int64(n), int64(n+len(vals))) {
		d.data = slices.Grow(d.data[:n:n], len(vals))
		d.end = new(atomic.Int64)
		d.end.Store(int64(n + len(vals)))
	}
	d.data = append(d.data, vals...)
}

// MustAppend is Append that panics on error.
func (d *Dataset) MustAppend(row []float64) {
	if err := d.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the number of samples m.
func (d *Dataset) Len() int { return len(d.data) / len(d.columns) }

// Dims returns the number of columns (the paper's d, joint space).
func (d *Dataset) Dims() int { return len(d.columns) }

// TargetIndex returns the index of the target column.
func (d *Dataset) TargetIndex() int { return d.target }

// TargetName returns the name of the target column.
func (d *Dataset) TargetName() string { return d.columns[d.target] }

// ColumnIndex returns the index of the named column, or -1.
func (d *Dataset) ColumnIndex(name string) int {
	for i, c := range d.columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Row returns sample i. The slice aliases internal storage, capped at
// the row's end so an append to it cannot reach the next row; callers
// must not write to it.
func (d *Dataset) Row(i int) []float64 { return row(d.data, len(d.columns), i) }

// row returns row i of the row-major data with the given stride.
func row(data []float64, stride, i int) []float64 {
	return data[i*stride : (i+1)*stride : (i+1)*stride]
}

// Values returns every sample in one row-major slice with stride
// Dims(), aliasing internal storage; callers must not write to it.
func (d *Dataset) Values() []float64 { return d.data[:len(d.data):len(d.data)] }

// Column returns a copy of the values of the named column.
func (d *Dataset) Column(name string) ([]float64, error) {
	idx := d.ColumnIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("%w: %q", ErrColumnUnknown, name)
	}
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = d.data[i*len(d.columns)+idx]
	}
	return out, nil
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := d.Empty()
	out.data = append([]float64(nil), d.data...)
	return out
}

// Empty returns a dataset with the same schema and no rows.
func (d *Dataset) Empty() *Dataset {
	return &Dataset{columns: append([]string(nil), d.columns...), target: d.target}
}

// SameSchema reports whether other has identical columns and target.
func (d *Dataset) SameSchema(other *Dataset) bool {
	if other == nil || d.target != other.target || len(d.columns) != len(other.columns) {
		return false
	}
	for i, c := range d.columns {
		if other.columns[i] != c {
			return false
		}
	}
	return true
}

// Merge appends all rows of other, which must share the schema.
func (d *Dataset) Merge(other *Dataset) error {
	if !d.SameSchema(other) {
		return errors.New("dataset: merge with different schema")
	}
	d.appendValues(other.data)
	return nil
}

// SubsetCopy returns a new dataset containing the rows at the given
// indices, copied, for callers that go on to mutate the result.
func (d *Dataset) SubsetCopy(indices []int) *Dataset {
	return d.ViewOf(indices).Materialize()
}

// CopyAppend returns a new dataset whose rows are d's current rows
// (storage shared — rows are never mutated in place) plus the given
// new rows, validated and copied. d itself is left untouched, which is
// what makes copy-on-write ingestion safe while concurrent readers
// hold views over the old dataset.
func (d *Dataset) CopyAppend(rows [][]float64) (*Dataset, error) {
	for i, r := range rows {
		if err := d.checkRow(r); err != nil {
			return nil, fmt.Errorf("dataset: append row %d: %w", i, err)
		}
	}
	out := &Dataset{columns: d.columns, target: d.target, data: d.data, end: d.end}
	for _, r := range rows {
		out.appendValues(r)
	}
	return out, nil
}

// Bounds returns the tight bounding rectangle of all samples in the
// joint data space, and ok=false when the dataset is empty.
func (d *Dataset) Bounds() (geometry.Rect, bool) {
	var r geometry.Rect
	for i := range d.Len() {
		r.ExpandToInclude(d.Row(i))
	}
	return r, d.Len() > 0
}

// FilterInRect returns a zero-copy view over the samples falling
// inside rect (inclusive). rect must span the full joint space
// (Dims() dimensions). Only the matching index slice is allocated —
// no row data is copied. Callers that need a mutable dataset use
// FilterInRectCopy (or View.Materialize).
func (d *Dataset) FilterInRect(rect geometry.Rect) View {
	indices := []int{} // non-nil: an empty match must not become the identity view
	for i := range d.Len() {
		if rect.Contains(d.Row(i)) {
			indices = append(indices, i)
		}
	}
	return d.ViewOf(indices)
}

// FilterInRectCopy returns the samples falling inside rect as a
// deep-copied dataset — the pre-view behaviour.
func (d *Dataset) FilterInRectCopy(rect geometry.Rect) *Dataset {
	return d.FilterInRect(rect).Materialize()
}

// Split partitions the dataset into train and test subsets with the
// given test fraction in [0, 1), shuffling with src. The split is
// deterministic for a given source.
func (d *Dataset) Split(testFraction float64, src *rng.Source) (train, test *Dataset) {
	if testFraction < 0 || testFraction >= 1 {
		panic(fmt.Sprintf("dataset: invalid test fraction %v", testFraction))
	}
	n := d.Len()
	perm := src.Perm(n)
	nTest := int(math.Round(float64(n) * testFraction))
	test = d.SubsetCopy(perm[:nTest])
	train = d.SubsetCopy(perm[nTest:])
	return train, test
}

// SplitTemporal splits without shuffling: the leading rows train, the
// trailing testFraction tests. This is the right split for the hourly
// sensor streams the corpus simulates — a shuffled split leaks future
// observations into training.
func (d *Dataset) SplitTemporal(testFraction float64) (train, test *Dataset) {
	if testFraction < 0 || testFraction >= 1 {
		panic(fmt.Sprintf("dataset: invalid test fraction %v", testFraction))
	}
	n := d.Len()
	cut := n - int(math.Round(float64(n)*testFraction))
	trainIdx := make([]int, cut)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	testIdx := make([]int, n-cut)
	for i := range testIdx {
		testIdx[i] = cut + i
	}
	return d.SubsetCopy(trainIdx), d.SubsetCopy(testIdx)
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset(%d rows, %d cols, target=%s)", d.Len(), len(d.columns), d.TargetName())
}
