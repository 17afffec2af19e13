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

	"qens/internal/geometry"
	"qens/internal/rng"
)

// Dataset is an in-memory table of float64 samples over named columns.
// One column is designated as the learning target. The zero value is
// not usable; construct with New.
type Dataset struct {
	columns []string
	target  int // index into columns
	rows    [][]float64
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
	if len(row) != len(d.columns) {
		return fmt.Errorf("%w: got %d values for %d columns", ErrRowWidth, len(row), len(d.columns))
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite value %v in column %q", v, d.columns[i])
		}
	}
	d.rows = append(d.rows, append([]float64(nil), row...))
	return nil
}

// MustAppend is Append that panics on error.
func (d *Dataset) MustAppend(row []float64) {
	if err := d.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the number of samples m.
func (d *Dataset) Len() int { return len(d.rows) }

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

// Row returns sample i. The slice aliases internal storage; callers
// must not mutate it.
func (d *Dataset) Row(i int) []float64 { return d.rows[i] }

// Rows returns all samples. The outer slice is a copy, the rows alias
// internal storage.
func (d *Dataset) Rows() [][]float64 { return append([][]float64(nil), d.rows...) }

// Column returns a copy of the values of the named column.
func (d *Dataset) Column(name string) ([]float64, error) {
	idx := d.ColumnIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("%w: %q", ErrColumnUnknown, name)
	}
	out := make([]float64, len(d.rows))
	for i, r := range d.rows {
		out[i] = r[idx]
	}
	return out, nil
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{columns: append([]string(nil), d.columns...), target: d.target}
	out.rows = make([][]float64, len(d.rows))
	for i, r := range d.rows {
		out.rows[i] = append([]float64(nil), r...)
	}
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
	for _, r := range other.rows {
		d.rows = append(d.rows, append([]float64(nil), r...))
	}
	return nil
}

// SubsetCopy returns a new dataset containing the rows at the given
// indices, deep-copied — the pre-view behaviour, kept for callers
// that go on to mutate the result.
func (d *Dataset) SubsetCopy(indices []int) *Dataset {
	out := d.Empty()
	out.rows = make([][]float64, 0, len(indices))
	for _, i := range indices {
		out.rows = append(out.rows, append([]float64(nil), d.rows[i]...))
	}
	return out
}

// CopyAppend returns a new dataset whose rows are d's current rows
// (storage shared — rows are never mutated in place) plus the given
// new rows, validated and copied. d itself is left untouched, which is
// what makes copy-on-write ingestion safe while concurrent readers
// hold views over the old dataset.
func (d *Dataset) CopyAppend(rows [][]float64) (*Dataset, error) {
	out := &Dataset{columns: append([]string(nil), d.columns...), target: d.target}
	out.rows = make([][]float64, len(d.rows), len(d.rows)+len(rows))
	copy(out.rows, d.rows)
	for i, r := range rows {
		if err := out.Append(r); err != nil {
			return nil, fmt.Errorf("dataset: append row %d: %w", i, err)
		}
	}
	return out, nil
}

// Bounds returns the tight bounding rectangle of all samples in the
// joint data space, and ok=false when the dataset is empty.
func (d *Dataset) Bounds() (geometry.Rect, bool) {
	return geometry.BoundingRect(d.rows)
}

// FilterInRect returns a zero-copy view over the samples falling
// inside rect (inclusive). rect must span the full joint space
// (Dims() dimensions). Only the matching index slice is allocated —
// no row data is copied. Callers that need a mutable dataset use
// FilterInRectCopy (or View.Materialize).
func (d *Dataset) FilterInRect(rect geometry.Rect) View {
	indices := []int{} // non-nil: an empty match must not become the identity view
	for i, r := range d.rows {
		if rect.Contains(r) {
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

// XY splits the samples into a feature matrix X (every column except
// the target) and target vector Y, both copied.
func (d *Dataset) XY() (x [][]float64, y []float64) {
	x = make([][]float64, len(d.rows))
	y = make([]float64, len(d.rows))
	for i, r := range d.rows {
		xi := make([]float64, 0, len(r)-1)
		for j, v := range r {
			if j == d.target {
				y[i] = v
				continue
			}
			xi = append(xi, v)
		}
		x[i] = xi
	}
	return x, y
}

// Split partitions the dataset into train and test subsets with the
// given test fraction in [0, 1), shuffling with src. The split is
// deterministic for a given source.
func (d *Dataset) Split(testFraction float64, src *rng.Source) (train, test *Dataset) {
	if testFraction < 0 || testFraction >= 1 {
		panic(fmt.Sprintf("dataset: invalid test fraction %v", testFraction))
	}
	n := len(d.rows)
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
	n := len(d.rows)
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
	return fmt.Sprintf("Dataset(%d rows, %d cols, target=%s)", len(d.rows), len(d.columns), d.TargetName())
}
