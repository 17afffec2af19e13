package dataset

import (
	"context"
	"fmt"
)

// View is a zero-copy, read-only window over a dataset: an index
// slice into the dataset's row storage. Constructing a view copies no
// sample data — only (at most) the index slice — which makes it the
// right currency for the per-query training inner loop: a node trains
// over the supporting clusters only (paper §IV, Eq. 3–4), and each
// cluster is already a materialized index slice.
//
// A View pins the row-slice header at construction time: rows later
// appended to the parent dataset are invisible to the view, and the
// view stays readable even while the parent is replaced wholesale
// (the engine's epoch-pinned snapshots rely on this). Views must
// never mutate row contents; callers that need to mutate use
// Materialize (or the *Copy dataset variants) instead.
type View struct {
	rows    [][]float64
	indices []int // nil means the identity view over all rows
	dims    int
	target  int
	schema  *Dataset
}

// View returns the zero-copy identity view over all current rows.
func (d *Dataset) View() View {
	return View{rows: d.rows, dims: len(d.columns), target: d.target, schema: d}
}

// ViewOf returns the zero-copy view over the rows at the given
// indices. The index slice is adopted, not copied; callers must not
// mutate it afterwards. Indices are validated lazily (an out-of-range
// index panics on access, like a slice index). A nil slice yields the
// empty view — the identity view is only ever built by View().
func (d *Dataset) ViewOf(indices []int) View {
	if indices == nil {
		indices = []int{}
	}
	return View{rows: d.rows, indices: indices, dims: len(d.columns), target: d.target, schema: d}
}

// Len returns the number of samples in the view.
func (v View) Len() int {
	if v.indices != nil {
		return len(v.indices)
	}
	return len(v.rows)
}

// FeatureDims returns the number of non-target columns.
func (v View) FeatureDims() int { return v.dims - 1 }

// Index returns the underlying dataset row index of view position i.
func (v View) Index(i int) int {
	if v.indices != nil {
		return v.indices[i]
	}
	return i
}

// Row returns sample i of the view. The slice aliases dataset
// storage; callers must not mutate it.
func (v View) Row(i int) []float64 { return v.rows[v.Index(i)] }

// XY splits the viewed samples into a copied feature matrix and
// target vector, mirroring Dataset.XY.
func (v View) XY() (x [][]float64, y []float64) {
	n := v.Len()
	x = make([][]float64, n)
	y = make([]float64, n)
	flat := make([]float64, n*v.FeatureDims())
	for i := 0; i < n; i++ {
		xi := flat[i*v.FeatureDims() : (i+1)*v.FeatureDims()]
		v.splitRow(v.Row(i), xi, &y[i])
		x[i] = xi
	}
	return x, y
}

// splitRow scatters one joint-space row into a feature slice and the
// target scalar.
func (v View) splitRow(row []float64, x []float64, y *float64) {
	j := 0
	for c, val := range row {
		if c == v.target {
			*y = val
			continue
		}
		x[j] = val
		j++
	}
}

// XYInto fills caller-owned flat buffers with the view's samples: x
// receives the features row-major with stride FeatureDims(), y the
// targets. Both are appended onto the given slices' zero-length
// prefixes, so passing buffers with sufficient capacity makes the
// call allocation-free; undersized buffers grow transparently. The
// returned slices are the filled prefixes.
func (v View) XYInto(x []float64, y []float64) (xs, ys []float64) {
	n := v.Len()
	fd := v.FeatureDims()
	xs = grow(x, n*fd)
	ys = grow(y, n)
	for i := 0; i < n; i++ {
		v.splitRow(v.Row(i), xs[i*fd:(i+1)*fd], &ys[i])
	}
	return xs, ys
}

// grow resizes buf to length n, reusing its capacity when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// ForEachBatch walks the view in order in chunks of at most batchSize
// samples, filling the caller-owned flat buffers and invoking fn with
// the filled prefixes (x row-major with stride FeatureDims(), y the
// targets). The context is checked before every batch, so arbitrarily
// large views stay cancellable at batch granularity. fn must not
// retain the slices across calls.
func (v View) ForEachBatch(ctx context.Context, batchSize int, x, y []float64, fn func(x, y []float64) error) error {
	if batchSize < 1 {
		return fmt.Errorf("dataset: batch size %d < 1", batchSize)
	}
	n := v.Len()
	fd := v.FeatureDims()
	x = grow(x, batchSize*fd)
	y = grow(y, batchSize)
	for start := 0; start < n; start += batchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + batchSize
		if end > n {
			end = n
		}
		m := end - start
		for i := 0; i < m; i++ {
			v.splitRow(v.Row(start+i), x[i*fd:(i+1)*fd], &y[i])
		}
		if err := fn(x[:m*fd], y[:m]); err != nil {
			return err
		}
	}
	return nil
}

// Materialize copies the viewed samples into a fresh dataset with the
// view's schema — the escape hatch for callers that need to mutate.
func (v View) Materialize() *Dataset {
	out := v.schema.Empty()
	out.rows = make([][]float64, v.Len())
	for i := range out.rows {
		out.rows[i] = append([]float64(nil), v.Row(i)...)
	}
	return out
}
