package dataset

// View is a zero-copy, read-only window over a dataset: the dataset's
// row-major storage, an optional index into it, the row stride and the
// target column. Constructing a view copies no sample data — only (at
// most) the index slice — which makes it the one input a model trains
// and predicts on (internal/ml): a node trains over the supporting
// clusters only (paper §IV, Eq. 3–4), and each cluster is already a
// materialized index slice.
//
// A View pins the storage's length at construction time: rows later
// appended to the parent dataset are invisible to the view, and the
// view stays readable even while the parent is replaced wholesale
// (the engine's epoch-pinned snapshots rely on this). Views must
// never mutate row contents; callers that need to mutate use
// Materialize (or the *Copy dataset variants) instead.
type View struct {
	data    []float64
	indices []int // nil means the identity view over all rows
	dims    int
	target  int
	schema  *Dataset
}

// View returns the zero-copy identity view over all current rows.
func (d *Dataset) View() View {
	return View{data: d.data, dims: len(d.columns), target: d.target, schema: d}
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
	return View{data: d.data, indices: indices, dims: len(d.columns), target: d.target, schema: d}
}

// Select returns the view over v's rows at the given positions, in
// their order. The positions are translated into a new index slice;
// pos itself is not kept.
func (v View) Select(pos []int) View {
	indices := make([]int, len(pos))
	for k, p := range pos {
		indices[k] = v.Index(p)
	}
	v.indices = indices
	return v
}

// Len returns the number of samples in the view.
func (v View) Len() int {
	if v.indices != nil || v.dims == 0 { // the zero View is empty
		return len(v.indices)
	}
	return len(v.data) / v.dims
}

// FeatureDims returns the number of non-target columns.
func (v View) FeatureDims() int { return v.dims - 1 }

// TargetIndex returns the index of the target column within a row.
func (v View) TargetIndex() int { return v.target }

// Index returns the underlying dataset row index of view position i.
func (v View) Index(i int) int {
	if v.indices != nil {
		return v.indices[i]
	}
	return i
}

// Row returns sample i of the view, the whole joint-space row with
// the target in column TargetIndex(). The slice aliases dataset
// storage, capped at the row's end; callers must not write to it.
func (v View) Row(i int) []float64 { return row(v.data, v.dims, v.Index(i)) }

// Target returns the target value of sample i.
func (v View) Target(i int) float64 { return v.data[v.Index(i)*v.dims+v.target] }

// XY splits the viewed samples into a copied feature matrix and
// target vector.
func (v View) XY() (x [][]float64, y []float64) {
	n, fd := v.Len(), v.FeatureDims()
	x = make([][]float64, n)
	y = make([]float64, n)
	flat := make([]float64, 0, n*fd)
	for i := range x {
		r := v.Row(i)
		start := len(flat)
		flat = append(append(flat, r[:v.target]...), r[v.target+1:]...)
		x[i] = flat[start:len(flat):len(flat)]
		y[i] = r[v.target]
	}
	return x, y
}

// Materialize copies the viewed samples into a fresh dataset with the
// view's schema — the escape hatch for callers that need to mutate.
func (v View) Materialize() *Dataset {
	out := v.schema.Empty()
	out.data = make([]float64, 0, v.Len()*v.dims)
	for i := range v.Len() {
		out.data = append(out.data, v.Row(i)...)
	}
	return out
}
