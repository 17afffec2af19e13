package dataset

import (
	"sync"
	"testing"

	"qens/internal/geometry"
)

func viewFixture(t *testing.T) *Dataset {
	t.Helper()
	d := MustNew([]string{"a", "b", "y"}, "y")
	rows := [][]float64{
		{1, 10, 100},
		{2, 20, 200},
		{3, 30, 300},
		{4, 40, 400},
		{5, 50, 500},
	}
	for _, r := range rows {
		d.MustAppend(r)
	}
	return d
}

func TestViewIdentityAndSubset(t *testing.T) {
	d := viewFixture(t)
	v := d.View()
	if v.Len() != 5 || v.FeatureDims() != 2 {
		t.Fatalf("identity view shape: len=%d fd=%d", v.Len(), v.FeatureDims())
	}
	sub := d.ViewOf([]int{4, 0, 2})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if got := sub.Row(0)[0]; got != 5 {
		t.Fatalf("subset row order: got %v", got)
	}
	if sub.Index(1) != 0 {
		t.Fatalf("subset Index(1) = %d", sub.Index(1))
	}
	// Views must copy no row data: the view row aliases dataset storage.
	if &sub.Row(0)[0] != &d.Row(4)[0] {
		t.Fatal("view row does not alias dataset storage")
	}
}

func TestViewOfNilIsEmpty(t *testing.T) {
	d := viewFixture(t)
	if got := d.ViewOf(nil).Len(); got != 0 {
		t.Fatalf("ViewOf(nil) len = %d, want 0 (must not alias the identity view)", got)
	}
}

// TestViewXYMatchesDatasetXY: a view's XY splits each row it views
// into the row's non-target columns, in order, and its target, and
// the feature slices are capped so an append to one cannot write into
// the next.
func TestViewXYMatchesDatasetXY(t *testing.T) {
	d := MustNew([]string{"a", "y", "b"}, "y")
	for _, r := range [][]float64{{1, 10, 2}, {3, 30, 4}, {5, 50, 6}} {
		d.MustAppend(r)
	}
	for _, v := range []View{d.View(), d.ViewOf([]int{2, 0})} {
		x, y := v.XY()
		for i := range y {
			row := v.Row(i)
			if y[i] != row[1] || len(x[i]) != 2 || x[i][0] != row[0] || x[i][1] != row[2] {
				t.Fatalf("view row %d = %v split into x %v, y %v", i, row, x[i], y[i])
			}
		}
		if len(x) > 1 {
			_ = append(x[0], -1)
			if x[1][0] == -1 {
				t.Fatal("an append to one feature slice overwrote the next")
			}
		}
	}
}

// TestRowIsCapped: an append to a row, from the dataset or a view, or
// to Values, cannot write past it into the shared storage.
func TestRowIsCapped(t *testing.T) {
	d := viewFixture(t)
	for _, row := range [][]float64{d.Row(1), d.View().Row(1), d.ViewOf([]int{1}).Row(0), d.Values()} {
		if cap(row) != len(row) {
			t.Fatalf("row has cap %d beyond its %d values", cap(row), len(row))
		}
		_ = append(row, -1, -1, -1)
		if d.Row(2)[0] != 3 {
			t.Fatalf("an append to row 1 overwrote row 2: %v", d.Row(2))
		}
	}
}

func TestViewPinsRowsAcrossAppend(t *testing.T) {
	d := viewFixture(t)
	v := d.View()
	// Force reallocation of the outer rows slice.
	for i := 0; i < 64; i++ {
		d.MustAppend([]float64{9, 9, 9})
	}
	if v.Len() != 5 {
		t.Fatalf("view grew with parent: len %d", v.Len())
	}
	if v.Row(4)[2] != 500 {
		t.Fatalf("view row mutated: %v", v.Row(4))
	}
}

func TestFilterInRectViewAndEmptyMatch(t *testing.T) {
	d := viewFixture(t)
	rect := geometry.Rect{Min: []float64{2, 0, 0}, Max: []float64{4, 100, 1000}}
	v := d.FilterInRect(rect)
	if v.Len() != 3 {
		t.Fatalf("filter len %d", v.Len())
	}
	empty := d.FilterInRect(geometry.Rect{Min: []float64{1e6, 1e6, 1e6}, Max: []float64{2e6, 2e6, 2e6}})
	if empty.Len() != 0 {
		t.Fatalf("disjoint filter len %d, want 0", empty.Len())
	}
}

func TestViewMaterializeAndCopyVariants(t *testing.T) {
	d := viewFixture(t)
	v := d.ViewOf([]int{0, 2})
	m := v.Materialize()
	if m.Len() != 2 || m.Dims() != 3 {
		t.Fatalf("materialize shape %d x %d", m.Len(), m.Dims())
	}
	// Materialized rows are copies: mutating them must not touch d.
	m.Row(0)[0] = -1
	if d.Row(0)[0] != 1 {
		t.Fatal("materialize aliases source rows")
	}
	sc := d.SubsetCopy([]int{1})
	sc.Row(0)[0] = -5
	if d.Row(1)[0] != 2 {
		t.Fatal("SubsetCopy aliases source rows")
	}
	fc := d.FilterInRectCopy(geometry.Rect{Min: []float64{1, 10, 100}, Max: []float64{1, 10, 100}})
	if fc.Len() != 1 {
		t.Fatalf("FilterInRectCopy len %d", fc.Len())
	}
}

func TestCopyAppendIsCopyOnWrite(t *testing.T) {
	d := viewFixture(t)
	v := d.View()
	d2, err := d.CopyAppend([][]float64{{6, 60, 600}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 || d2.Len() != 6 {
		t.Fatalf("lens %d/%d", d.Len(), d2.Len())
	}
	if v.Len() != 5 {
		t.Fatalf("pinned view len %d", v.Len())
	}
	// Shared storage: existing rows alias, the appended row does not
	// exist in the original.
	if &d2.Row(0)[0] != &d.Row(0)[0] {
		t.Fatal("CopyAppend deep-copied shared rows")
	}
	if _, err := d.CopyAppend([][]float64{{1, 2}}); err == nil {
		t.Fatal("CopyAppend accepted a short row")
	}
}

// TestCopyAppendSuccessorsDoNotCollide: successors grown from one
// parent, concurrently and in turn, each keep their own new rows,
// although all of them share the parent's storage and its spare
// capacity; the parent and a view over it see none of them.
func TestCopyAppendSuccessorsDoNotCollide(t *testing.T) {
	d := viewFixture(t)
	for i := 0; i < 30; i++ {
		d.MustAppend([]float64{9, 9, 9})
	}
	if cap(d.data)-len(d.data) < 6 {
		t.Fatalf("the fixture leaves %d values of spare capacity, want room for two rows", cap(d.data)-len(d.data))
	}
	v := d.View()
	const n = 8
	succ := make([]*Dataset, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			next, err := d.CopyAppend([][]float64{{float64(g), 1, 1}, {float64(g), 2, 2}})
			if err != nil {
				t.Error(err)
				return
			}
			succ[g] = next
		}(g)
	}
	wg.Wait()
	// One more successor of the first, grown after the others.
	last, err := succ[0].CopyAppend([][]float64{{-1, -1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	for g, s := range succ {
		if s.Len() != d.Len()+2 || s.Row(d.Len())[0] != float64(g) || s.Row(d.Len() + 1)[2] != 2 {
			t.Fatalf("successor %d holds %v, %v after its parent's rows", g, s.Row(d.Len()), s.Row(d.Len()+1))
		}
	}
	if last.Len() != d.Len()+3 || last.Row(d.Len())[0] != 0 || last.Row(d.Len() + 2)[0] != -1 {
		t.Fatalf("the successor's successor holds %v", last.Values()[d.Len()*d.Dims():])
	}
	if d.Len() != 35 || v.Len() != 35 || v.Row(34)[0] != 9 {
		t.Fatalf("the parent grew to %d rows, its view to %d", d.Len(), v.Len())
	}
}
