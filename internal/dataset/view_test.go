package dataset

import (
	"context"
	"errors"
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

func TestViewXYMatchesDatasetXY(t *testing.T) {
	d := viewFixture(t)
	wantX, wantY := d.XY()
	gotX, gotY := d.View().XY()
	for i := range wantY {
		if gotY[i] != wantY[i] {
			t.Fatalf("y[%d] = %v want %v", i, gotY[i], wantY[i])
		}
		for j := range wantX[i] {
			if gotX[i][j] != wantX[i][j] {
				t.Fatalf("x[%d][%d] = %v want %v", i, j, gotX[i][j], wantX[i][j])
			}
		}
	}
}

func TestViewXYIntoReusesBuffers(t *testing.T) {
	d := viewFixture(t)
	v := d.ViewOf([]int{1, 3})
	x, y := v.XYInto(nil, nil)
	if len(x) != 4 || len(y) != 2 {
		t.Fatalf("flat lens %d/%d", len(x), len(y))
	}
	if x[0] != 2 || x[1] != 20 || y[0] != 200 || x[2] != 4 || y[1] != 400 {
		t.Fatalf("flat contents %v / %v", x, y)
	}
	// Re-filling with the returned buffers must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		x, y = v.XYInto(x[:0], y[:0])
	})
	if allocs != 0 {
		t.Fatalf("XYInto with warm buffers allocates %v per run", allocs)
	}
}

func TestViewForEachBatch(t *testing.T) {
	d := viewFixture(t)
	v := d.View()
	var got []float64
	var batches int
	err := v.ForEachBatch(context.Background(), 2, nil, nil, func(x, y []float64) error {
		batches++
		got = append(got, y...)
		if len(x) != len(y)*v.FeatureDims() {
			t.Fatalf("batch stride mismatch: %d x for %d y", len(x), len(y))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != 3 || len(got) != 5 || got[0] != 100 || got[4] != 500 {
		t.Fatalf("batches=%d got=%v", batches, got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = v.ForEachBatch(ctx, 2, nil, nil, func(x, y []float64) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ForEachBatch = %v", err)
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
