package dataset

import (
	"math"
	"testing"

	"qens/internal/geometry"
	"qens/internal/rng"
)

func twoColDataset(t *testing.T, rows [][]float64) *Dataset {
	t.Helper()
	d := MustNew([]string{"x", "y"}, "y")
	for _, r := range rows {
		d.MustAppend(r)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "y"); err == nil {
		t.Fatal("accepted no columns")
	}
	if _, err := New([]string{"x", "y"}, "z"); err == nil {
		t.Fatal("accepted unknown target")
	}
	if _, err := New([]string{"x", "x"}, "x"); err == nil {
		t.Fatal("accepted duplicate columns")
	}
	d, err := New([]string{"a", "b", "c"}, "b")
	if err != nil {
		t.Fatal(err)
	}
	if d.TargetIndex() != 1 || d.TargetName() != "b" || d.Dims() != 3 {
		t.Fatalf("schema wrong: %v", d)
	}
}

func TestAppendValidation(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	if err := d.Append([]float64{1}); err == nil {
		t.Fatal("accepted short row")
	}
	if err := d.Append([]float64{1, math.NaN()}); err == nil {
		t.Fatal("accepted NaN")
	}
	if err := d.Append([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("accepted Inf")
	}
	if err := d.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestAppendCopies(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	row := []float64{1, 2}
	d.MustAppend(row)
	row[0] = 99
	if d.Row(0)[0] != 1 {
		t.Fatal("Append aliases caller slice")
	}
}

func TestColumnAccess(t *testing.T) {
	d := twoColDataset(t, [][]float64{{1, 10}, {2, 20}, {3, 30}})
	xs, err := d.Column("x")
	if err != nil {
		t.Fatal(err)
	}
	if xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("Column x = %v", xs)
	}
	if _, err := d.Column("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if d.ColumnIndex("y") != 1 || d.ColumnIndex("zz") != -1 {
		t.Fatal("ColumnIndex wrong")
	}
}

func TestXY(t *testing.T) {
	d := MustNew([]string{"a", "t", "b"}, "t")
	d.MustAppend([]float64{1, 100, 2})
	d.MustAppend([]float64{3, 200, 4})
	x, y := d.View().XY()
	if len(x) != 2 || len(x[0]) != 2 || x[0][0] != 1 || x[0][1] != 2 || x[1][0] != 3 || x[1][1] != 4 {
		t.Fatalf("X = %v", x)
	}
	if y[0] != 100 || y[1] != 200 {
		t.Fatalf("Y = %v", y)
	}
}

func TestCloneMergeSubset(t *testing.T) {
	d := twoColDataset(t, [][]float64{{1, 10}, {2, 20}})
	c := d.Clone()
	c.Row(0)[0] = 99
	if d.Row(0)[0] != 1 {
		t.Fatal("Clone aliases rows")
	}
	other := twoColDataset(t, [][]float64{{3, 30}})
	if err := d.Merge(other); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("merged Len = %d", d.Len())
	}
	diff := MustNew([]string{"x", "z"}, "z")
	if err := d.Merge(diff); err == nil {
		t.Fatal("merged different schema")
	}
	sub := d.ViewOf([]int{2, 0})
	if sub.Len() != 2 || sub.Row(0)[0] != 3 || sub.Row(1)[0] != 1 {
		t.Fatalf("Subset wrong: %v %v", sub.Row(0), sub.Row(1))
	}
}

func TestBoundsAndFilter(t *testing.T) {
	d := twoColDataset(t, [][]float64{{1, 10}, {5, 50}, {3, 30}})
	b, ok := d.Bounds()
	if !ok {
		t.Fatal("expected bounds")
	}
	if b.Min[0] != 1 || b.Max[0] != 5 || b.Min[1] != 10 || b.Max[1] != 50 {
		t.Fatalf("Bounds = %v", b)
	}
	if _, ok := MustNew([]string{"x", "y"}, "y").Bounds(); ok {
		t.Fatal("empty dataset has bounds")
	}
	rect := geometry.MustRect([]float64{2, 0}, []float64{4, 100})
	filtered := d.FilterInRect(rect)
	if filtered.Len() != 1 || filtered.Row(0)[0] != 3 {
		t.Fatalf("FilterInRect = %v", filtered)
	}
}

func TestSplit(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	for i := 0; i < 100; i++ {
		d.MustAppend([]float64{float64(i), float64(i)})
	}
	train, test := d.Split(0.2, rng.New(1))
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Deterministic for the same seed.
	train2, _ := d.Split(0.2, rng.New(1))
	if train2.Row(0)[0] != train.Row(0)[0] {
		t.Fatal("split not deterministic")
	}
	// Disjoint and covering.
	seen := map[float64]int{}
	for i := 0; i < train.Len(); i++ {
		seen[train.Row(i)[0]]++
	}
	for i := 0; i < test.Len(); i++ {
		seen[test.Row(i)[0]]++
	}
	if len(seen) != 100 {
		t.Fatalf("split lost rows: %d unique", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("row %v appears %d times", v, c)
		}
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	d := twoColDataset(t, [][]float64{{1, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Split(1.0, rng.New(1))
}

func TestProject(t *testing.T) {
	d := MustNew([]string{"a", "b", "c"}, "c")
	d.MustAppend([]float64{1, 2, 3})
	p, err := d.Project([]string{"c", "a"}, "c")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims() != 2 || p.Row(0)[0] != 3 || p.Row(0)[1] != 1 {
		t.Fatalf("Project row = %v", p.Row(0))
	}
	if p.TargetName() != "c" {
		t.Fatalf("target = %s", p.TargetName())
	}
	if _, err := d.Project([]string{"zz"}, "zz"); err == nil {
		t.Fatal("projected unknown column")
	}
}

func TestSplitTemporal(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	for i := 0; i < 10; i++ {
		d.MustAppend([]float64{float64(i), 0})
	}
	train, test := d.SplitTemporal(0.3)
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Order preserved: training is the prefix, test the suffix.
	if train.Row(0)[0] != 0 || train.Row(6)[0] != 6 {
		t.Fatalf("train rows reordered: %v ... %v", train.Row(0), train.Row(6))
	}
	if test.Row(0)[0] != 7 || test.Row(2)[0] != 9 {
		t.Fatalf("test rows wrong: %v ... %v", test.Row(0), test.Row(2))
	}
}

func TestSplitTemporalPanics(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	d.MustAppend([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SplitTemporal(-0.1)
}
