//go:build !race

package cluster

import (
	"runtime"
	"testing"

	"qens/internal/rng"
)

// TestRequantizeRowBytes: a stream requantization reads the dataset's
// rows in place. Over a 3000-row, two-column dataset it may allocate
// at most 24 bytes a row: the assignment slice, member lists sized
// exactly (16 bytes a row between them) and the per-cluster bounds,
// and no per-row header.
func TestRequantizeRowBytes(t *testing.T) {
	const rows, runs = 3000, 20
	d := pinDataset(rows, 0, 17)
	base, err := Quantize(d, Config{K: 5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sq, err := NewStreamQuantizer(base.Result)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := sq.Requantize(d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * rows)
	if perRow > 24 {
		t.Fatalf("Requantize over %d two-column rows allocates %.1f bytes a row, want <= 24", rows, perRow)
	}
	t.Logf("%.1f bytes a row", perRow)
}

// TestGridQuantizeRowAllocs: a grid cell is keyed by an integer, so
// quantizing 3000 rows at 3 buckets a dimension allocates per cell,
// not per row.
func TestGridQuantizeRowAllocs(t *testing.T) {
	const rows = 3000
	d := pinDataset(rows, 0, 17)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := GridQuantize(d, 3); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 0.1 {
		t.Fatalf("GridQuantize over %d rows at 3 buckets makes %.0f allocations, %.3f a row, want <= 0.1", rows, allocs, perRow)
	}
	t.Logf("%.0f allocations", allocs)
}
