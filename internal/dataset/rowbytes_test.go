//go:build !race

package dataset

import (
	"runtime"
	"testing"
)

// TestDatasetRowBytes: a dataset keeps one float64 per value and
// little else. The live heap a 100 000-row, two-column dataset built
// by Append holds after a collection must stay at or under 20 bytes a
// row, against 16 for the values alone.
func TestDatasetRowBytes(t *testing.T) {
	const rows = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := MustNew([]string{"x", "y"}, "y")
	for i := 0; i < rows; i++ {
		d.MustAppend([]float64{float64(i), float64(2 * i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / rows
	runtime.KeepAlive(d)
	if perRow > 20 {
		t.Fatalf("a %d-row two-column dataset holds %.1f live heap bytes a row, want <= 20", rows, perRow)
	}
	t.Logf("%.1f live heap bytes a row", perRow)
}
