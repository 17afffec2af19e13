package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"qens/internal/dataset"
	"qens/internal/rng"
)

// pinDataset draws n two-column rows from a five-mode Gaussian mixture.
func pinDataset(n int, shift float64, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		m := float64(src.Intn(5))
		d.MustAppend([]float64{shift + m*20 + src.Normal(0, 3), shift - m*15 + src.Normal(0, 3)})
	}
	return d
}

// resultHash folds every field of a Result into one FNV-64a hash over
// the float bits: centroids, bounds, sizes, members, assignments,
// inertia and iterations.
func resultHash(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(vs []float64) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	ints := func(vs []int) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	put(uint64(len(res.Clusters)))
	for _, c := range res.Clusters {
		floats(c.Centroid)
		floats(c.Bounds.Min)
		floats(c.Bounds.Max)
		ints(c.Members)
		put(uint64(c.Size))
	}
	ints(res.Assignments)
	put(math.Float64bits(res.Inertia))
	put(uint64(res.Iterations))
	return h.Sum64()
}

// TestQuantizePinned pins the quantizers' results bit for bit: k-means
// at two seeds on a dataset large enough to take the parallel
// assignment path, a stream quantizer's absorb/requantize sequence
// (ending in a requantization that leaves one cluster empty), and the
// grid. A change to how the quantizers read their rows must leave
// every hash as it is.
func TestQuantizePinned(t *testing.T) {
	const n = 3000
	if n < assignParallelThreshold {
		t.Fatalf("%d rows do not cross assignParallelThreshold %d", n, assignParallelThreshold)
	}
	d := pinDataset(n, 0, 17)
	check := func(name string, res *Result, want uint64) {
		t.Helper()
		if got := resultHash(res); got != want {
			t.Errorf("%s: result hash %#x, want %#x", name, got, want)
		}
	}

	for _, c := range []struct {
		seed uint64
		want uint64
	}{{1, 0xc60e370feb9edb7c}, {2, 0xb81794ae551b73f8}} {
		q, err := Quantize(d, Config{K: 5}, rng.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Quantize seed %d", c.seed), q.Result, c.want)
	}

	base, err := Quantize(d, Config{K: 5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sq, err := NewStreamQuantizer(base.Result)
	if err != nil {
		t.Fatal(err)
	}
	data := d
	for i, c := range []struct {
		rows  int
		shift float64
		want  uint64
	}{{300, 4, 0x9e96212daf3cb5b0}, {300, 9, 0x5ded2abe7068f0d8}} {
		batch := pinDataset(c.rows, c.shift, uint64(20+i))
		rows := make([][]float64, batch.Len())
		for j := range rows {
			rows[j] = batch.Row(j)
		}
		if _, err := sq.Absorb(rows); err != nil {
			t.Fatal(err)
		}
		if data, err = data.CopyAppend(rows); err != nil {
			t.Fatal(err)
		}
		res, err := sq.Requantize(data)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Requantize step %d", i+1), res, c.want)
	}
	// Pull one centroid far from every row: requantizing the original
	// rows leaves its cluster empty, with bounds degenerate at it.
	far := make([][]float64, 2000)
	for j := range far {
		far[j] = []float64{5000, 5000}
	}
	if _, err := sq.Absorb(far); err != nil {
		t.Fatal(err)
	}
	res, err := sq.Requantize(d)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, c := range res.Clusters {
		if c.Size == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("%d empty clusters after the far batch, want 1", empty)
	}
	check("Requantize with an empty cluster", res, 0x95fb269ecbf91ad8)

	grid, err := GridQuantize(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("GridQuantize", grid.Result, 0x2d805b650a86b0e4)
}
