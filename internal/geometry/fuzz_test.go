package geometry

import (
	"math"
	"testing"

	"qens/internal/rng"
)

// Fuzz targets complement the property tests: Go's mutation engine
// explores the numeric edge cases (denormals, signed zeros, huge
// magnitudes) that quick.Check's generator rarely emits. Seeds run as
// part of the normal test suite.

func FuzzIntervalOverlap(f *testing.F) {
	f.Add(0.0, 10.0, 2.0, 4.0)
	f.Add(5.0, 15.0, 0.0, 10.0)
	f.Add(-5.0, 5.0, 0.0, 10.0)
	f.Add(11.0, 20.0, 0.0, 10.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.SmallestNonzeroFloat64, 1.0, 0.0, math.MaxFloat64/4)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		qmin, qmax := math.Min(a, b), math.Max(a, b)
		kmin, kmax := math.Min(c, d), math.Max(c, d)
		h, oc := IntervalOverlap(qmin, qmax, kmin, kmax)
		if h < 0 || h > 1 || math.IsNaN(h) {
			t.Fatalf("overlap %v outside [0,1] for q=[%v,%v] k=[%v,%v]", h, qmin, qmax, kmin, kmax)
		}
		// Zero cases must coincide with disjointness.
		disjoint := qmin > kmax || qmax < kmin
		if disjoint && h != 0 {
			t.Fatalf("disjoint intervals scored %v", h)
		}
		if (oc == CaseZeroLeft || oc == CaseZeroRight) != disjoint {
			t.Fatalf("case %v inconsistent with disjoint=%v", oc, disjoint)
		}
	})
}

// FuzzRTreePrune drives random fleets and probes through the pruned
// candidate walk and checks the planner's soundness contract: the
// candidate set is exactly the brute-force predicate set, and in
// particular a superset of every entry whose Eq. 2 mean-overlap rate
// clears ε — so pruning can never change a query-driven ranking.
func FuzzRTreePrune(f *testing.F) {
	f.Add(uint64(1), 2, 50, 10.0, 20.0, 0.5)
	f.Add(uint64(7), 4, 200, -5.0, 3.0, 0.25)
	f.Add(uint64(42), 1, 10, 0.0, 0.1, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, dims, n int, origin, width, eps float64) {
		if dims < 1 || dims > 8 || n < 1 || n > 512 {
			t.Skip()
		}
		for _, v := range []float64{origin, width, eps} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		entries := randomEntries(n, dims, seed)
		tree, err := BuildRTree(entries, 0)
		if err != nil {
			t.Fatal(err)
		}
		min := make([]float64, dims)
		max := make([]float64, dims)
		for d := 0; d < dims; d++ {
			min[d] = origin + float64(d)
			max[d] = min[d] + math.Abs(width)
		}
		probe := MustRect(min, max)

		got, err := tree.AppendOverlapCandidates(probe, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[int]bool, len(got))
		for _, id := range got {
			if in[id] {
				t.Fatalf("candidate %d emitted twice", id)
			}
			in[id] = true
		}
		want := brutePruneCandidates(entries, probe, eps)
		if len(want) != len(got) {
			t.Fatalf("%d candidates vs %d brute", len(got), len(want))
		}
		for _, id := range want {
			if !in[id] {
				t.Fatalf("brute candidate %d missing from tree walk", id)
			}
		}
		for _, e := range entries {
			if rate := OverlapRate(probe, e.Rect); rate >= eps && !in[e.ID] {
				t.Fatalf("entry %d scores %v >= eps %v but was pruned", e.ID, rate, eps)
			}
		}
	})
}

func FuzzIoU(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 5.0, 5.0, 15.0, 15.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				t.Skip()
			}
		}
		a := MustRect(
			[]float64{math.Min(ax, bx), math.Min(ay, by)},
			[]float64{math.Max(ax, bx), math.Max(ay, by)})
		b := MustRect(
			[]float64{math.Min(cx, dx), math.Min(cy, dy)},
			[]float64{math.Max(cx, dx), math.Max(cy, dy)})
		iou := IoU(a, b)
		if iou < 0 || iou > 1 || math.IsNaN(iou) {
			t.Fatalf("IoU %v outside [0,1]", iou)
		}
		// Symmetry.
		if rev := IoU(b, a); math.Abs(rev-iou) > 1e-12 {
			t.Fatalf("IoU asymmetric: %v vs %v", iou, rev)
		}
		if !a.Intersects(b) && iou != 0 {
			t.Fatalf("disjoint rects IoU %v", iou)
		}
	})
}

// FuzzCoverageProfile holds CoverageProfile.Coverage bit-equal to the
// QueryCoverageFlat reference over fuzzer-chosen rectangle sets and
// queries. Corners are snapped to a coarse lattice for odd seeds so the
// engine reaches touching and zero-width intervals, not only generic
// ones.
func FuzzCoverageProfile(f *testing.F) {
	f.Add(uint64(1), 2, 6, 0.0, 10.0, 3.0, 3.0)
	f.Add(uint64(2), 1, 3, 5.0, 0.0, 0.0, 0.0)     // point query
	f.Add(uint64(3), 3, 40, -20.0, 60.0, 1.0, 8.0) // past the stack scratch
	f.Add(uint64(9), 2, 1, 4.0, 4.0, 4.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, dims, n int, q0, w0, q1, w1 float64) {
		if dims < 1 || dims > 6 || n < 1 || n > 64 {
			t.Skip()
		}
		for _, v := range []float64{q0, w0, q1, w1} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		src := rng.New(seed)
		mins, maxs := gridRects(src, n, dims, seed%2 == 1)
		p, err := NewCoverageProfile(dims, mins, maxs)
		if err != nil {
			t.Fatal(err)
		}
		qmin, qmax := make([]float64, dims), make([]float64, dims)
		for d := range qmin {
			lo, w := q0, w0
			if d%2 == 1 {
				lo, w = q1, w1
			}
			qmin[d], qmax[d] = lo, lo+math.Abs(w)
		}
		assertProfileMatchesFlat(t, p, qmin, qmax, mins, maxs)
		// A query cut from the set itself lands exactly on span bounds.
		k := src.Intn(n) * dims
		assertProfileMatchesFlat(t, p, mins[k:k+dims], maxs[k:k+dims], mins, maxs)
	})
}
