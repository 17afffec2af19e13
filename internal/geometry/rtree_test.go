package geometry

import (
	"sort"
	"testing"
	"testing/quick"

	"qens/internal/rng"
)

// randomEntries generates n random rectangles in [0,100]^dims.
func randomEntries(n, dims int, seed uint64) []Entry {
	src := rng.New(seed)
	out := make([]Entry, n)
	for i := range out {
		min := make([]float64, dims)
		max := make([]float64, dims)
		for d := 0; d < dims; d++ {
			a := src.Uniform(0, 95)
			min[d] = a
			max[d] = a + src.Uniform(0.1, 10)
		}
		out[i] = Entry{Rect: MustRect(min, max), ID: i}
	}
	return out
}

// bruteIntersecting returns the IDs of entries intersecting the probe.
func bruteIntersecting(entries []Entry, probe Rect) []int {
	var ids []int
	for _, e := range entries {
		if e.Rect.Intersects(probe) {
			ids = append(ids, e.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func treeIntersecting(t *testing.T, tree *RTree, probe Rect) []int {
	t.Helper()
	var ids []int
	if err := tree.Search(probe, func(e Entry) bool {
		ids = append(ids, e.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Ints(ids)
	return ids
}

func TestBuildRTreeValidation(t *testing.T) {
	if _, err := BuildRTree(nil, 0); err == nil {
		t.Fatal("accepted empty entries")
	}
	if _, err := BuildRTree(randomEntries(5, 2, 1), 1); err == nil {
		t.Fatal("accepted fill < 2")
	}
	mixed := []Entry{
		{Rect: MustRect([]float64{0}, []float64{1}), ID: 0},
		{Rect: MustRect([]float64{0, 0}, []float64{1, 1}), ID: 1},
	}
	if _, err := BuildRTree(mixed, 0); err == nil {
		t.Fatal("accepted mixed dimensionalities")
	}
	bad := []Entry{{Rect: Rect{Min: []float64{1}, Max: []float64{0}}, ID: 0}}
	if _, err := BuildRTree(bad, 0); err == nil {
		t.Fatal("accepted invalid rectangle")
	}
}

func TestRTreeMatchesBruteForce(t *testing.T) {
	entries := randomEntries(500, 2, 2)
	tree, err := BuildRTree(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 500 || tree.Dims() != 2 {
		t.Fatalf("tree meta %d/%d", tree.Len(), tree.Dims())
	}
	src := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		a, b := src.Uniform(0, 80), src.Uniform(0, 80)
		probe := MustRect([]float64{a, b}, []float64{a + src.Uniform(1, 30), b + src.Uniform(1, 30)})
		want := bruteIntersecting(entries, probe)
		got := treeIntersecting(t, tree, probe)
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: result mismatch", trial)
			}
		}
	}
}

func TestRTreeHighDimensional(t *testing.T) {
	entries := randomEntries(200, 5, 4)
	tree, err := BuildRTree(entries, 8)
	if err != nil {
		t.Fatal(err)
	}
	probe := MustRect(
		[]float64{10, 10, 10, 10, 10},
		[]float64{60, 60, 60, 60, 60},
	)
	want := bruteIntersecting(entries, probe)
	got := treeIntersecting(t, tree, probe)
	if len(want) != len(got) {
		t.Fatalf("%d vs %d results", len(got), len(want))
	}
}

func TestRTreeSingleEntry(t *testing.T) {
	entries := []Entry{{Rect: MustRect([]float64{0, 0}, []float64{1, 1}), ID: 7}}
	tree, err := BuildRTree(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := treeIntersecting(t, tree, MustRect([]float64{0.5, 0.5}, []float64{2, 2}))
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v", got)
	}
	if got := treeIntersecting(t, tree, MustRect([]float64{5, 5}, []float64{6, 6})); len(got) != 0 {
		t.Fatalf("disjoint probe returned %v", got)
	}
}

func TestRTreeEarlyStop(t *testing.T) {
	entries := randomEntries(300, 2, 5)
	tree, _ := BuildRTree(entries, 0)
	visits := 0
	probe := MustRect([]float64{0, 0}, []float64{100, 100}) // hits everything
	if err := tree.Search(probe, func(Entry) bool {
		visits++
		return visits < 10
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 10 {
		t.Fatalf("early stop visited %d", visits)
	}
}

func TestRTreeDimMismatch(t *testing.T) {
	tree, _ := BuildRTree(randomEntries(10, 2, 6), 0)
	if err := tree.Search(MustRect([]float64{0}, []float64{1}), func(Entry) bool { return true }); err == nil {
		t.Fatal("accepted probe with wrong dims")
	}
}

// Property: the tree search result always equals brute force, across
// random entry sets and probes.
func TestRTreeEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		entries := randomEntries(int(seed%150)+20, 2, seed)
		tree, err := BuildRTree(entries, int(seed%13)+3)
		if err != nil {
			return false
		}
		src := rng.New(seed + 1)
		a, b := src.Uniform(0, 90), src.Uniform(0, 90)
		probe := MustRect([]float64{a, b}, []float64{a + 15, b + 15})
		want := bruteIntersecting(entries, probe)
		var got []int
		if err := tree.Search(probe, func(e Entry) bool {
			got = append(got, e.ID)
			return true
		}); err != nil {
			return false
		}
		sort.Ints(got)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
