package main

import (
	"bytes"
	"testing"
)

var testSpace = rect{Min: []float64{-10, 0}, Max: []float64{40, 500}}

func always(rect) (bool, error) { return true, nil }

func joined(t *testing.T, seed int64, replay bool, plannable func(rect) (bool, error)) []byte {
	t.Helper()
	reqs, err := generate(seed, testSpace, replay, 512, plannable)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs.bodies) != 512 || len(reqs.rects) != 512 {
		t.Fatalf("got %d bodies, %d rects, want 512", len(reqs.bodies), len(reqs.rects))
	}
	return bytes.Join(reqs.bodies, []byte("\n"))
}

// One seed gives a byte-identical request list twice; another seed
// gives a different one. --seed is the only source of randomness.
func TestGenerateIsSeeded(t *testing.T) {
	for _, replay := range []bool{false, true} {
		a, b, c := joined(t, 7, replay, always), joined(t, 7, replay, always), joined(t, 8, replay, always)
		if !bytes.Equal(a, b) {
			t.Errorf("replay=%v: seed 7 generated two different request lists", replay)
		}
		if bytes.Equal(a, c) {
			t.Errorf("replay=%v: seeds 7 and 8 generated the same request list", replay)
		}
	}
}

// Every rectangle the plan endpoint rejects is redrawn, so the final
// list holds none of them, and every rectangle stays inside the space
// with the width the workload promises.
func TestGenerateRedrawsUnplannable(t *testing.T) {
	rejected := 0
	narrow := func(r rect) (bool, error) {
		if r.Max[0]-r.Min[0] < 15 {
			rejected++
			return false, nil
		}
		return true, nil
	}
	reqs, err := generate(3, testSpace, false, 512, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if rejected == 0 {
		t.Fatal("the predicate rejected nothing; the test does not exercise redrawing")
	}
	for i, r := range reqs.rects {
		if ok, _ := narrow(r); !ok {
			t.Errorf("rectangle %d %v was rejected and kept", i, r)
		}
		for d := range r.Min {
			space := testSpace.Max[d] - testSpace.Min[d]
			if w := r.Max[d] - r.Min[d]; w < 0.2*space-1e-9 || w > 0.6*space+1e-9 {
				t.Errorf("rectangle %d: width %v of dim %d outside 20–60 %% of %v", i, w, d, space)
			}
			if r.Min[d] < testSpace.Min[d]-1e-9 || r.Max[d] > testSpace.Max[d]+1e-9 {
				t.Errorf("rectangle %d %v leaves the space", i, r)
			}
		}
	}
}

// The replay pattern starts with its anchors and keeps every
// sub-window inside one of them.
func TestReplayPattern(t *testing.T) {
	reqs, err := generate(5, testSpace, true, 256, always)
	if err != nil {
		t.Fatal(err)
	}
	anchors := reqs.rects[:replayAnchors]
	for i, r := range reqs.rects[replayAnchors:] {
		i += replayAnchors
		if i%4 == 0 {
			continue // cold scan
		}
		inside := false
		for _, a := range anchors {
			if r.Min[0] > a.Min[0] && r.Max[0] < a.Max[0] && r.Min[1] == a.Min[1] && r.Max[1] == a.Max[1] {
				inside = true
			}
		}
		if !inside {
			t.Errorf("rectangle %d %v is not a sub-window of any anchor", i, r)
		}
	}
}

func TestRowGenShifts(t *testing.T) {
	boxes := []box{{rect: rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, size: 3}, {rect: rect{Min: []float64{20, 20}, Max: []float64{30, 40}}, size: 1}}
	a, b := newRowGen(1, boxes).rows(200, false), newRowGen(1, boxes).rows(200, true)
	for i := range a {
		in := func(r []float64, bx box) bool {
			return r[0] >= bx.Min[0] && r[0] <= bx.Max[0] && r[1] >= bx.Min[1] && r[1] <= bx.Max[1]
		}
		if !in(a[i], boxes[0]) && !in(a[i], boxes[1]) {
			t.Fatalf("row %d %v lies outside every advertised cluster", i, a[i])
		}
		if b[i][0] <= a[i][0] || b[i][1] <= a[i][1] {
			t.Fatalf("row %d: shifted %v is not displaced from %v", i, b[i], a[i])
		}
	}
}
