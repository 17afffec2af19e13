package plan

import (
	"context"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"qens/internal/rng"
	"qens/internal/selection"
)

// legacyKey reimplements the pre-memoization fingerprint rendering so
// the format stays pinned: memoizing must not change a single byte of
// the key EXPLAIN shows.
func legacyKey(pl *Plan) string {
	var b strings.Builder
	b.WriteByte('e')
	b.WriteString(strconv.FormatUint(pl.Epoch, 10))
	b.WriteByte('|')
	b.WriteString(pl.Selector)
	for _, p := range pl.Participants {
		b.WriteByte('|')
		b.WriteString(p.NodeID)
		if p.Clusters != nil {
			b.WriteByte(':')
			for j, c := range p.Clusters {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(c))
			}
		}
	}
	return b.String()
}

// TestPlanKeyFormatPinned: the memoized key matches the legacy
// rendering byte-for-byte across selectors, and the memo survives
// repeated calls but not Release/replan.
func TestPlanKeyFormatPinned(t *testing.T) {
	summaries := synthSummaries(40, 4, 3, 21)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	planner := NewPlanner(reg)
	q := randomQuery("keyfmt", 3, rng.New(5))
	sels := []selection.Selector{
		selection.QueryDriven{Epsilon: 0.1, TopL: 5},
		selection.QueryDriven{Epsilon: 0.1, Psi: 0.8},
		selection.AllNodes{},
	}
	for _, sel := range sels {
		pl, err := planner.PlanOn(snap, q, sel, nil)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		want := legacyKey(pl)
		if got := pl.Key(); got != want {
			t.Fatalf("%s: key %q != legacy %q", sel.Name(), got, want)
		}
		if again := pl.Key(); again != want {
			t.Fatalf("%s: memoized key %q != first %q", sel.Name(), again, want)
		}
		pl.Release()
	}
}

// TestPlanKeyZeroAlloc pins the memoization: after the first render,
// repeated Key() calls on a live plan must not allocate.
func TestPlanKeyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	summaries := synthSummaries(100, 5, 4, 77)
	reg := staticRegistry(t, summaries)
	snap, err := reg.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	planner := NewPlanner(reg)
	q := randomQuery("keyalloc", 4, rng.New(9))
	var sel selection.Selector = selection.QueryDriven{Epsilon: 0.1, TopL: 5}
	pl, err := planner.PlanOn(snap, q, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Release()

	// Prime the memo (the single allowed string copy), then measure.
	if pl.Key() == "" {
		t.Fatal("empty key")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		if pl.Key() == "" {
			panic("empty key")
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized Key allocates %.1f objects/op, want 0", allocs)
	}
}
