package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestHeterogeneitySweep(t *testing.T) {
	opts := quickOpts()
	opts.Queries = 10
	res, err := HeterogeneitySweep(opts, []float64{0.02, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	low, high := res.Points[0], res.Points[1]
	// The §II narrative: the mechanism's advantage over random grows
	// with heterogeneity.
	if high.Advantage <= low.Advantage {
		t.Fatalf("advantage did not grow: %v at h=0.02 vs %v at h=1", low.Advantage, high.Advantage)
	}
	// The pre-test must track the regimes.
	if low.Regime != "homogeneous" {
		t.Fatalf("low-heterogeneity regime %s", low.Regime)
	}
	if high.Regime != "heterogeneous" {
		t.Fatalf("high-heterogeneity regime %s", high.Regime)
	}
	if !strings.Contains(res.String(), "sweep") {
		t.Fatal("rendering broken")
	}
}

func TestHeterogeneitySweepValidation(t *testing.T) {
	if _, err := HeterogeneitySweep(quickOpts(), []float64{2}); err == nil {
		t.Fatal("accepted out-of-range level")
	}
}

func TestHeterogeneitySweepDefaults(t *testing.T) {
	opts := quickOpts()
	opts.Nodes = 4
	opts.SamplesPerNode = 200
	opts.Queries = 5
	res, err := HeterogeneitySweep(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("default sweep has %d points", len(res.Points))
	}
}

func TestTemporal(t *testing.T) {
	opts := quickOpts()
	opts.Queries = 15
	res, err := Temporal(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed["weighted"] == 0 || res.Executed["random"] == 0 {
		t.Fatalf("executed %+v", res.Executed)
	}
	// The mechanism's advantage must survive the time-ordered split.
	if res.Losses["weighted"] >= res.Losses["random"] {
		t.Fatalf("temporal: weighted %v not below random %v",
			res.Losses["weighted"], res.Losses["random"])
	}
	if !strings.Contains(res.String(), "Temporal") {
		t.Fatal("rendering broken")
	}
}

// TestReport holds the report's sections to the experiment table:
// one "## <title>" heading per entry with a title, in table order, and
// no other.
func TestReport(t *testing.T) {
	opts := quickOpts()
	opts.Queries = 8
	out, err := Report(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, e := range Experiments() {
		if e.Title != "" {
			want = append(want, e.Title)
		}
	}
	for _, line := range strings.Split(string(out), "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			got = append(got, title)
		}
	}
	if !strings.HasPrefix(string(out), "# QENS reproduction report\n") || !slices.Equal(got, want) {
		t.Fatalf("report sections %q, want %q", got, want)
	}
}
