package dataset

import (
	"math"
	"testing"

	"qens/internal/rng"
)

func TestSyntheticAirQualityShape(t *testing.T) {
	cfg := Config{Nodes: 4, SamplesPerNode: 300, Seed: 1}
	nodes, err := SyntheticAirQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	for i, d := range nodes {
		if d.Len() != 300 {
			t.Fatalf("node %d has %d samples", i, d.Len())
		}
		if d.Dims() != len(AirQualityColumns) {
			t.Fatalf("node %d has %d columns", i, d.Dims())
		}
		if d.TargetName() != AirQualityTarget {
			t.Fatalf("node %d target %s", i, d.TargetName())
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := Config{Nodes: 2, SamplesPerNode: 100, Seed: 42}
	a, err := SyntheticAirQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticAirQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := range a {
		for i := 0; i < a[n].Len(); i++ {
			ra, rb := a[n].Row(i), b[n].Row(i)
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("node %d row %d col %d differs", n, i, j)
				}
			}
		}
	}
	// A different seed must give different data.
	c, _ := SyntheticAirQuality(Config{Nodes: 2, SamplesPerNode: 100, Seed: 43})
	if c[0].Row(0)[0] == a[0].Row(0)[0] && c[0].Row(1)[0] == a[0].Row(1)[0] {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []Config{
		{Nodes: -1},
		{SamplesPerNode: -5},
		{Heterogeneity: 2},
		{FlipFraction: -0.1},
	}
	for _, cfg := range bad {
		if _, err := SyntheticAirQuality(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSyntheticPhysicalRanges(t *testing.T) {
	nodes, err := SyntheticAirQuality(Config{Nodes: 3, SamplesPerNode: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range nodes {
		pm, _ := d.Column("PM2.5")
		rain, _ := d.Column("RAIN")
		wspm, _ := d.Column("WSPM")
		pm10, _ := d.Column("PM10")
		for i := range pm {
			if pm[i] < 1 {
				t.Fatalf("PM2.5 %v below floor", pm[i])
			}
			if rain[i] < 0 || wspm[i] < 0 {
				t.Fatalf("negative rain/wind at %d", i)
			}
			if pm10[i] < pm[i] {
				t.Fatalf("PM10 %v < PM2.5 %v", pm10[i], pm[i])
			}
		}
	}
}

// Homogeneous configs must produce nodes with near-identical ranges;
// heterogeneous configs must produce visibly shifted ranges. This is
// the property Tables I and II rest on.
func TestHomogeneousVsHeterogeneousSpread(t *testing.T) {
	spread := func(cfg Config) float64 {
		nodes, err := SyntheticAirQuality(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var means []float64
		for _, d := range nodes {
			pm, _ := d.Column("PM2.5")
			sum := 0.0
			for _, v := range pm {
				sum += v
			}
			means = append(means, sum/float64(len(pm)))
		}
		lo, hi := means[0], means[0]
		for _, m := range means[1:] {
			lo = math.Min(lo, m)
			hi = math.Max(hi, m)
		}
		return hi - lo
	}
	homo := spread(Config{Nodes: 10, SamplesPerNode: 2000, Seed: 1, Heterogeneity: 0.02})
	hetero := spread(Config{Nodes: 10, SamplesPerNode: 2000, Seed: 1, Heterogeneity: 1, FlipFraction: 0.3})
	if hetero < 3*homo {
		t.Fatalf("heterogeneous spread %v not clearly larger than homogeneous %v", hetero, homo)
	}
}

// The flip fraction must actually flip the empirical TEMP->PM2.5
// regression slope on the trailing nodes (the paper's Fig. 2 scenario).
func TestFlippedRegressionSlopes(t *testing.T) {
	cfg := Config{Nodes: 5, SamplesPerNode: 1500, Seed: 3, Heterogeneity: 0.8, FlipFraction: 0.2}
	nodes, err := SyntheticAirQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slope := func(d *Dataset) float64 {
		temp, _ := d.Column("TEMP")
		pm, _ := d.Column("PM2.5")
		mt, mp := mean(temp), mean(pm)
		num, den := 0.0, 0.0
		for i := range temp {
			num += (temp[i] - mt) * (pm[i] - mp)
			den += (temp[i] - mt) * (temp[i] - mt)
		}
		return num / den
	}
	// First node: positive slope; last node: flipped, negative.
	if s := slope(nodes[0]); s <= 0 {
		t.Fatalf("node 0 slope %v, want positive", s)
	}
	if s := slope(nodes[4]); s >= 0 {
		t.Fatalf("node 4 slope %v, want negative (flipped)", s)
	}
}

func TestPaperNodeDatasets(t *testing.T) {
	nodes, err := PaperNodeDatasets(Config{Nodes: 3, SamplesPerNode: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range nodes {
		if d.Dims() != 2 {
			t.Fatalf("paper node dataset has %d dims, want 2", d.Dims())
		}
		if d.TargetName() != "PM2.5" {
			t.Fatalf("target %s", d.TargetName())
		}
		if d.Len() != 100 {
			t.Fatalf("len %d", d.Len())
		}
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestCorruptTarget(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	src := rng.New(60)
	for i := 0; i < 200; i++ {
		x := src.Uniform(0, 10)
		d.MustAppend([]float64{x, 3 * x})
	}
	corrupt, err := d.CorruptTarget(rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	// Features untouched.
	for i := 0; i < d.Len(); i++ {
		if corrupt.Row(i)[0] != d.Row(i)[0] {
			t.Fatal("feature column changed")
		}
	}
	// Original untouched (copy semantics).
	if d.Row(0)[1] != 3*d.Row(0)[0] {
		t.Fatal("original mutated")
	}
	// Labels decorrelated: correlation with x must collapse.
	xs, _ := corrupt.Column("x")
	ys, _ := corrupt.Column("y")
	mx, my := mean(xs), mean(ys)
	num, dx, dy := 0.0, 0.0, 0.0
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		dx += (xs[i] - mx) * (xs[i] - mx)
		dy += (ys[i] - my) * (ys[i] - my)
	}
	if corr := num / math.Sqrt(dx*dy); math.Abs(corr) > 0.3 {
		t.Fatalf("corrupted labels still correlated: %v", corr)
	}
	// Range preserved.
	lo, hi := ys[0], ys[0]
	for _, v := range ys {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo < -1 || hi > 31 {
		t.Fatalf("noise range [%v,%v] escapes original [0,30]", lo, hi)
	}
}

func TestCorruptTargetEmpty(t *testing.T) {
	d := MustNew([]string{"x", "y"}, "y")
	if _, err := d.CorruptTarget(rng.New(1)); err == nil {
		t.Fatal("corrupted empty dataset")
	}
}
