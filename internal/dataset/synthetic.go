package dataset

import (
	"fmt"
	"math"

	"qens/internal/rng"
)

// Synthetic Beijing Multi-Site Air-Quality generator.
//
// The paper evaluates on 10 files of the UCI "Beijing Multi-Site
// Air-Quality Data" set, one file per monitoring site, one site per
// edge node. That data cannot be downloaded in this offline build, so
// this generator produces a statistically analogous corpus: hourly
// weather and pollution features with seasonal and diurnal structure,
// plus controllable *per-site distribution shift* — different value
// ranges, different pollution/temperature regression slopes, and
// optionally sign-flipped slopes (the heterogeneity the paper's §II
// motivates with its Fig. 2). The node-selection mechanism only
// observes cluster bounding boxes and data ranges, so reproducing the
// range/correlation structure preserves the experiments' behaviour.

// AirQualityColumns is the generated schema. PM2.5 is the target,
// mirroring the usual use of the UCI set; the remaining columns are
// the UCI weather/pollution features.
var AirQualityColumns = []string{
	"TEMP", "PRES", "DEWP", "RAIN", "WSPM",
	"PM10", "SO2", "NO2", "CO", "O3", "PM2.5",
}

// AirQualityTarget is the target column name.
const AirQualityTarget = "PM2.5"

// SiteNames are the 12 UCI monitoring sites; the first cfg.Nodes are
// used (the paper selects 10 of the 12 files).
var SiteNames = []string{
	"Aotizhongxin", "Changping", "Dingling", "Dongsi", "Guanyuan",
	"Gucheng", "Huairou", "Nongzhanguan", "Shunyi", "Tiantan",
	"Wanliu", "Wanshouxigong",
}

// Config controls the synthetic corpus.
type Config struct {
	// Nodes is the number of edge nodes / monitoring sites
	// (default 10, the paper's N).
	Nodes int
	// SamplesPerNode is the number of hourly samples per site
	// (default 2000).
	SamplesPerNode int
	// Seed makes the corpus reproducible.
	Seed uint64
	// Heterogeneity in [0, 1] controls how strongly site data
	// distributions diverge: 0 produces near-identical sites (the
	// Table I regime), 1 produces strongly shifted ranges and
	// slopes (the Table II regime). Default 0.6.
	Heterogeneity float64
	// FlipFraction in [0, 1] is the fraction of sites whose
	// pollution/temperature regression slope is sign-flipped, the
	// §II "negative in one participant and positive in the other"
	// scenario. Default 0.2 when Heterogeneity > 0.5, else 0.
	FlipFraction float64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.SamplesPerNode == 0 {
		c.SamplesPerNode = 2000
	}
	if c.Heterogeneity == 0 {
		c.Heterogeneity = 0.6
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Nodes < 1 {
		return fmt.Errorf("dataset: config needs at least one node, got %d", c.Nodes)
	}
	if c.SamplesPerNode < 1 {
		return fmt.Errorf("dataset: config needs at least one sample per node, got %d", c.SamplesPerNode)
	}
	if c.Heterogeneity < 0 || c.Heterogeneity > 1 {
		return fmt.Errorf("dataset: heterogeneity %v outside [0,1]", c.Heterogeneity)
	}
	if c.FlipFraction < 0 || c.FlipFraction > 1 {
		return fmt.Errorf("dataset: flip fraction %v outside [0,1]", c.FlipFraction)
	}
	return nil
}

// siteProfile is the latent per-site generative state.
type siteProfile struct {
	name          string
	tempBase      float64 // long-run mean temperature, °C
	tempAmplitude float64 // seasonal swing
	pollBase      float64 // baseline PM2.5 level
	pollSlope     float64 // dPM2.5 / dTEMP, possibly negative
	windDamping   float64 // dPM2.5 / dWSPM
	noise         float64 // observation noise scale
	phase         float64 // seasonal phase offset
}

// SyntheticAirQuality generates one dataset per node over the full
// AirQualityColumns schema.
func SyntheticAirQuality(cfg Config) ([]*Dataset, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	profiles := siteProfiles(cfg, root.Split())
	streams := root.SplitN(cfg.Nodes)

	out := make([]*Dataset, cfg.Nodes)
	for i := range out {
		d, err := generateSite(profiles[i], cfg.SamplesPerNode, streams[i])
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// siteProfiles draws the latent site parameters. Heterogeneity widens
// every per-site deviation; FlipFraction flips the pollution slope of
// the trailing sites deterministically (so "node 9 is the adversarial
// one" is stable across runs with the same config).
func siteProfiles(cfg Config, src *rng.Source) []siteProfile {
	h := cfg.Heterogeneity
	nFlip := int(math.Round(cfg.FlipFraction * float64(cfg.Nodes)))
	profiles := make([]siteProfile, cfg.Nodes)
	for i := range profiles {
		name := fmt.Sprintf("site-%d", i)
		if i < len(SiteNames) {
			name = SiteNames[i]
		}
		p := siteProfile{
			name:          name,
			tempBase:      13 + src.Uniform(-12*h, 12*h),
			tempAmplitude: 11 + src.Uniform(-5*h, 5*h),
			pollBase:      80 + src.Uniform(-55*h, 55*h),
			pollSlope:     2.2 + src.Uniform(-1.6*h, 1.6*h),
			windDamping:   8 + src.Uniform(-5*h, 5*h),
			noise:         6 + src.Uniform(0, 10*h),
			phase:         src.Uniform(0, 2*math.Pi*h*0.25),
		}
		if p.pollBase < 10 {
			p.pollBase = 10
		}
		if i >= cfg.Nodes-nFlip {
			p.pollSlope = -p.pollSlope
			// A flipped site also lives in a shifted range so that
			// its cluster rectangles barely overlap typical queries.
			p.pollBase += 140 * h
		}
		profiles[i] = p
	}
	return profiles
}

// generateSite simulates hourly observations for one site.
func generateSite(p siteProfile, samples int, src *rng.Source) (*Dataset, error) {
	d, err := New(AirQualityColumns, AirQualityTarget)
	if err != nil {
		return nil, err
	}
	const hoursPerYear = 24 * 365
	for t := 0; t < samples; t++ {
		season := math.Sin(2*math.Pi*float64(t)/hoursPerYear + p.phase)
		diurnal := math.Sin(2 * math.Pi * float64(t) / 24)

		temp := p.tempBase + p.tempAmplitude*season + 4*diurnal + src.Normal(0, 2.5)
		pres := 1012 - 0.55*(temp-12) + src.Normal(0, 3)
		dewp := temp - src.Uniform(4, 16) + src.Normal(0, 1.5)
		rain := 0.0
		if src.Bool(0.07) {
			rain = src.Exponential(0.8)
		}
		wspm := math.Abs(src.Normal(1.8, 1.2))

		pm25 := p.pollBase + p.pollSlope*(temp-p.tempBase) -
			p.windDamping*wspm - 12*math.Min(rain, 3) + src.Normal(0, p.noise)
		if pm25 < 1 {
			pm25 = 1
		}

		pm10 := 1.25*pm25 + src.Normal(20, 8)
		if pm10 < pm25 {
			pm10 = pm25
		}
		so2 := math.Max(1, 0.12*pm25+src.Normal(8, 3))
		no2 := math.Max(1, 0.35*pm25+src.Normal(22, 6))
		co := math.Max(100, 9*pm25+src.Normal(450, 120))
		o3 := math.Max(1, 60+2.1*(temp-10)-0.25*pm25+src.Normal(0, 9))

		if err := d.Append([]float64{temp, pres, dewp, rain, wspm, pm10, so2, no2, co, o3, pm25}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// PaperNodeDatasets generates the reduced per-node datasets the
// paper's experiments actually use: "for each node, we focused on one
// important feature and labels" (§V-A). Each node dataset has exactly
// two columns, TEMP (the driving feature) and PM2.5 (the label), drawn
// from the full simulation so the per-site shift structure is intact.
func PaperNodeDatasets(cfg Config) ([]*Dataset, error) {
	full, err := SyntheticAirQuality(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*Dataset, len(full))
	for i, d := range full {
		reduced, err := d.Project([]string{"TEMP", "PM2.5"}, "PM2.5")
		if err != nil {
			return nil, err
		}
		out[i] = reduced
	}
	return out, nil
}

// CorruptTarget returns a copy of the dataset whose target column is
// replaced by uniform noise spanning the original target range —
// simulating a node with a broken or miscalibrated sensor. The feature
// columns are untouched, so the node still advertises plausible
// feature ranges; only the label signal is destroyed.
func (d *Dataset) CorruptTarget(src *rng.Source) (*Dataset, error) {
	if d.Len() == 0 {
		return nil, ErrEmpty
	}
	vals, err := d.Column(d.TargetName())
	if err != nil {
		return nil, err
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	out := d.Clone()
	ti := out.TargetIndex()
	for i := 0; i < out.Len(); i++ {
		out.data[i*out.Dims()+ti] = src.Uniform(lo, hi)
	}
	return out, nil
}

// Project returns a dataset containing only the named columns, with
// the given target. All requested columns must exist.
func (d *Dataset) Project(columns []string, target string) (*Dataset, error) {
	indices := make([]int, len(columns))
	for i, c := range columns {
		idx := d.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q", ErrColumnUnknown, c)
		}
		indices[i] = idx
	}
	out, err := New(columns, target)
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(columns))
	for i := range d.Len() {
		r := d.Row(i)
		for j, idx := range indices {
			row[j] = r[idx]
		}
		if err := out.Append(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}
