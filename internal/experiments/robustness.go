package experiments

import (
	"fmt"
	"math"
	"strings"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Sensor-noise robustness: a fraction of nodes have broken sensors —
// their labels are uniform noise over the plausible range while their
// feature ranges still look normal. One might hope the mechanism has a
// structural defence: it clusters the *joint* (x, y) space, so a
// noisy node's clusters could overlap typical queries poorly. The
// measurement below shows the defence is only partial — k-means slices
// the noise into label-range slabs that can still satisfy ε — yet the
// query-driven arms retain their loss advantage over random selection,
// because matching on the clean nodes dominates the outcome. The
// CorruptSelected column makes the selection behaviour inspectable
// rather than assumed.

// RobustnessPoint is one corruption level's outcome.
type RobustnessPoint struct {
	CorruptFraction float64
	QueryDrivenLoss float64
	RandomLoss      float64
	// CorruptSelected is how often (fraction of selection slots) the
	// query-driven mechanism picked a corrupted node.
	CorruptSelected float64
}

// RobustnessResult is the corruption sweep.
type RobustnessResult struct {
	Points []RobustnessPoint
}

// String renders the sweep.
func (r RobustnessResult) String() string {
	var b strings.Builder
	b.WriteString("Sensor-noise robustness (corrupted-label nodes)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "corrupt=%3.0f%%  query-driven=%-10.2f random=%-10.2f corrupted picked %4.1f%% of slots\n",
			100*p.CorruptFraction, p.QueryDrivenLoss, p.RandomLoss, 100*p.CorruptSelected)
	}
	return b.String()
}

// NoiseRobustness sweeps the corrupted-node fraction (defaults 0,
// 0.2, 0.4).
func NoiseRobustness(opts Options, fractions []float64) (*RobustnessResult, error) {
	opts = opts.WithDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.2, 0.4}
	}
	out := &RobustnessResult{}
	for _, frac := range fractions {
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("experiments: corrupt fraction %v outside [0,1]", frac)
		}
		point, err := robustnessPoint(opts, frac)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness at %v: %w", frac, err)
		}
		out.Points = append(out.Points, *point)
	}
	return out, nil
}

func robustnessPoint(opts Options, frac float64) (*RobustnessPoint, error) {
	data, err := dataset.PaperNodeDatasets(opts.datasetConfig())
	if err != nil {
		return nil, err
	}
	nCorrupt := int(math.Round(frac * float64(len(data))))
	corrupted := map[string]bool{}
	noise := rng.New(opts.Seed + 77)
	for i := len(data) - nCorrupt; i < len(data); i++ {
		c, err := data[i].CorruptTarget(noise)
		if err != nil {
			return nil, err
		}
		data[i] = c
		corrupted[fmt.Sprintf("node-%d", i)] = true
	}
	spec, err := opts.modelSpec()
	if err != nil {
		return nil, err
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: spec, ClusterK: opts.ClusterK, LocalEpochs: opts.LocalEpochs, Seed: opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	// Score only against clean nodes' held-out data: the corrupted
	// labels are meaningless as ground truth. Rebuild the test set
	// directly from the clean source datasets.
	cleanTest := data[0].Empty()
	testSrc := rng.New(opts.Seed + 78)
	for i, d := range data {
		if corrupted[fmt.Sprintf("node-%d", i)] {
			continue
		}
		_, held := d.Split(0.2, testSrc.Split())
		if err := cleanTest.Merge(held); err != nil {
			return nil, err
		}
	}
	space, err := fleet.Space()
	if err != nil {
		return nil, err
	}
	workload, err := query.Workload(query.WorkloadConfig{Space: space, Count: opts.Queries}, rng.New(opts.Seed+2))
	if err != nil {
		return nil, err
	}

	point := &RobustnessPoint{CorruptFraction: frac}
	sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
	qd := runStream(fleet.Leader, workload, sel, federation.WeightedAveraging, cleanTest)
	if len(qd.results) == 0 {
		return nil, errNoneExecuted
	}
	point.QueryDrivenLoss = qd.meanLoss()
	slots, corruptSlots := 0, 0
	for _, r := range qd.results {
		for _, p := range r.Participants {
			slots++
			if corrupted[p.NodeID] {
				corruptSlots++
			}
		}
	}
	if slots > 0 {
		point.CorruptSelected = float64(corruptSlots) / float64(slots)
	}

	rnd := runStream(fleet.Leader, workload, selection.Random{L: opts.TopL}, federation.ModelAveraging, cleanTest)
	if len(rnd.results) == 0 {
		return nil, errNoneExecuted
	}
	point.RandomLoss = rnd.meanLoss()
	return point, nil
}
