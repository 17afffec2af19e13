package experiments

import (
	"strings"
	"testing"
)

// TestQuantizerAblation runs the ablation over seeds 1–16 at quick
// scale. On every seed the grid trains on less data than k-means (its
// tighter, more numerous cells make ε more selective); which arm has
// the lower loss depends on the seed, so the test logs the count and
// asserts only that neither arm is catastrophically broken.
func TestQuantizerAblation(t *testing.T) {
	const seeds = 16
	gridWins := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		opts := quickOpts()
		opts.Seed = seed
		res, err := QuantizerAblation(opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		byName := map[string]QuantizerPoint{}
		for _, p := range res.Points {
			if p.Executed == 0 || p.MeanClusters <= 0 || p.DataFraction <= 0 || p.DataFraction >= 1 {
				t.Fatalf("seed %d: %s arm executed %d queries over %v clusters, data fraction %v",
					seed, p.Quantizer, p.Executed, p.MeanClusters, p.DataFraction)
			}
			byName[p.Quantizer] = p
		}
		k, okK := byName["kmeans"]
		g, okG := byName["grid"]
		if len(res.Points) != 2 || !okK || !okG {
			t.Fatalf("seed %d: arms %v, want kmeans and grid", seed, res.Points)
		}
		if g.DataFraction >= k.DataFraction {
			t.Errorf("seed %d: grid trains on %.4f of the data, not less than k-means' %.4f", seed, g.DataFraction, k.DataFraction)
		}
		if k.Loss > g.Loss*2 || g.Loss > k.Loss*2 {
			t.Errorf("seed %d: quantizer losses wildly apart: kmeans=%v grid=%v", seed, k.Loss, g.Loss)
		}
		t.Logf("seed %2d: k-means loss %7.1f on %.4f of the data, grid loss %7.1f on %.4f", seed, k.Loss, k.DataFraction, g.Loss, g.DataFraction)
		if g.Loss < k.Loss {
			gridWins++
		}
		if !strings.Contains(res.String(), "Quantizer") {
			t.Fatal("rendering broken")
		}
	}
	t.Logf("lower loss over %d seeds: grid %d, k-means %d", seeds, gridWins, seeds-gridWins)
}
