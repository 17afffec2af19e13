package experiments

import (
	"strings"
	"testing"
)

// TestQuantizerAblation runs the ablation over seeds 1–16 at quick
// scale. On every seed the grid trains on less data than k-means (its
// tighter, more numerous cells make ε more selective); which arm has
// the lower loss over the queries both scored depends on the seed, so
// the test logs the count and asserts only that neither arm is
// catastrophically broken and that the pairing is consistent.
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
		if res.Paired < 1 || res.Paired > min(k.Executed, g.Executed) {
			t.Fatalf("seed %d: %d paired queries, arms scored %d and %d", seed, res.Paired, k.Executed, g.Executed)
		}
		pk, pg := k.PairedLoss, g.PairedLoss
		if pk > pg*2 || pg > pk*2 {
			t.Errorf("seed %d: paired quantizer losses wildly apart: kmeans=%v grid=%v", seed, pk, pg)
		}
		t.Logf("seed %2d: over %d paired queries k-means loss %7.1f, grid %7.1f; data %.4f vs %.4f",
			seed, res.Paired, pk, pg, k.DataFraction, g.DataFraction)
		if pg < pk {
			gridWins++
		}
		if !strings.Contains(res.String(), "Quantizer") || !strings.Contains(res.String(), "paired") {
			t.Fatal("rendering broken")
		}
	}
	t.Logf("lower paired loss over %d seeds: grid %d, k-means %d", seeds, gridWins, seeds-gridWins)
}
