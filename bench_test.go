// Package qens holds the repository-level benchmark harness: one
// benchmark per paper table and figure (regenerating the reported
// quantity and exporting it via b.ReportMetric), the ablation benches
// for the design choices DESIGN.md calls out, and micro-benchmarks for
// the hot kernels (overlap rate, ranking, k-means, model training,
// aggregation, transport).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package qens

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/experiments"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
	"qens/internal/transport"
)

// benchOpts is the shared scale for the experiment benches: large
// enough for the paper's qualitative shapes, small enough to iterate.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:           1,
		Nodes:          8,
		SamplesPerNode: 800,
		Queries:        15,
		ClusterK:       5,
		Epsilon:        0.6,
		TopL:           3,
		LocalEpochs:    5,
	}
}

// BenchmarkTableI regenerates Table I: expected loss of all-node vs
// random selection on homogeneous participants (paper: 24.45 vs 24.70,
// i.e. a ratio of ~1).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AllNodeLoss, "allnode-loss")
		b.ReportMetric(res.RandomLoss, "random-loss")
		b.ReportMetric(res.RandomLoss/res.AllNodeLoss, "random/allnode")
	}
}

// BenchmarkTableII regenerates Table II: the same comparison on
// heterogeneous participants (paper: 9.70 vs 178.10 — random collapses).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AllNodeLoss, "allnode-loss")
		b.ReportMetric(res.RandomLoss, "random-loss")
		b.ReportMetric(res.RandomLoss/res.AllNodeLoss, "random/allnode")
	}
}

// BenchmarkFigure6 regenerates the Fig. 6 needed-vs-available data
// contrast and reports the mean needed fraction over the three
// plotted nodes.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		needed, total := 0, 0
		for _, n := range res.Nodes {
			needed += n.NeededSamples
			total += n.TotalSamples
		}
		b.ReportMetric(100*float64(needed)/float64(total), "needed-%")
	}
}

// BenchmarkFigure7LR regenerates Fig. 7 for the LR model: average loss
// of GT, Random and the two query-driven aggregations. Expected shape:
// weighted <= averaging < gt < random.
func BenchmarkFigure7LR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range experiments.Figure7Mechanisms {
			b.ReportMetric(res.Losses[m], m+"-loss")
		}
	}
}

// BenchmarkFigure7NN regenerates Fig. 7 for the NN model (Table III:
// 64 relu units) at a reduced scale — NN training dominates runtime.
func BenchmarkFigure7NN(b *testing.B) {
	opts := benchOpts()
	opts.Model = ml.KindNN
	opts.Nodes = 5
	opts.SamplesPerNode = 400
	opts.Queries = 6
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range experiments.Figure7Mechanisms {
			b.ReportMetric(res.Losses[m], m+"-loss")
		}
	}
}

// BenchmarkFigure8 regenerates Fig. 8: per-query training time with
// the query-driven mechanism vs whole-node training, reporting the
// wall-clock speedup and the deterministic data reduction behind it.
func BenchmarkFigure8(b *testing.B) {
	opts := benchOpts()
	opts.SamplesPerNode = 2000 // timing needs real work to be meaningful
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "time-speedup")
		b.ReportMetric(res.DataReduction(), "data-reduction")
	}
}

// BenchmarkFigure9 regenerates Fig. 9: the fraction of federation data
// each query needs, with vs without the query-driven mechanism.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		qd, whole := res.MeanFractions()
		b.ReportMetric(100*qd, "query-driven-%")
		b.ReportMetric(100*whole, "whole-data-%")
	}
}

// BenchmarkAblationK sweeps clusters-per-node, validating the §IV-A
// Remark that K=1 destroys data selectivity.
func BenchmarkAblationK(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationK(opts, []int{1, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(100*p.DataFraction, p.Setting+"-data-%")
		}
	}
}

// BenchmarkAblationEpsilon sweeps the ε support threshold.
func BenchmarkAblationEpsilon(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEpsilon(opts, []float64{0.3, 0.6, 0.8})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(p.Loss, p.Setting+"-loss")
		}
	}
}

// BenchmarkAblationTopL sweeps the participant budget ℓ.
func BenchmarkAblationTopL(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationTopL(opts, []int{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(p.Loss, p.Setting+"-loss")
		}
	}
}

// BenchmarkAblationAggregation compares prediction-space aggregation
// (the paper's Eqs. 6-7) against parameter-space FedAvg.
func BenchmarkAblationAggregation(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationAggregation(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(p.Loss, p.Setting+"-loss")
		}
	}
}

// BenchmarkDrift regenerates the model-forgetting experiment behind
// the paper's motivation: final query-subspace loss of a model trained
// sequentially along the query-driven path vs visiting every node.
func BenchmarkDrift(b *testing.B) {
	opts := benchOpts()
	opts.Heterogeneity = 1
	opts.FlipFraction = 0.3
	for i := 0; i < b.N; i++ {
		res, err := experiments.Drift(opts)
		if err != nil {
			b.Fatal(err)
		}
		qd, naive := res.FinalLosses()
		b.ReportMetric(qd, "query-driven-loss")
		b.ReportMetric(naive, "naive-loss")
		b.ReportMetric(res.MaxNaiveRegression(), "forgetting-jump")
	}
}

// BenchmarkHeterogeneitySweep traces the mechanism's advantage over
// random selection across corpus heterogeneity levels.
func BenchmarkHeterogeneitySweep(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.HeterogeneitySweep(opts, []float64{0.02, 0.5, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(p.Advantage, fmt.Sprintf("h=%.2f-advantage", p.Heterogeneity))
		}
	}
}

// BenchmarkCommunicationCost regenerates the O(1)-communication
// accounting: per-query bytes for query-driven vs GT vs centralized.
func BenchmarkCommunicationCost(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.CommunicationCost(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(float64(p.PerQueryBytes), p.Mechanism+"-B/query")
		}
	}
}

// BenchmarkMultiFeature validates the pipeline in a 4-dimensional
// joint space (the paper evaluates in 2-d; Eqs. 2-4 are d-generic).
func BenchmarkMultiFeature(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiFeature(opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Losses["weighted"], "weighted-loss")
		b.ReportMetric(res.Losses["random"], "random-loss")
		b.ReportMetric(100*res.DataFraction, "data-%")
	}
}

// BenchmarkReuse regenerates the query-reuse extension: hit rate and
// training-time savings of caching per-query models under a focused
// workload.
func BenchmarkReuse(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 15
	for i := 0; i < b.N; i++ {
		res, err := experiments.Reuse(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.HitRate, "hit-%")
		b.ReportMetric(float64(res.TimeWithoutCache)/float64(maxInt64(1, int64(res.TimeWithCache))), "time-saving-x")
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkNoiseRobustness regenerates the broken-sensor sweep: loss
// of query-driven vs random selection with corrupted-label nodes.
func BenchmarkNoiseRobustness(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.NoiseRobustness(opts, []float64{0, 0.25})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(p.QueryDrivenLoss, fmt.Sprintf("qd@%.0f%%-loss", 100*p.CorruptFraction))
			b.ReportMetric(p.RandomLoss, fmt.Sprintf("rnd@%.0f%%-loss", 100*p.CorruptFraction))
		}
	}
}

// BenchmarkQuantizerAblation regenerates the k-means vs grid synopsis
// comparison.
func BenchmarkQuantizerAblation(b *testing.B) {
	opts := benchOpts()
	opts.Queries = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.QuantizerAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			b.ReportMetric(p.Loss, p.Quantizer+"-loss")
			b.ReportMetric(100*p.DataFraction, p.Quantizer+"-data-%")
		}
	}
}

// ---- micro-benchmarks for the hot kernels ----

// BenchmarkOverlapRate measures Eq. 2 on a 11-dimensional rectangle
// pair (the full air-quality schema).
func BenchmarkOverlapRate(b *testing.B) {
	src := rng.New(1)
	d := 11
	min1, max1 := make([]float64, d), make([]float64, d)
	min2, max2 := make([]float64, d), make([]float64, d)
	for i := 0; i < d; i++ {
		a, c := src.Uniform(0, 100), src.Uniform(0, 100)
		min1[i], max1[i] = minf(a, c), maxf(a, c)
		a, c = src.Uniform(0, 100), src.Uniform(0, 100)
		min2[i], max2[i] = minf(a, c), maxf(a, c)
	}
	q := geometry.MustRect(min1, max1)
	k := geometry.MustRect(min2, max2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geometry.OverlapRate(q, k)
	}
}

// BenchmarkRankNodes measures the leader's full ranking pass for 100
// nodes x 5 clusters — the per-query selection cost the paper claims
// is negligible.
func BenchmarkRankNodes(b *testing.B) {
	src := rng.New(2)
	summaries := make([]cluster.NodeSummary, 100)
	for n := range summaries {
		s := cluster.NodeSummary{NodeID: fmt.Sprintf("node-%d", n), TotalSamples: 500}
		for c := 0; c < 5; c++ {
			lo := src.Uniform(0, 90)
			s.Clusters = append(s.Clusters, cluster.Summary{
				Bounds: geometry.MustRect([]float64{lo, lo}, []float64{lo + 10, lo + 10}),
				Size:   100,
			})
		}
		summaries[n] = s
	}
	q, err := query.New("q", geometry.MustRect([]float64{20, 20}, []float64{60, 60}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := selection.RankNodes(q, summaries, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeans measures the node-side quantization of 2000 samples
// into K=5 (the paper's per-node setting).
func BenchmarkKMeans(b *testing.B) {
	src := rng.New(3)
	points := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < 2000; i++ {
		points.MustAppend([]float64{src.Uniform(0, 100), src.Uniform(0, 300)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, cluster.Config{K: 5}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearTrainEpoch measures one PartialFit epoch of the
// Table III LR model over a 500-sample cluster.
func BenchmarkLinearTrainEpoch(b *testing.B) {
	v := benchBatch(500, 4)
	m := ml.PaperLR(1).MustNew()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PartialFit(context.Background(), v, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNTrainEpoch measures one PartialFit epoch of the Table III
// NN (64 relu units) over a 500-sample cluster.
func BenchmarkNNTrainEpoch(b *testing.B) {
	v := benchBatch(500, 5)
	m := ml.PaperNN(1).MustNew()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PartialFit(context.Background(), v, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsemblePredict measures the leader-side aggregated
// prediction (Eq. 7) over a 3-model ensemble.
func BenchmarkEnsemblePredict(b *testing.B) {
	v := benchBatch(300, 6)
	var params []ml.Params
	for i := 0; i < 3; i++ {
		spec := ml.PaperLR(1)
		spec.Seed = uint64(i)
		m := spec.MustNew()
		if err := m.PartialFit(context.Background(), v, 5); err != nil {
			b.Fatal(err)
		}
		params = append(params, m.Params())
	}
	e, err := federation.NewEnsemble(ml.PaperLR(1), params, []float64{3, 2, 1}, federation.WeightedAveraging)
	if err != nil {
		b.Fatal(err)
	}
	in := []float64{12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Predict(in)
	}
}

// BenchmarkWorkloadGeneration measures drawing the paper's 200-query
// dynamic workload.
func BenchmarkWorkloadGeneration(b *testing.B) {
	space := geometry.MustRect([]float64{0, 0}, []float64{100, 300})
	cfg := query.WorkloadConfig{Space: space, Count: 200, DriftPeriod: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Workload(cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportSummary measures one summary round-trip over a
// real loopback TCP connection — the per-node selection communication.
func BenchmarkTransportSummary(b *testing.B) {
	d := dataset.MustNew([]string{"x", "y"}, "y")
	src := rng.New(7)
	for i := 0; i < 500; i++ {
		v := src.Uniform(0, 100)
		d.MustAppend([]float64{v, 2 * v})
	}
	node, err := federation.NewNode("bench", d, 5, rng.New(8))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := transport.Serve(node, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.Dial(srv.Addr(), transport.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Summary(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramObserve measures the telemetry hot path: one
// lock-free histogram observation. Instrumentation rides every RPC and
// training round, so this must stay well under 100ns/op.
func BenchmarkHistogramObserve(b *testing.B) {
	var h telemetry.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) + 0.5)
	}
	if h.Count() != int64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// BenchmarkHistogramObserveParallel exercises the contended case — many
// goroutines feeding one latency histogram, the shape of a busy daemon.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h telemetry.Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.5
		for pb.Next() {
			h.Observe(v)
			v += 0.25
			if v > 1000 {
				v = 0.5
			}
		}
	})
}

// BenchmarkCounterAdd measures a pre-resolved labeled counter
// increment — a single atomic add once the series handle is held.
func BenchmarkCounterAdd(b *testing.B) {
	var reg telemetry.Registry
	c := reg.Counter("bench_ops_total", telemetry.Label{Key: "node", Value: "bench"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != int64(b.N) {
		b.Fatalf("count = %d, want %d", c.Value(), b.N)
	}
}

// BenchmarkCounterLookupAdd includes the registry lookup, the cost paid
// by call sites that do not cache the series handle.
func BenchmarkCounterLookupAdd(b *testing.B) {
	var reg telemetry.Registry
	node := telemetry.Label{Key: "node", Value: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench_ops_total", node).Inc()
	}
}

// benchBatch builds a simple y = 2x + 1 batch.
func benchBatch(n int, seed uint64) dataset.View {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"x", "y"}, "y")
	for i := 0; i < n; i++ {
		v := src.Uniform(0, 50)
		d.MustAppend([]float64{v, 2*v + 1 + src.Normal(0, 0.5)})
	}
	return d.View()
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
