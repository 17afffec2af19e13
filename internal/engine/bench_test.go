package engine

import (
	"context"
	"fmt"
	"testing"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/telemetry"
)

// benchState holds a quantized shard plus the model spec for one grid
// point of BenchmarkNodeTrain.
type benchState struct {
	data  *dataset.Dataset
	quant *cluster.Quantization
	spec  ml.Spec
	all   []int // every cluster index, the "train on all supporting clusters" request
}

// buildBenchState synthesizes an n-sample, 3-feature shard and
// quantizes it into k clusters.
func buildBenchState(b *testing.B, model string, k, n int) *benchState {
	b.Helper()
	d := dataset.MustNew([]string{"x0", "x1", "x2", "y"}, "y")
	src := rng.New(42)
	for i := 0; i < n; i++ {
		x0 := src.Uniform(0, 100)
		x1 := src.Uniform(-50, 50)
		x2 := src.Uniform(0, 10)
		y := 3*x0 - 2*x1 + 5*x2 + src.Normal(0, 4)
		d.MustAppend([]float64{x0, x1, x2, y})
	}
	quant, err := cluster.Quantize(d, cluster.Config{K: k}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	var spec ml.Spec
	switch model {
	case "lr":
		spec = ml.PaperLR(3)
	case "nn":
		spec = ml.PaperNN(3)
	default:
		b.Fatalf("unknown model %q", model)
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	return &benchState{data: d, quant: quant, spec: spec, all: all}
}

// initialParams builds the "global model" payload a leader would ship.
func (s *benchState) initialParams(b *testing.B) ml.Params {
	b.Helper()
	sp := s.spec
	sp.Seed = 99
	m, err := sp.New()
	if err != nil {
		b.Fatal(err)
	}
	return m.Params()
}

// legacyTrain reproduces the pre-engine request path's copies: build a
// fresh model, materialize every supporting cluster into a copied
// dataset, split it into per-row feature slices and targets, rebuild a
// dataset from them, and fit — the copy baseline the view path is
// measured against.
func legacyTrain(spec ml.Spec, seed uint64, params ml.Params, quant *cluster.Quantization, clusters []int, epochs int) (ml.Params, error) {
	spec.Seed = seed
	model, err := spec.New()
	if err != nil {
		return ml.Params{}, err
	}
	if len(params.Values) > 0 {
		if err := model.SetParams(params); err != nil {
			return ml.Params{}, err
		}
	}
	for _, c := range clusters {
		cd, err := quant.ClusterData(c)
		if err != nil {
			return ml.Params{}, err
		}
		if cd.Len() == 0 {
			continue
		}
		rebuilt, t := cd.Empty(), cd.TargetIndex()
		for i := range cd.Len() {
			row := cd.Row(i)
			x := append(append(make([]float64, 0, len(row)-1), row[:t]...), row[t+1:]...)
			rebuilt.MustAppend(append(append(append(make([]float64, 0, len(row)), x[:t]...), row[t]), x[t:]...))
		}
		if err := model.PartialFit(context.Background(), rebuilt.View(), epochs); err != nil {
			return ml.Params{}, err
		}
	}
	return model.Params(), nil
}

// BenchmarkNodeTrain measures one full local training round (the
// node-side cost of a leader Train RPC) across model family x cluster
// count x shard size, on two paths:
//
//   - view: the engine path — pooled model (Reinit), zero-copy
//     cluster views fitted where their rows lie.
//   - copy: the pre-engine path — fresh model, materialized cluster
//     datasets split per row and rebuilt, then fitted.
//
// Both paths perform bit-identical training arithmetic (see
// TestEngineTrainGoldenEquivalence), so the delta is pure data-plane
// overhead. LR view rows also run at the paper's E = 5 local epochs
// (no copy peer). The train gate of scripts/benchgate renders these as
// BENCH_train.json and fails if the view path is not >=2x the copy
// path's throughput on the two LR pairs at 10k samples, or if an LR
// view row allocates more than 4 times per job.
func BenchmarkNodeTrain(b *testing.B) {
	ctx := context.Background()
	for _, model := range []string{"lr", "nn"} {
		for _, k := range []int{4, 16} {
			for _, n := range []int{1000, 10000} {
				state := buildBenchState(b, model, k, n)
				params := state.initialParams(b)

				// Epochs 1 isolates the data plane against the copy
				// path; the paper's E = 5 (the serving path's) is where
				// per-fit work such as standardization pays off.
				epochs := []int{1}
				if model == "lr" {
					epochs = append(epochs, 5)
				}
				for _, ep := range epochs {
					b.Run(fmt.Sprintf("path=view/model=%s/epochs=%d/clusters=%d/samples=%d", model, ep, k, n), func(b *testing.B) {
						e := New(Config{NodeID: "bench", Parallelism: 1, Registry: &telemetry.Registry{}},
							state.data, state.quant)
						job := TrainJob{Spec: state.spec, Seed: 1, Params: params, Clusters: state.all, Epochs: ep}
						if _, err := e.Train(ctx, job); err != nil { // warm the pool
							b.Fatal(err)
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := e.Train(ctx, job); err != nil {
								b.Fatal(err)
							}
						}
					})
				}

				b.Run(fmt.Sprintf("path=copy/model=%s/epochs=1/clusters=%d/samples=%d", model, k, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := legacyTrain(state.spec, 1, params, state.quant, state.all, 1); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkNodeTrainClusterAccess isolates the per-cluster data plane
// of the LR training loop at steady state: zero-copy cluster view ->
// PartialFit on a warmed model. This is the allocation contract the
// engine exists to provide; the train gate of scripts/benchgate fails
// if it reports a nonzero allocs/op.
func BenchmarkNodeTrainClusterAccess(b *testing.B) {
	ctx := context.Background()
	state := buildBenchState(b, "lr", 8, 10000)
	spec := state.spec
	spec.Seed = 1
	model, err := spec.New()
	if err != nil {
		b.Fatal(err)
	}
	fit := func(c int) {
		view, err := state.quant.ClusterView(c)
		if err != nil {
			b.Fatal(err)
		}
		if err := model.PartialFit(ctx, view, 1); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the scratch: one pass over every cluster grows the model's
	// internal buffers to their high-water mark.
	for _, c := range state.all {
		fit(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit(state.all[i%len(state.all)])
	}
}
