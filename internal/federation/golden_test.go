package federation

import (
	"context"
	"testing"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
)

// goldenOp is one request of the seeded workload: a training round or
// an evaluation, for one model family.
type goldenOp struct {
	train    bool
	family   string // "lr" | "nn"
	clusters []int  // nil = whole dataset
	epochs   int
}

// goldenWorkload deterministically generates a 200-request mixed
// workload over k clusters of a dataset with d.Dims() columns.
func goldenWorkload(d *dataset.Dataset, k int) []goldenOp {
	wl := rng.New(2024)
	ops := make([]goldenOp, 0, 200)
	for i := 0; i < 200; i++ {
		op := goldenOp{train: wl.Float64() < 0.6}
		if wl.Bool(0.5) {
			op.family = "lr"
		} else {
			op.family = "nn"
		}
		if op.train {
			op.epochs = 1 + wl.Intn(2)
			switch wl.Intn(3) {
			case 0: // whole dataset
			case 1: // every cluster in order
				op.clusters = make([]int, k)
				for c := range op.clusters {
					op.clusters[c] = c
				}
			default: // random supporting subset
				op.clusters = wl.SampleWithoutReplacement(k, 1+wl.Intn(k-1))
			}
		} else if wl.Float64() < 0.5 {
			// Half the evaluations once scored a random (sometimes
			// empty) subspace rectangle. Evaluations now score the whole
			// data, but the rectangle's draws stay, so every later op of
			// the workload is unchanged.
			for range 2*d.Dims() + 1 {
				wl.Float64()
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// legacyNode reimplements the pre-engine Node request path with its
// own RNG: one Int63 draw per request, fresh model per request,
// materialized copies of the cluster or whole data, PartialFit on
// each copy, PredictBatch + ml.MSE evaluation. It is the bit-exact
// reference the engine-backed Node is replayed against.
type legacyNode struct {
	data  *dataset.Dataset
	quant *cluster.Quantization
	src   *rng.Source
}

func (n *legacyNode) buildModel(spec ml.Spec, params ml.Params) (ml.Model, error) {
	spec.Seed = uint64(n.src.Int63())
	model, err := spec.New()
	if err != nil {
		return nil, err
	}
	if len(params.Values) > 0 {
		if err := model.SetParams(params); err != nil {
			return nil, err
		}
	}
	return model, nil
}

func (n *legacyNode) train(spec ml.Spec, params ml.Params, clusters []int, epochs int) (ml.Params, error) {
	model, err := n.buildModel(spec, params)
	if err != nil {
		return ml.Params{}, err
	}
	if len(clusters) == 0 {
		if err := model.PartialFit(context.Background(), n.data.Clone().View(), epochs); err != nil {
			return ml.Params{}, err
		}
		return model.Params(), nil
	}
	for _, c := range clusters {
		cd, err := n.quant.ClusterData(c)
		if err != nil {
			return ml.Params{}, err
		}
		if cd.Len() == 0 {
			continue
		}
		if err := model.PartialFit(context.Background(), cd.View(), epochs); err != nil {
			return ml.Params{}, err
		}
	}
	return model.Params(), nil
}

func (n *legacyNode) evaluate(spec ml.Spec, params ml.Params) (float64, int, error) {
	model, err := n.buildModel(spec, params)
	if err != nil {
		return 0, 0, err
	}
	cp := n.data.Clone().View()
	_, y := cp.XY()
	return ml.MSE(y, model.PredictBatch(cp)), cp.Len(), nil
}

// TestEngineTrainGoldenEquivalence replays a seeded 200-request
// workload (mixed Train/Evaluate, LR and NN, whole-data / all-cluster
// / subset rounds, whole-data evaluations) through the
// engine-backed Node and through a reimplementation of the pre-engine
// request path driven by a mirrored RNG. Every response must match
// bit-exactly: same params, same MSE, same sample counts. This is the
// refactor's core acceptance criterion — the engine changes the data
// plane (views, pooled models, flat batches), never the arithmetic.
func TestEngineTrainGoldenEquivalence(t *testing.T) {
	// Shared shard + quantization: both sides see identical state.
	d := dataset.MustNew([]string{"x0", "x1", "x2", "y"}, "y")
	src := rng.New(42)
	for i := 0; i < 500; i++ {
		x0 := src.Uniform(0, 100)
		x1 := src.Uniform(-50, 50)
		x2 := src.Uniform(0, 10)
		d.MustAppend([]float64{x0, x1, x2, 3*x0 - 2*x1 + 5*x2 + src.Normal(0, 4)})
	}
	const k = 5
	quant, err := cluster.Quantize(d, cluster.Config{K: k}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}

	// NewNodeFromQuantization draws nothing from the node source at
	// construction, so the legacy mirror starts from identical RNG
	// state.
	node, err := NewNodeFromQuantization("golden", quant, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	legacy := &legacyNode{data: d, quant: quant, src: rng.New(77)}

	specs := map[string]ml.Spec{"lr": ml.PaperLR(3), "nn": ml.PaperNN(3)}
	// Rolling per-family global params, updated from each side's own
	// train responses — divergence compounds, so a single ULP
	// difference anywhere surfaces within a few requests.
	cur := map[string]ml.Params{}
	curLegacy := map[string]ml.Params{}

	for i, op := range goldenWorkload(d, k) {
		spec := specs[op.family]
		if op.train {
			resp, err := node.Train(TrainRequest{
				Spec: spec, Params: cur[op.family], Clusters: op.clusters, LocalEpochs: op.epochs,
			})
			if err != nil {
				t.Fatalf("op %d: engine train: %v", i, err)
			}
			want, err := legacy.train(spec, curLegacy[op.family], op.clusters, op.epochs)
			if err != nil {
				t.Fatalf("op %d: legacy train: %v", i, err)
			}
			if len(resp.Params.Values) != len(want.Values) {
				t.Fatalf("op %d (%s): param lengths %d vs %d", i, op.family, len(resp.Params.Values), len(want.Values))
			}
			for j := range want.Values {
				if resp.Params.Values[j] != want.Values[j] {
					t.Fatalf("op %d (%s, clusters=%v, epochs=%d): param %d: engine %v != legacy %v",
						i, op.family, op.clusters, op.epochs, j, resp.Params.Values[j], want.Values[j])
				}
			}
			cur[op.family] = resp.Params
			curLegacy[op.family] = want
		} else {
			resp, err := node.EvaluateContext(context.Background(), EvalRequest{Spec: spec, Params: cur[op.family]})
			if err != nil {
				t.Fatalf("op %d: engine eval: %v", i, err)
			}
			mse, samples, err := legacy.evaluate(spec, curLegacy[op.family])
			if err != nil {
				t.Fatalf("op %d: legacy eval: %v", i, err)
			}
			if resp.Samples != samples || resp.MSE != mse {
				t.Fatalf("op %d (%s): engine (mse=%v n=%d) != legacy (mse=%v n=%d)",
					i, op.family, resp.MSE, resp.Samples, mse, samples)
			}
		}
	}
	// Both families must actually have been trained for the replay to
	// mean anything.
	for fam := range specs {
		if len(cur[fam].Values) == 0 {
			t.Fatalf("workload never trained family %s", fam)
		}
	}
}

// TestGoldenEvalSeedDrawOrder verifies an evaluation consumes exactly
// one seed draw (the engine builds the model before it reads the data,
// mirroring the legacy order) — otherwise every subsequent response in
// a replay would diverge.
func TestGoldenEvalSeedDrawOrder(t *testing.T) {
	d := lineDataset(60, 1, 0, 0, 10, 5)
	node, err := NewNode("n", d, 3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := NewNode("n", d, 3, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := node.EvaluateContext(context.Background(), EvalRequest{Spec: ml.PaperLR(1)}); err != nil || resp.Samples != 60 {
		t.Fatalf("eval: %+v, %v", resp, err)
	}
	// The mirror skips the evaluation: its next train must
	// DIFFER from the node's (proving the node consumed a draw) …
	r1, err := node.Train(TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mirror.Train(TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Params.Values {
		if r1.Params.Values[i] != r2.Params.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("evaluation did not consume a seed draw")
	}
	// … and after the mirror burns one draw too, they re-align.
	if _, err := mirror.EvaluateContext(context.Background(), EvalRequest{Spec: ml.PaperLR(1)}); err != nil {
		t.Fatal(err)
	}
	r3, err := node.Train(TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := mirror.Train(TrainRequest{Spec: ml.PaperNN(1), LocalEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r3.Params.Values {
		if r3.Params.Values[i] != r4.Params.Values[i] {
			t.Fatalf("param %d diverged after realignment: %v != %v", i, r3.Params.Values[i], r4.Params.Values[i])
		}
	}
}
