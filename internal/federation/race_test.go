package federation

import (
	"context"
	"sync"
	"testing"

	"qens/internal/cluster"
	"qens/internal/ml"
	"qens/internal/rng"
)

// TestNodeConcurrentMutationAndTraining is the regression test for the
// AddSamples/Train data race the engine refactor fixes: writers
// (AddSamples, Requantize) and readers (Train, Evaluate, Summary) hammer
// one node concurrently. Run under -race (make check does), any torn
// snapshot or in-place mutation of pinned data trips the detector; the
// assertions below additionally pin the copy-on-write semantics —
// every response must be internally consistent with SOME published
// epoch.
func TestNodeConcurrentMutationAndTraining(t *testing.T) {
	d := lineDataset(240, 2, 1, 0, 10, 31)
	node, err := NewNode("race", d, 4, rng.New(31), WithTrainConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	spec := ml.PaperLR(1)

	const (
		writers   = 2
		trainers  = 3
		rounds    = 20
		appendsOf = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds+trainers*rounds*2+rounds)

	// Writers: half append fresh rows (epoch bump + COW dataset), half
	// requantize in place (epoch bump, same dataset).
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(1000 + w))
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					rows := make([][]float64, appendsOf)
					for i := range rows {
						x := src.Uniform(0, 10)
						rows[i] = []float64{x, 2*x + 1}
					}
					if err := node.AddSamples(rows); err != nil {
						errs <- err
						return
					}
				} else if err := node.Requantize(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// Trainers: alternate cluster-restricted training and whole-data
	// evaluation against whatever snapshot admission pins.
	for g := 0; g < trainers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := node.Train(TrainRequest{Spec: spec, Clusters: []int{0, 1, 2, 3}, LocalEpochs: 1})
				if err != nil {
					errs <- err
					return
				}
				// COW consistency: the response's accounting must come
				// from one snapshot — a round can never use more
				// samples than the dataset it trained on held.
				if resp.SamplesUsed > resp.TotalSamples || resp.SummaryEpoch == 0 {
					t.Errorf("torn train response: used=%d total=%d epoch=%d",
						resp.SamplesUsed, resp.TotalSamples, resp.SummaryEpoch)
					return
				}
				ev, err := node.EvaluateContext(context.Background(), EvalRequest{Spec: spec})
				if err != nil {
					errs <- err
					return
				}
				if ev.SummaryEpoch == 0 {
					t.Error("evaluation response missing snapshot epoch")
					return
				}
			}
		}()
	}

	// Summary readers: advertisements must never tear (Summary reads
	// quantization and epoch from one snapshot).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			s := node.Summary()
			if err := s.Validate(); err != nil {
				errs <- err
				return
			}
			if s.Epoch == 0 {
				t.Error("summary missing epoch")
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All writer mutations landed: epoch advanced by every successful
	// mutate, and the appended rows are all visible.
	wantAppends := (writers / 2) * rounds * appendsOf
	if got := node.Data().Len(); got != 240+wantAppends {
		t.Fatalf("final dataset has %d rows, want %d", got, 240+wantAppends)
	}
	if got := node.SummaryEpoch(); got != uint64(1+writers*rounds) {
		t.Fatalf("final epoch %d, want %d", got, 1+writers*rounds)
	}
}

// TestNodeFromGridQuantization covers satellite (d): a node built
// around a grid synopsis (NewNodeFromQuantization over GridQuantize)
// must advertise epoch 1, train normally, and Requantize must bump the
// epoch while preserving the cluster count K.
func TestNodeFromGridQuantization(t *testing.T) {
	d := lineDataset(200, 1.5, -2, 0, 20, 8)
	quant, err := cluster.GridQuantize(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := len(quant.Result.Clusters)
	if k < 2 {
		t.Fatalf("grid produced %d clusters, fixture too small", k)
	}
	node, err := NewNodeFromQuantization("grid", quant, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if node.SummaryEpoch() != 1 {
		t.Fatalf("initial epoch %d", node.SummaryEpoch())
	}
	s := node.Summary()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.K() != k {
		t.Fatalf("summary K %d, want %d", s.K(), k)
	}

	// Training against grid clusters works like any other synopsis.
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	resp, err := node.Train(TrainRequest{Spec: ml.PaperLR(1), Clusters: all, LocalEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SamplesUsed != 200 || resp.SummaryEpoch != 1 {
		t.Fatalf("train over grid clusters: used=%d epoch=%d", resp.SamplesUsed, resp.SummaryEpoch)
	}

	// Requantize swaps the synopsis to k-means with the same K and
	// bumps the advertisement epoch.
	if err := node.Requantize(); err != nil {
		t.Fatal(err)
	}
	if node.SummaryEpoch() != 2 {
		t.Fatalf("epoch after requantize %d, want 2", node.SummaryEpoch())
	}
	s2 := node.Summary()
	if s2.K() != k {
		t.Fatalf("requantize changed K: %d -> %d", s.K(), s2.K())
	}
	if s2.Epoch != 2 {
		t.Fatalf("summary epoch %d, want 2", s2.Epoch)
	}

	// Validation: nil / empty quantizations are rejected.
	if _, err := NewNodeFromQuantization("", quant, rng.New(1)); err == nil {
		t.Fatal("accepted empty id")
	}
	if _, err := NewNodeFromQuantization("x", nil, rng.New(1)); err == nil {
		t.Fatal("accepted nil quantization")
	}
}
