package federation

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// TestIngestConcurrentSoak hammers the streaming path from every side
// at once: ingesters feeding mini-batches (incremental requantization),
// a forced full requantizer (Node.Requantize), trainers and summary
// readers. Run under -race (make check does); the assertions pin that
// every observed snapshot is internally consistent and the ingest
// accounting adds up afterwards.
func TestIngestConcurrentSoak(t *testing.T) {
	d := lineDataset(300, 2, 1, 0, 10, 41)
	node, err := NewNode("soak", d, 4, rng.New(41), WithTrainConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.EnableIngest(IngestConfig{
		BatchSize: 16,
		// Keep the detector out of the way: this test exercises
		// concurrency, not escalation (escalations still may happen and
		// must be safe).
		EscalateError: 50, EscalateAssign: 0.95,
	}); err != nil {
		t.Fatal(err)
	}
	spec := ml.PaperLR(1)

	const (
		ingesters = 2
		trainers  = 2
		readers   = 2
		rounds    = 25
	)
	errs := make(chan error, (ingesters+trainers+readers+1)*rounds)
	var wg sync.WaitGroup

	for w := 0; w < ingesters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(100 + w))
			for r := 0; r < rounds; r++ {
				batch := make([][]float64, 8)
				for i := range batch {
					x := src.Uniform(0, 10)
					batch[i] = []float64{x, 2*x + 1 + src.Normal(0, 0.3)}
				}
				// AddSamples routes through Ingest when streaming is on.
				if err := node.AddSamples(batch); err != nil {
					errs <- fmt.Errorf("ingest: %w", err)
				}
			}
		}(w)
	}
	// One goroutine forces full re-runs mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds/5; r++ {
			if err := node.Requantize(); err != nil {
				errs <- fmt.Errorf("requantize: %w", err)
			}
		}
	}()
	for w := 0; w < trainers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := node.Train(TrainRequest{Spec: spec, LocalEpochs: 1})
				if err != nil {
					errs <- fmt.Errorf("train: %w", err)
					continue
				}
				if resp.SamplesUsed == 0 || resp.SamplesUsed != resp.TotalSamples {
					errs <- fmt.Errorf("torn train response: used %d of %d", resp.SamplesUsed, resp.TotalSamples)
				}
			}
		}()
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sum := node.Summary()
				if err := sum.Validate(); err != nil {
					errs <- fmt.Errorf("summary: %w", err)
				}
				if _, ok := node.IngestStats(); !ok {
					errs <- fmt.Errorf("ingest stats vanished")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The buffer may hold a sub-batch remainder, but everything flushed
	// must be accounted for: each ingester moved 8×rounds rows.
	st, ok := node.IngestStats()
	if !ok {
		t.Fatal("ingestion not enabled")
	}
	if st.Batches == 0 || st.IncrementalRequants == 0 {
		t.Fatalf("incremental path never ran: %+v", st)
	}
	if st.FullRequants < int64(rounds/5) {
		t.Fatalf("forced full requantizations lost: %+v", st)
	}
	if sum := node.Summary(); sum.TotalSamples < 300 {
		t.Fatalf("ingested rows lost: %d total samples", sum.TotalSamples)
	}
}

// TestIngestDisabledGoldenStatelessSelectors pins that with ingestion
// disabled the freshness refactor is invisible to the data plane: a
// fleet with push subscriptions armed (but nothing streaming) answers
// every stateless selector bit-exactly like an untouched mirror fleet
// — same participants, same local params, same ensemble weights, same
// held-out MSE. Together with TestEngineTrainGoldenEquivalence (which
// pins the engine against the pre-engine request path) this anchors
// the whole chain back to the seed behavior.
func TestIngestDisabledGoldenStatelessSelectors(t *testing.T) {
	plain := testFleet(t)
	pushy := testFleet(t)
	if _, err := pushy.Leader.Summaries(); err != nil {
		t.Fatal(err)
	}
	if n, err := pushy.Leader.StartPush(context.Background()); err != nil || n != 4 {
		t.Fatalf("StartPush: n=%d err=%v", n, err)
	}
	t.Cleanup(pushy.Leader.StopPush)

	selectors := []selection.Selector{
		selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		selection.QueryDriven{Epsilon: 0.6, Psi: 0.2},
		selection.Random{L: 2},
		selection.AllNodes{},
		selection.GameTheory{L: 2},
	}
	for _, sel := range selectors {
		t.Run(sel.Name(), func(t *testing.T) {
			var queries []query.Query
			for i, rect := range [][4]float64{
				{10, -50, 40, 150},
				{45, -50, 80, 200},
			} {
				q, err := query.New(fmt.Sprintf("golden-%d", i),
					geometry.MustRect([]float64{rect[0], rect[1]}, []float64{rect[2], rect[3]}))
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, q)
			}
			for _, q := range queries {
				a, errA := plain.Execute(q, sel, WeightedAveraging)
				b, errB := pushy.Execute(q, sel, WeightedAveraging)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("error divergence: %v vs %v", errA, errB)
				}
				if errA != nil {
					continue
				}
				if !reflect.DeepEqual(a.Participants, b.Participants) {
					t.Fatalf("participants diverge:\n%+v\nvs\n%+v", a.Participants, b.Participants)
				}
				if !reflect.DeepEqual(a.LocalParams, b.LocalParams) {
					t.Fatalf("local params diverge")
				}
				if !reflect.DeepEqual(a.Ensemble.Weights(), b.Ensemble.Weights()) {
					t.Fatalf("ensemble weights diverge: %v vs %v", a.Ensemble.Weights(), b.Ensemble.Weights())
				}
				mseA, nA, okA := EvaluateResult(a, plain.Test)
				mseB, nB, okB := EvaluateResult(b, pushy.Test)
				if okA != okB || nA != nB || mseA != mseB {
					t.Fatalf("held-out MSE diverges: %v/%d/%v vs %v/%d/%v", mseA, nA, okA, mseB, nB, okB)
				}
			}
		})
	}
}
