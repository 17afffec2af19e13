package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/telemetry"
)

// testState builds a small quantized shard for engine tests.
func testState(t testing.TB, n, k int) (*dataset.Dataset, *cluster.Quantization) {
	t.Helper()
	d := dataset.MustNew([]string{"x0", "x1", "y"}, "y")
	src := rng.New(13)
	for i := 0; i < n; i++ {
		x0 := src.Uniform(0, 10)
		x1 := src.Uniform(-5, 5)
		d.MustAppend([]float64{x0, x1, 2*x0 - x1 + src.Normal(0, 1)})
	}
	quant, err := cluster.Quantize(d, cluster.Config{K: k}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return d, quant
}

func testEngine(t testing.TB, parallelism int) *Engine {
	t.Helper()
	d, q := testState(t, 400, 4)
	return New(Config{NodeID: "test", Parallelism: parallelism, Registry: &telemetry.Registry{}}, d, q)
}

// TestEngineInflightBound verifies the admission semaphore: with
// Parallelism=2 and 8 concurrent Train jobs, the observed in-flight
// count never exceeds 2 and every job still completes.
func TestEngineInflightBound(t *testing.T) {
	e := testEngine(t, 2)
	job := TrainJob{Spec: ml.PaperLR(2), Seed: 1, Clusters: []int{0, 1, 2, 3}, Epochs: 2}

	var maxSeen atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // sampler
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := e.Inflight(); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
		}
	}()

	var jobs sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		jobs.Add(1)
		go func(seed uint64) {
			defer jobs.Done()
			j := job
			j.Seed = seed
			if _, err := e.Train(context.Background(), j); err != nil {
				errs <- err
			}
		}(uint64(i + 1))
	}
	jobs.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got > 2 {
		t.Fatalf("in-flight reached %d with Parallelism=2", got)
	}
	if e.Inflight() != 0 {
		t.Fatalf("in-flight %d after all jobs drained", e.Inflight())
	}
}

// TestEngineQueuedJobHonorsContext verifies a job canceled while
// queued for a slot surfaces the context error without executing.
func TestEngineQueuedJobHonorsContext(t *testing.T) {
	e := testEngine(t, 1)

	// Occupy the only slot.
	if _, err := e.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.Train(ctx, TrainJob{Spec: ml.PaperLR(2), Seed: 1, Epochs: 1})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("queued train returned %v before slot freed", err)
	}
}

// TestEnginePoolReuseBitExact verifies that a pooled, previously-used
// model produces bit-identical results to a cold engine: two identical
// Train calls on one engine (second hits the pool) must match the
// second call on a fresh engine (always a miss).
func TestEnginePoolReuseBitExact(t *testing.T) {
	d, q := testState(t, 300, 4)
	mk := func() *Engine {
		return New(Config{NodeID: "t", Parallelism: 1, Registry: &telemetry.Registry{}}, d, q)
	}
	job := TrainJob{Spec: ml.PaperNN(2), Seed: 21, Clusters: []int{0, 1, 2, 3}, Epochs: 1}

	warm := mk()
	if _, err := warm.Train(context.Background(), job); err != nil { // populate pool
		t.Fatal(err)
	}
	got, err := warm.Train(context.Background(), job) // pool hit: Reinit path
	if err != nil {
		t.Fatal(err)
	}
	want, err := mk().Train(context.Background(), job) // pool miss: Spec.New path
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params.Values) != len(want.Params.Values) {
		t.Fatalf("param lengths %d vs %d", len(got.Params.Values), len(want.Params.Values))
	}
	for i := range want.Params.Values {
		if got.Params.Values[i] != want.Params.Values[i] {
			t.Fatalf("param %d: pooled %v != fresh %v", i, got.Params.Values[i], want.Params.Values[i])
		}
	}
}

// TestEngineMutateEpochAndPinning verifies Mutate bumps the epoch and
// that a job which pinned the old snapshot is unaffected by a
// concurrent mutation.
func TestEngineMutateEpochAndPinning(t *testing.T) {
	e := testEngine(t, 1)
	if e.Epoch() != 1 {
		t.Fatalf("initial epoch %d", e.Epoch())
	}
	old := e.Current()
	oldLen := old.Data.Len()

	err := e.Mutate(func(cur *Snapshot) (*dataset.Dataset, *cluster.Quantization, error) {
		d2, err := cur.Data.CopyAppend([][]float64{{1, 2, 3}})
		if err != nil {
			return nil, nil, err
		}
		q2, err := cluster.Quantize(d2, cluster.Config{K: 4}, rng.New(9))
		if err != nil {
			return nil, nil, err
		}
		return d2, q2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 2 {
		t.Fatalf("epoch after mutate %d, want 2", e.Epoch())
	}
	// The pinned snapshot is untouched.
	if old.Epoch != 1 || old.Data.Len() != oldLen {
		t.Fatalf("pinned snapshot changed: epoch=%d len=%d", old.Epoch, old.Data.Len())
	}
	if e.Current().Data.Len() != oldLen+1 {
		t.Fatalf("new snapshot len %d, want %d", e.Current().Data.Len(), oldLen+1)
	}

	// A train result reports the epoch it pinned.
	res, err := e.Train(context.Background(), TrainJob{Spec: ml.PaperLR(2), Seed: 1, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 {
		t.Fatalf("train epoch %d, want 2", res.Epoch)
	}
}

// TestEngineTrainValidation covers the request validation edges.
func TestEngineTrainValidation(t *testing.T) {
	e := testEngine(t, 1)
	if _, err := e.Train(context.Background(), TrainJob{Spec: ml.PaperLR(2), Epochs: 0}); err == nil {
		t.Fatal("epochs=0 accepted")
	}
	if _, err := e.Train(context.Background(), TrainJob{Spec: ml.PaperLR(2), Epochs: 1, Clusters: []int{99}}); err == nil {
		t.Fatal("out-of-range cluster accepted")
	}
}

// TestEngineTrainWarmAllocs pins the warm LR train job's allocation
// budget: with the model pool and staging buffers warm, a Train job
// allocates no more than the Params it returns — no per-job pool key,
// slot or model-return closures, generator or model arena. (The NN
// kernel still allocates per mini-batch.)
func TestEngineTrainWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not meaningful")
	}
	ctx := context.Background()
	e := testEngine(t, 1)
	spec := ml.PaperLR(2)
	spec.Seed = 5
	model := spec.MustNew()
	job := TrainJob{Spec: ml.PaperLR(2), Seed: 7, Params: model.Params(), Clusters: []int{0, 1, 2, 3}, Epochs: 5}
	if _, err := e.Train(ctx, job); err != nil { // warm the pool and buffers
		t.Fatal(err)
	}
	budget := testing.AllocsPerRun(20, func() { model.Params() })
	got := testing.AllocsPerRun(20, func() {
		if _, err := e.Train(ctx, job); err != nil {
			t.Fatal(err)
		}
	})
	if budget == 0 || got > budget {
		t.Fatalf("warm Train allocates %v per job, want <= %v (its Params)", got, budget)
	}
}
