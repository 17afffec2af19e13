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

// TestEngineStagingFollowsSnapshot pins the per-snapshot staging of
// cluster rows: after a mutation that keeps the epoch (an ingest flush
// with immaterial movement) and after one that bumps it (a
// requantization), a Train equals the same job on an engine freshly
// built from the new state and a fit done by hand from its cluster
// views, while the old snapshot keeps its staged rows. Then jobs race
// a chain of mutations, and each must equal that result for the epoch
// it reports pinning.
func TestEngineStagingFollowsSnapshot(t *testing.T) {
	ctx := context.Background()
	job := TrainJob{Spec: ml.PaperLR(2), Seed: 3, Clusters: []int{0, 1, 2, 3}, Epochs: 2}
	train := func(e *Engine) TrainResult {
		t.Helper()
		res, err := e.Train(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(what string, got, want TrainResult) {
		t.Helper()
		if got.SamplesUsed != want.SamplesUsed || len(got.Params.Values) != len(want.Params.Values) {
			t.Fatalf("%s: %d samples, %d params; want %d, %d", what,
				got.SamplesUsed, len(got.Params.Values), want.SamplesUsed, len(want.Params.Values))
		}
		for i, v := range want.Params.Values {
			if got.Params.Values[i] != v {
				t.Fatalf("%s: param %d = %v, want %v", what, i, got.Params.Values[i], v)
			}
		}
	}
	// fresh is the job on an engine freshly built from (d, q), checked
	// against the job's fit done by hand from the quantization's views.
	fresh := func(d *dataset.Dataset, q *cluster.Quantization) TrainResult {
		t.Helper()
		spec := job.Spec
		spec.Seed = job.Seed
		m := spec.MustNew()
		want := TrainResult{}
		for _, k := range job.Clusters {
			view, err := q.ClusterView(k)
			if err != nil {
				t.Fatal(err)
			}
			x, y := view.XYInto(nil, nil)
			if err := m.PartialFitBatch(ctx, x, y, job.Epochs); err != nil {
				t.Fatal(err)
			}
			want.SamplesUsed += len(y)
		}
		want.Params = m.Params()
		got := train(New(Config{NodeID: "fresh", Parallelism: 1, Registry: &telemetry.Registry{}}, d, q))
		same("fresh engine", got, want)
		return want
	}
	// grow appends rows to cur's data and quantizes the result afresh.
	grow := func(cur *dataset.Dataset, rows int, seed uint64) (*dataset.Dataset, *cluster.Quantization) {
		src := rng.New(seed)
		add := make([][]float64, rows)
		for i := range add {
			x0, x1 := src.Uniform(0, 10), src.Uniform(-5, 5)
			add[i] = []float64{x0, x1, 2*x0 - x1}
		}
		d, err := cur.CopyAppend(add)
		if err != nil {
			t.Fatal(err)
		}
		q, err := cluster.Quantize(d, cluster.Config{K: 4}, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		return d, q
	}

	d0, q0 := testState(t, 400, 4)
	e := New(Config{NodeID: "t", Parallelism: 2, Registry: &telemetry.Registry{}}, d0, q0)
	same("epoch 1", train(e), fresh(d0, q0)) // stages the first snapshot
	old := e.Current()
	var oldX, oldY [][]float64
	for k := 0; k < 4; k++ {
		x, y, err := old.clusterXY(k)
		if err != nil {
			t.Fatal(err)
		}
		oldX, oldY = append(oldX, append([]float64(nil), x...)), append(oldY, append([]float64(nil), y...))
	}

	steps := []struct {
		name string
		bump bool
		rows int
	}{{"ingest, epoch kept", false, 60}, {"requantize, epoch bumped", true, 0}}
	for i, st := range steps {
		var d *dataset.Dataset
		var q *cluster.Quantization
		err := e.MutateEpoch(func(cur *Snapshot) (*dataset.Dataset, *cluster.Quantization, bool, error) {
			d, q = grow(cur.Data, st.rows, uint64(20+i))
			return d, q, st.bump, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		same(st.name, train(e), fresh(d, q))
	}
	for k := 0; k < 4; k++ {
		x, y, _ := old.clusterXY(k)
		view, _ := old.Quant.ClusterView(k)
		vx, vy := view.XY()
		for i := range y {
			if y[i] != oldY[k][i] || y[i] != vy[i] || x[i*2] != oldX[k][i*2] || x[i*2] != vx[i][0] || x[i*2+1] != vx[i][1] {
				t.Fatalf("old snapshot's cluster %d row %d changed after the mutations", k, i)
			}
		}
	}

	// Jobs racing mutations: precompute each epoch's state and answer.
	type state struct {
		d    *dataset.Dataset
		q    *cluster.Quantization
		want TrainResult
	}
	cur := e.Current()
	states := map[uint64]state{cur.Epoch: {cur.Data, cur.Quant, fresh(cur.Data, cur.Quant)}}
	for i, d := uint64(1), cur.Data; i <= 4; i++ {
		var q *cluster.Quantization
		d, q = grow(d, 25, 40+i)
		states[cur.Epoch+i] = state{d, q, fresh(d, q)}
	}
	// Four workers run eight jobs each; the test publishes the next
	// epoch after every sixth result it reads, so jobs straddle every
	// mutation. The buffer holds every result, so no worker outlives
	// a failed check blocked on a send.
	var wg sync.WaitGroup
	results := make(chan TrainResult, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				res, err := e.Train(ctx, job)
				if err != nil {
					t.Error(err)
					return
				}
				results <- res
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	read, published := 0, uint64(0)
	for res := range results {
		if read++; read%6 == 0 && published < 4 {
			published++
			st := states[cur.Epoch+published]
			if err := e.Mutate(func(*Snapshot) (*dataset.Dataset, *cluster.Quantization, error) { return st.d, st.q, nil }); err != nil {
				t.Error(err)
			}
		}
		st, ok := states[res.Epoch]
		if !ok {
			t.Errorf("a job reports epoch %d, outside the mutation chain", res.Epoch)
			continue
		}
		same("racing job", res, st.want)
	}
	if published != 4 {
		t.Fatalf("published %d of 4 epochs", published)
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

// TestEngineTrainWarmAllocs pins the warm train job's allocation
// budget for both model families: with the model pool warm and the
// snapshot's cluster rows staged, a Train job allocates no more than
// the Params it returns — no per-job pool key, slot or model-return
// closures, generator, model arena, staging copy or (NN) per-mini-batch
// matrix header.
func TestEngineTrainWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not meaningful")
	}
	ctx := context.Background()
	e := testEngine(t, 1)
	for _, spec := range []ml.Spec{ml.PaperLR(2), ml.PaperNN(2)} {
		spec.Seed = 5
		model := spec.MustNew()
		job := TrainJob{Spec: spec, Seed: 7, Params: model.Params(), Clusters: []int{0, 1, 2, 3}, Epochs: 5}
		if _, err := e.Train(ctx, job); err != nil { // warm the pool and the staged rows
			t.Fatal(err)
		}
		budget := testing.AllocsPerRun(20, func() { model.Params() })
		got := testing.AllocsPerRun(20, func() {
			if _, err := e.Train(ctx, job); err != nil {
				t.Fatal(err)
			}
		})
		if budget == 0 || got > budget {
			t.Fatalf("%s: warm Train allocates %v per job, want <= %v (its Params)", spec.Kind, got, budget)
		}
	}
}
