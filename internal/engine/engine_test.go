package engine

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
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

// TestEngineStagingFollowsSnapshot races Train and Evaluate jobs
// against a chain of mutations that alternate an ingest flush, which
// appends rows and keeps the epoch, with a requantization, which bumps
// it. Every job must equal the reference for the snapshot it reports
// pinning — its epoch and row count — worked out by a fresh model over
// materialized copies of that snapshot's rows. The first snapshot,
// still pinned by the test, must read the same rows after the chain.
func TestEngineStagingFollowsSnapshot(t *testing.T) {
	ctx := context.Background()
	spec := ml.PaperLR(2)
	job := TrainJob{Spec: spec, Seed: 3, Clusters: []int{0, 1, 2, 3}, Epochs: 2}
	evalJob := EvalJob{Spec: spec, Seed: 4}

	type key struct {
		epoch uint64
		rows  int
	}
	type state struct {
		d     *dataset.Dataset
		q     *cluster.Quantization
		bump  bool
		train ml.Params
		mse   float64
	}
	// reference fills in the answers for st: the train job fitted
	// cluster by cluster on materialized copies, and the evaluation
	// scored over a copy of the whole data.
	reference := func(st *state) {
		t.Helper()
		s := spec
		s.Seed = job.Seed
		m := s.MustNew()
		for _, k := range job.Clusters {
			cd, err := st.q.ClusterData(k)
			if err != nil {
				t.Fatal(err)
			}
			if cd.Len() == 0 {
				continue
			}
			if err := m.PartialFit(ctx, cd.View(), job.Epochs); err != nil {
				t.Fatal(err)
			}
		}
		st.train = m.Params()
		s.Seed = evalJob.Seed
		em := s.MustNew()
		if err := em.SetParams(evalJob.Params); err != nil {
			t.Fatal(err)
		}
		st.mse = ml.Loss(em, st.d.Clone().View())
	}

	d0, q0 := testState(t, 400, 4)
	scored := spec
	scored.Seed = 5
	m := scored.MustNew()
	if err := m.Fit(d0.View()); err != nil {
		t.Fatal(err)
	}
	evalJob.Params = m.Params()
	first := &state{d: d0, q: q0}
	reference(first)
	states := map[key]*state{{1, d0.Len()}: first}
	chain := []*state{}
	src := rng.New(20)
	for i, k, d := 0, (key{1, d0.Len()}), d0; i < 6; i++ {
		st := &state{d: d, bump: i%2 == 1}
		if st.bump {
			k.epoch++
		} else {
			add := make([][]float64, 25)
			for r := range add {
				x0, x1 := src.Uniform(0, 10), src.Uniform(-5, 5)
				add[r] = []float64{x0, x1, 2*x0 - x1}
			}
			var err error
			if st.d, err = d.CopyAppend(add); err != nil {
				t.Fatal(err)
			}
			k.rows = st.d.Len()
		}
		var err error
		if st.q, err = cluster.Quantize(st.d, cluster.Config{K: 4}, rng.New(uint64(30+i))); err != nil {
			t.Fatal(err)
		}
		reference(st)
		states[k], d = st, st.d
		chain = append(chain, st)
	}

	e := New(Config{NodeID: "t", Parallelism: 2, Registry: &telemetry.Registry{}}, d0, q0)
	old := e.Current()
	var oldRows [][]float64
	for k := range job.Clusters {
		cd, err := old.Quant.ClusterData(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cd.Len() {
			oldRows = append(oldRows, cd.Row(i))
		}
	}

	// Four workers run eight jobs each, Train and Evaluate in turn; the
	// test publishes the next state after every fifth result it reads,
	// so jobs straddle every mutation. The buffer holds every result,
	// so no worker outlives a failed check blocked on a send.
	type result struct {
		k     key
		train *TrainResult
		eval  *EvalResult
	}
	var wg sync.WaitGroup
	results := make(chan result, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if j%2 == g%2 {
					res, err := e.Train(ctx, job)
					if err != nil {
						t.Error(err)
						return
					}
					results <- result{k: key{res.Epoch, res.TotalSamples}, train: &res}
					continue
				}
				res, err := e.Evaluate(ctx, evalJob)
				if err != nil {
					t.Error(err)
					return
				}
				results <- result{k: key{res.Epoch, res.Samples}, eval: &res}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	read, published := 0, 0
	for res := range results {
		if read++; read%5 == 0 && published < len(chain) {
			st := chain[published]
			published++
			err := e.MutateEpoch(func(*Snapshot) (*dataset.Dataset, *cluster.Quantization, bool, error) {
				return st.d, st.q, st.bump, nil
			})
			if err != nil {
				t.Error(err)
			}
		}
		st, ok := states[res.k]
		switch {
		case !ok:
			t.Errorf("a job reports epoch %d over %d rows, outside the mutation chain", res.k.epoch, res.k.rows)
		case res.train != nil:
			for i, v := range st.train.Values {
				if res.train.Params.Values[i] != v {
					t.Errorf("train on epoch %d, %d rows: param %d = %v, want %v", res.k.epoch, res.k.rows, i, res.train.Params.Values[i], v)
					break
				}
			}
		case math.Float64bits(res.eval.MSE) != math.Float64bits(st.mse):
			t.Errorf("evaluate on epoch %d, %d rows: MSE %v, want %v", res.k.epoch, res.k.rows, res.eval.MSE, st.mse)
		}
	}
	if published != len(chain) {
		t.Fatalf("published %d of %d states", published, len(chain))
	}
	var after [][]float64
	for k := range job.Clusters {
		view, _ := old.Quant.ClusterView(k)
		for i := range view.Len() {
			after = append(after, view.Row(i))
		}
	}
	for i, row := range oldRows {
		for c, v := range row {
			if after[i][c] != v {
				t.Fatalf("the pinned first snapshot's row %d changed after the mutations", i)
			}
		}
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
// budget for both model families: with the model pool warm, a Train
// job allocates no more than the Params it returns — no per-job pool
// key, slot or model-return closures, generator, model arena, row copy
// or (NN) per-mini-batch matrix header.
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
		if _, err := e.Train(ctx, job); err != nil { // warm the pool
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

// TestEngineWholeDataPinned pins the two jobs that read a snapshot's
// whole local data: a whole-data Train (Clusters nil) and Evaluate,
// for both model families, over more rows than one evaluation chunk.
// Evaluate scores the params the Train returned, so both pins move if
// either path changes a bit.
func TestEngineWholeDataPinned(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		spec   ml.Spec
		params uint64
		mse    uint64
	}{
		{ml.PaperLR(2), 0x60dc278a4b1adb43, 0x3ff0e2fafd9068dc},
		{ml.PaperNN(2), 0xeaf2af8cb94f2593, 0x402102351788498b},
	}
	for _, c := range cases {
		d, q := testState(t, 1100, 4)
		e := New(Config{NodeID: "t", Parallelism: 1, Registry: &telemetry.Registry{}}, d, q)
		res, err := e.Train(ctx, TrainJob{Spec: c.spec, Seed: 11, Epochs: 3})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := e.Evaluate(ctx, EvalJob{Spec: c.spec, Seed: 12, Params: res.Params})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, v := range res.Params.Values {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
		if got := h.Sum64(); got != c.params || res.SamplesUsed != 1100 {
			t.Errorf("%s: whole-data Train params hash %#x over %d rows, want %#x over 1100", c.spec.Kind, got, res.SamplesUsed, c.params)
		}
		if got := math.Float64bits(ev.MSE); got != c.mse || ev.Samples != 1100 {
			t.Errorf("%s: Evaluate MSE %v (bits %#x) over %d rows, want bits %#x over 1100", c.spec.Kind, ev.MSE, got, ev.Samples, c.mse)
		}
	}
}
