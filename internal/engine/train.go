package engine

import (
	"context"
	"fmt"
	"time"

	"qens/internal/ml"
)

// TrainJob describes one local training round (the §IV-B participant
// step): load the global params into a model seeded with Seed, then
// run Epochs passes over each listed supporting cluster in turn (each
// cluster acting as a mini-batch per the §IV-A Remark), or over the
// whole local dataset when Clusters is nil.
type TrainJob struct {
	Spec     ml.Spec
	Seed     uint64
	Params   ml.Params
	Clusters []int
	Epochs   int
}

// Phases is the engine-side wall-clock decomposition of one training
// job, captured as plain values on the hot path (no allocation) so
// remote callers can reassemble a cross-process trace.
type Phases struct {
	// QueuedAt is when the job entered the admission queue.
	QueuedAt time.Time
	// Queue is the time spent waiting for an engine slot.
	Queue time.Duration
	// Stage is the cumulative data-staging time: the lookup of each
	// cluster's staged rows, plus the one-off staging of the snapshot
	// by its first cluster Train or the whole-data XYInto copy.
	Stage time.Duration
	// Fit is the cumulative model-compute time (PartialFitBatch).
	Fit time.Duration
	// Done is when the job finished.
	Done time.Time
}

// TrainResult carries the updated params and accounting for one round.
type TrainResult struct {
	Params       ml.Params
	SamplesUsed  int
	TotalSamples int
	// Epoch is the snapshot epoch the round trained against — the
	// drift signal echoed to the leader.
	Epoch uint64
	// Phases decomposes the round's wall time (queue/stage/fit).
	Phases Phases
}

// Train executes one training round: queue for a slot, pin the
// current snapshot, check a pooled model out, and fit each requested
// cluster's rows, staged once per snapshot (the first cluster job on
// it stages them all), through the model's flat fit path. ctx is
// honored while queued, between clusters and at every mini-batch
// boundary inside the fit.
//
// The arithmetic is bit-exact with the pre-engine path (materialize
// cluster → [][]float64 → PartialFit): the staged rows are the values
// the cluster's view delivers, in its order, and PartialFitBatch
// performs the same FLOPs as PartialFit.
func (e *Engine) Train(ctx context.Context, job TrainJob) (TrainResult, error) {
	if job.Epochs < 1 {
		return TrainResult{}, fmt.Errorf("engine: local epochs %d < 1", job.Epochs)
	}
	queuedAt := time.Now()
	wait, err := e.acquire(ctx)
	if err != nil {
		return TrainResult{}, err
	}
	defer e.release()
	phases := Phases{QueuedAt: queuedAt, Queue: wait}

	snap := e.Current() // pinned: mutations after this line are invisible
	model, err := e.acquireModel(job.Spec, job.Seed, job.Params)
	if err != nil {
		return TrainResult{}, err
	}
	defer e.pool.put(job.Spec, model)

	used := 0
	if len(job.Clusters) == 0 {
		bufs := e.getBuffers()
		defer e.putBuffers(bufs)
		view := snap.Data.View()
		stageStart := time.Now()
		x, y := view.XYInto(bufs.X[:0], bufs.Y[:0])
		bufs.X, bufs.Y = x, y
		fitStart := time.Now()
		phases.Stage += fitStart.Sub(stageStart)
		if err := model.PartialFitBatch(ctx, x, y, job.Epochs); err != nil {
			return TrainResult{}, err
		}
		phases.Fit += time.Since(fitStart)
		used = view.Len()
	} else {
		for _, c := range job.Clusters {
			if err := ctx.Err(); err != nil {
				return TrainResult{}, err
			}
			stageStart := time.Now()
			x, y, err := snap.clusterXY(c)
			if err != nil {
				return TrainResult{}, err
			}
			if len(y) == 0 {
				phases.Stage += time.Since(stageStart)
				continue
			}
			start := time.Now()
			phases.Stage += start.Sub(stageStart)
			if err := model.PartialFitBatch(ctx, x, y, job.Epochs); err != nil {
				return TrainResult{}, fmt.Errorf("cluster %d: %w", c, err)
			}
			fit := time.Since(start)
			phases.Fit += fit
			e.metrics.clusterMS.ObserveDuration(fit)
			used += len(y)
		}
		if used == 0 {
			return TrainResult{}, fmt.Errorf("no data in requested clusters %v", job.Clusters)
		}
	}
	phases.Done = time.Now()
	return TrainResult{
		Params:       model.Params(),
		SamplesUsed:  used,
		TotalSamples: snap.Data.Len(),
		Epoch:        snap.Epoch,
		Phases:       phases,
	}, nil
}

// EvalJob describes one scoring pass: run the model described by
// Spec/Seed/Params over the snapshot's whole local data and report the
// MSE.
type EvalJob struct {
	Spec   ml.Spec
	Seed   uint64
	Params ml.Params
}

// EvalResult carries the local loss.
type EvalResult struct {
	MSE     float64
	Samples int
	// Epoch is the snapshot epoch the score was computed against.
	Epoch uint64
}

// Evaluate executes one scoring job under the same admission
// discipline as Train. Predictions stream through pooled flat buffers
// in mini-batches, so arbitrarily large evaluations are ctx-responsive
// and allocation-free at steady state.
func (e *Engine) Evaluate(ctx context.Context, job EvalJob) (EvalResult, error) {
	if _, err := e.acquire(ctx); err != nil {
		return EvalResult{}, err
	}
	defer e.release()

	snap := e.Current()
	// Build the model before looking at the data: the seed is consumed
	// even when the node is empty, so seeded workload replays stay
	// aligned.
	model, err := e.acquireModel(job.Spec, job.Seed, job.Params)
	if err != nil {
		return EvalResult{}, err
	}
	defer e.pool.put(job.Spec, model)

	view := snap.Data.View()
	n := view.Len()
	if n == 0 {
		return EvalResult{Epoch: snap.Epoch}, nil
	}
	bufs := e.getBuffers()
	defer e.putBuffers(bufs)
	// Pre-size the staging buffers on the pooled struct so the grown
	// capacity survives into the next job (ForEachBatch reuses
	// capacity but cannot write the slice headers back).
	batch := e.cfg.EvalBatch
	if cap(bufs.X) < batch*view.FeatureDims() {
		bufs.X = make([]float64, batch*view.FeatureDims())
	}
	if cap(bufs.Y) < batch {
		bufs.Y = make([]float64, batch)
	}
	if cap(bufs.Pred) < batch {
		bufs.Pred = make([]float64, batch)
	}
	sse := 0.0
	err = view.ForEachBatch(ctx, e.cfg.EvalBatch, bufs.X, bufs.Y, func(x, y []float64) error {
		pred := bufs.Pred[:len(y)]
		model.PredictFlat(x, pred)
		for i, yi := range y {
			d := yi - pred[i]
			sse += d * d
		}
		return nil
	})
	if err != nil {
		return EvalResult{}, err
	}
	return EvalResult{MSE: sse / float64(n), Samples: n, Epoch: snap.Epoch}, nil
}
