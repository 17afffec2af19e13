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
	// Fit is the cumulative model-compute time (PartialFit).
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
	// Phases decomposes the round's wall time (queue/fit).
	Phases Phases
}

// Train executes one training round: queue for a slot, pin the
// current snapshot, check a pooled model out, and fit each requested
// cluster's view of the snapshot's rows in turn. ctx is honored while
// queued, between clusters and at every mini-batch boundary inside
// the fit.
//
// The arithmetic is bit-exact with the pre-engine path (materialize
// cluster → fresh model → fit): the view delivers the cluster's rows
// in its member order, and the fit reads them in place.
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
		view := snap.Data.View()
		start := time.Now()
		if err := model.PartialFit(ctx, view, job.Epochs); err != nil {
			return TrainResult{}, err
		}
		phases.Fit += time.Since(start)
		used = view.Len()
	} else {
		for _, c := range job.Clusters {
			if err := ctx.Err(); err != nil {
				return TrainResult{}, err
			}
			view, err := snap.Quant.ClusterView(c)
			if err != nil {
				return TrainResult{}, err
			}
			if view.Len() == 0 {
				continue
			}
			start := time.Now()
			if err := model.PartialFit(ctx, view, job.Epochs); err != nil {
				return TrainResult{}, fmt.Errorf("cluster %d: %w", c, err)
			}
			fit := time.Since(start)
			phases.Fit += fit
			e.metrics.clusterMS.ObserveDuration(fit)
			used += view.Len()
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
// discipline as Train: the model's MSE over the snapshot's whole local
// data (ml.Loss).
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
	if view.Len() == 0 {
		return EvalResult{Epoch: snap.Epoch}, nil
	}
	return EvalResult{MSE: ml.Loss(model, view), Samples: view.Len(), Epoch: snap.Epoch}, nil
}
