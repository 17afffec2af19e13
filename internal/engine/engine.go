// Package engine is the node-side training engine: it owns a
// participant's data/quantization state and executes Train/Evaluate
// jobs against it under an explicit concurrency bound.
//
// The engine exists to make three guarantees that the pre-refactor
// Node could not:
//
//   - Bounded concurrency. Every job passes through a semaphore sized
//     by Config.Parallelism, so a burst of leader requests queues
//     instead of oversubscribing the node's cores. Queue wait and
//     in-flight counts are exported as metrics.
//
//   - Race-free mutation. Data state lives in an epoch-pinned
//     Snapshot behind an atomic pointer. Jobs pin the snapshot once at
//     admission and never observe a mutation mid-flight; AddSamples /
//     Requantize build a fresh snapshot copy-on-write and swap it in
//     under the mutate lock. A training round that raced an append
//     used to be a data race — now it deterministically sees either
//     the old epoch or the new one, never a torn mix.
//
//   - Allocation-free steady state. Models are pooled per spec
//     fingerprint and re-initialized in place (ml.Model.Reinit), and
//     data reaches the model as a zero-copy view of the snapshot's
//     one row store: a cluster Train hands each supporting cluster's
//     view (its member index over the dataset) straight to
//     ml.Model.PartialFit, which reads the rows where they lie. No job
//     copies a row, and a warm train job allocates only the Params it
//     returns.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/telemetry"
)

// Snapshot is one immutable generation of a node's local state: the
// dataset, its quantization, and the advertisement epoch they belong
// to. Jobs pin a snapshot at admission; mutators never modify a
// published snapshot, they publish a successor.
type Snapshot struct {
	// Data is the node's local dataset at this epoch. Its rows are
	// never mutated in place after publication (mutators go through
	// Dataset.CopyAppend), so concurrent readers are safe.
	Data *dataset.Dataset
	// Quant is the cluster synopsis over Data.
	Quant *cluster.Quantization
	// Epoch is the advertisement version: 1 for the initial state,
	// bumped by every successful Mutate.
	Epoch uint64
}

// Config parameterizes an Engine.
type Config struct {
	// NodeID labels the engine's metrics.
	NodeID string
	// Parallelism bounds concurrently executing jobs (Train and
	// Evaluate both count). Zero means runtime.GOMAXPROCS(0).
	Parallelism int
	// Registry receives the engine's metrics; nil means
	// telemetry.Default().
	Registry *telemetry.Registry
}

// Engine executes training and evaluation jobs over epoch-pinned
// snapshots with bounded concurrency and pooled working memory.
type Engine struct {
	cfg  Config
	sem  chan struct{}
	snap atomic.Pointer[Snapshot]

	// mutateMu serializes state mutation (Mutate); job execution never
	// takes it.
	mutateMu sync.Mutex

	// watchMu guards watchers, the epoch-bump callbacks registered via
	// OnEpochBump (the transport server's push notifier, in-process
	// leader subscriptions).
	watchMu  sync.Mutex
	watchers []epochWatcher
	watchSeq uint64

	pool modelPool

	inflight atomic.Int64
	metrics  engineMetrics
}

// engineMetrics holds the engine's metric handles, resolved once so
// the per-job hot path is pure atomics.
type engineMetrics struct {
	inflight   *telemetry.Gauge
	queueMS    *telemetry.Histogram
	clusterMS  *telemetry.Histogram
	jobsTotal  *telemetry.Counter
	epochGauge *telemetry.Gauge
	poolHits   *telemetry.Counter
	poolMisses *telemetry.Counter
}

// New builds an engine around the initial state. The initial epoch is
// 1, matching the pre-engine Node convention.
func New(cfg Config, data *dataset.Dataset, quant *cluster.Quantization) *Engine {
	if cfg.Parallelism < 1 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	node := telemetry.L("node", cfg.NodeID)
	reg.SetHelp("qens_node_train_inflight", "Jobs currently executing inside the node training engine.")
	reg.SetHelp("qens_node_train_queue_ms", "Time jobs spent queued for an engine slot (ms).")
	reg.SetHelp("qens_node_train_cluster_ms", "Per-supporting-cluster local training time (ms).")
	reg.SetHelp("qens_node_snapshot_epoch", "Current epoch of the node's data snapshot.")
	reg.SetHelp("qens_node_model_pool_total", "Model pool lookups by result (hit: arena reuse, miss: fresh build).")
	e := &Engine{
		cfg: cfg,
		sem: make(chan struct{}, cfg.Parallelism),
		metrics: engineMetrics{
			inflight:   reg.Gauge("qens_node_train_inflight", node...),
			queueMS:    reg.Histogram("qens_node_train_queue_ms", node...),
			clusterMS:  reg.Histogram("qens_node_train_cluster_ms", node...),
			jobsTotal:  reg.Counter("qens_node_engine_jobs_total", node...),
			epochGauge: reg.Gauge("qens_node_snapshot_epoch", node...),
			poolHits: reg.Counter("qens_node_model_pool_total",
				telemetry.Label{Key: "node", Value: cfg.NodeID}, telemetry.Label{Key: "result", Value: "hit"}),
			poolMisses: reg.Counter("qens_node_model_pool_total",
				telemetry.Label{Key: "node", Value: cfg.NodeID}, telemetry.Label{Key: "result", Value: "miss"}),
		},
	}
	e.pool.init(cfg.Parallelism)
	e.snap.Store(&Snapshot{Data: data, Quant: quant, Epoch: 1})
	e.metrics.epochGauge.Set(1)
	return e
}

// Parallelism returns the engine's concurrency bound.
func (e *Engine) Parallelism() int { return e.cfg.Parallelism }

// Inflight returns the number of jobs currently executing (post-queue).
func (e *Engine) Inflight() int64 { return e.inflight.Load() }

// Current returns the live snapshot. The returned value is immutable;
// callers may hold it as long as they like (epoch pinning).
func (e *Engine) Current() *Snapshot { return e.snap.Load() }

// Epoch returns the live snapshot's epoch.
func (e *Engine) Epoch() uint64 { return e.Current().Epoch }

// Mutate publishes a new snapshot built by fn from the current one,
// bumping the epoch. Mutations are serialized with each other but
// never block — and are never blocked by — executing jobs: in-flight
// jobs keep the snapshot they pinned at admission. fn must not modify
// cur or any row reachable from it; it builds fresh state (typically
// via Dataset.CopyAppend and a fresh Quantize) and returns it.
func (e *Engine) Mutate(fn func(cur *Snapshot) (*dataset.Dataset, *cluster.Quantization, error)) error {
	return e.MutateEpoch(func(cur *Snapshot) (*dataset.Dataset, *cluster.Quantization, bool, error) {
		data, quant, err := fn(cur)
		return data, quant, true, err
	})
}

// MutateEpoch is Mutate with control over the advertisement epoch: fn
// additionally returns bump=false to publish the successor snapshot
// under the *current* epoch. Readers still pin the fresher data, but
// nothing downstream (summary deltas, registry invalidation, push
// notifications) treats the node as changed — the incremental ingest
// path uses this for immaterial centroid/bound movement so a trickle of
// samples does not stampede the leader with re-advertisements.
func (e *Engine) MutateEpoch(fn func(cur *Snapshot) (*dataset.Dataset, *cluster.Quantization, bool, error)) error {
	e.mutateMu.Lock()
	cur := e.Current()
	data, quant, bump, err := fn(cur)
	if err != nil {
		e.mutateMu.Unlock()
		return err
	}
	epoch := cur.Epoch
	if bump {
		epoch++
	}
	next := &Snapshot{Data: data, Quant: quant, Epoch: epoch}
	e.snap.Store(next)
	e.metrics.epochGauge.Set(float64(next.Epoch))
	var watchers []epochWatcher
	if bump {
		e.watchMu.Lock()
		watchers = append(watchers, e.watchers...)
		e.watchMu.Unlock()
	}
	e.mutateMu.Unlock()
	// Notify outside mutateMu so a slow watcher (an in-process registry
	// patch, a push write) never blocks the next mutation. Watchers that
	// read state must re-load Current; the epoch argument is a floor.
	for _, w := range watchers {
		w.fn(epoch)
	}
	return nil
}

// epochWatcher is one registered epoch-bump callback, identity-tagged
// so OnEpochBump's unsubscribe can remove exactly this registration.
type epochWatcher struct {
	id uint64
	fn func(uint64)
}

// OnEpochBump registers fn to run after every snapshot publication that
// bumped the epoch — the seam the transport server's push notifier and
// in-process leader subscriptions hang off. fn runs on the mutating
// goroutine after the snapshot is visible; it should hand off quickly.
// The returned func removes the registration (idempotent) — callers
// with a lifetime shorter than the engine (a transport server cycling
// through Serve/Shutdown) must call it or their closure keeps firing.
func (e *Engine) OnEpochBump(fn func(epoch uint64)) (unsubscribe func()) {
	e.watchMu.Lock()
	e.watchSeq++
	id := e.watchSeq
	e.watchers = append(e.watchers, epochWatcher{id: id, fn: fn})
	e.watchMu.Unlock()
	return func() {
		e.watchMu.Lock()
		for i := range e.watchers {
			if e.watchers[i].id == id {
				e.watchers = append(e.watchers[:i], e.watchers[i+1:]...)
				break
			}
		}
		e.watchMu.Unlock()
	}
}

// acquire claims an execution slot, waiting in the admission queue
// until one frees or ctx is done. It returns the time spent queued (the
// same value qens_node_train_queue_ms observes, surfaced so jobs can
// attribute it in their phase report). A nil error obliges the caller
// to release the slot exactly once.
//
// ctx is checked at admission, so an expired deadline is refused
// before it queues. Only a job that must queue reads ctx.Done: a
// context that keeps its deadline as a value (the transport's wire
// deadline) arms its timer there, and a job that runs at once arms none.
func (e *Engine) acquire(ctx context.Context) (wait time.Duration, err error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("engine: admission: %w", err)
	}
	start := time.Now()
	select {
	case e.sem <- struct{}{}:
	default:
		// Slow path: queue for a slot or give up with the context.
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return 0, fmt.Errorf("engine: queued for train slot: %w", ctx.Err())
		}
	}
	wait = time.Since(start)
	e.metrics.queueMS.ObserveDuration(wait)
	e.metrics.inflight.Set(float64(e.inflight.Add(1)))
	e.metrics.jobsTotal.Inc()
	return wait, nil
}

// release frees a slot claimed by acquire.
func (e *Engine) release() {
	e.metrics.inflight.Set(float64(e.inflight.Add(-1)))
	<-e.sem
}
