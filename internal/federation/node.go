// Package federation implements the distributed-learning mechanics of
// §III-A and §IV: participant nodes that quantize their local data and
// train models incrementally over query-supporting clusters, a leader
// that ranks and selects participants per query, and the two
// prediction-aggregation rules (Model Averaging, Eq. 6, and ranking-
// Weighted Averaging, Eq. 7).
//
// The leader talks to participants through the Client interface, so
// the same orchestration code runs over in-process nodes (LocalClient,
// used by the experiments) and over TCP (internal/transport).
package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/engine"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/telemetry"
)

// Node is a participant edge node: it owns a local dataset, a k-means
// quantization of that dataset, and the compute to train models on
// request. It never ships raw data — only cluster summaries, model
// parameters and scalar losses.
//
// All node state transits through an internal/engine.Engine: jobs
// (Train/Evaluate) execute against epoch-pinned snapshots under a
// bounded-concurrency executor, and mutations (AddSamples/Requantize)
// publish fresh snapshots copy-on-write, so a Node is safe for fully
// concurrent use.
type Node struct {
	id  string
	k   int
	src *rng.Source
	eng *engine.Engine

	// ingestMu guards ingest, the optional streaming ingestion state
	// (see ingest.go); nil means the classic full-requantize path.
	ingestMu sync.Mutex
	ingest   *ingester
}

// NodeOption customizes node construction.
type NodeOption func(*nodeOptions)

type nodeOptions struct {
	trainConcurrency int
}

// WithTrainConcurrency bounds how many Train/Evaluate jobs the node
// executes at once (the engine's semaphore width); excess requests
// queue. Zero or negative keeps the default (GOMAXPROCS).
func WithTrainConcurrency(n int) NodeOption {
	return func(o *nodeOptions) { o.trainConcurrency = n }
}

// NewNode quantizes data into k clusters and returns the participant.
func NewNode(id string, data *dataset.Dataset, k int, src *rng.Source, opts ...NodeOption) (*Node, error) {
	if id == "" {
		return nil, errors.New("federation: empty node id")
	}
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("federation: node %s has no data", id)
	}
	if k < 1 {
		return nil, fmt.Errorf("federation: node %s: invalid cluster count %d", id, k)
	}
	quant, err := cluster.Quantize(data, cluster.Config{K: k}, src.Split())
	if err != nil {
		return nil, fmt.Errorf("federation: node %s: %w", id, err)
	}
	return newNode(id, data, quant, k, src, opts), nil
}

// NewNodeFromQuantization builds a participant around a pre-computed
// quantization (e.g. cluster.GridQuantize), for deployments that use a
// synopsis other than k-means. Requantize on such a node re-runs
// k-means with K equal to the current cluster count.
func NewNodeFromQuantization(id string, quant *cluster.Quantization, src *rng.Source, opts ...NodeOption) (*Node, error) {
	if id == "" {
		return nil, errors.New("federation: empty node id")
	}
	if quant == nil || quant.Data == nil || quant.Data.Len() == 0 {
		return nil, fmt.Errorf("federation: node %s has no quantization", id)
	}
	return newNode(id, quant.Data, quant, len(quant.Result.Clusters), src, opts), nil
}

// newNode wires the engine around the initial snapshot (epoch 1).
func newNode(id string, data *dataset.Dataset, quant *cluster.Quantization, k int, src *rng.Source, opts []NodeOption) *Node {
	var o nodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	eng := engine.New(engine.Config{NodeID: id, Parallelism: o.trainConcurrency}, data, quant)
	return &Node{id: id, k: k, src: src, eng: eng}
}

// AddSamples appends newly collected rows to the node's local dataset
// and re-runs the quantization so the next advertisement reflects the
// fresh data space (the leader must InvalidateSummaries to pick it
// up). Rows must match the node's schema.
//
// The update is copy-on-write: concurrent Train/Evaluate jobs keep the
// snapshot they started with and the new state becomes visible — with
// a bumped epoch — only to jobs admitted after AddSamples returns.
//
// With streaming ingestion enabled (EnableIngest) the rows instead
// enter the bounded ingest buffer and reach the quantization through
// incremental mini-batch updates; see ingest.go.
func (n *Node) AddSamples(rows [][]float64) error {
	n.ingestMu.Lock()
	ing := n.ingest
	n.ingestMu.Unlock()
	if ing != nil {
		return n.Ingest(rows)
	}
	err := n.eng.Mutate(func(cur *engine.Snapshot) (*dataset.Dataset, *cluster.Quantization, error) {
		data, err := cur.Data.CopyAppend(rows)
		if err != nil {
			return nil, nil, err
		}
		quant, err := cluster.Quantize(data, cluster.Config{K: n.k}, n.src.Split())
		if err != nil {
			return nil, nil, err
		}
		return data, quant, nil
	})
	if err != nil {
		return fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	return nil
}

// Requantize recomputes the node's k-means quantization over the
// current local dataset and bumps the advertisement epoch, so leaders
// that see the new epoch echoed on later RPCs know their cached
// summaries drifted.
// With streaming ingestion enabled this is the forced full re-run: it
// drains the ingest buffer and re-anchors the drift detector through
// the same machinery autonomous escalation uses.
func (n *Node) Requantize() error {
	n.ingestMu.Lock()
	ing := n.ingest
	n.ingestMu.Unlock()
	if ing != nil {
		return n.forceFullRequantize(ing)
	}
	err := n.eng.Mutate(func(cur *engine.Snapshot) (*dataset.Dataset, *cluster.Quantization, error) {
		quant, err := cluster.Quantize(cur.Data, cluster.Config{K: n.k}, n.src.Split())
		if err != nil {
			return nil, nil, err
		}
		return cur.Data, quant, nil
	})
	if err != nil {
		return fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	return nil
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Data exposes the current local dataset snapshot for in-process test
// evaluation; the federation protocol itself never reads it remotely.
func (n *Node) Data() *dataset.Dataset { return n.eng.Current().Data }

// Engine exposes the node's training engine (metrics, concurrency
// introspection); primarily for daemons and tests.
func (n *Node) Engine() *engine.Engine { return n.eng }

// SummaryEpoch returns the node's current advertisement version.
func (n *Node) SummaryEpoch() uint64 { return n.eng.Epoch() }

// OnAdvertise registers fn to run after every mutation that bumps the
// advertisement epoch — the node-push seam. Immaterial incremental
// batches (published under the current epoch) do not fire it. fn runs
// on the mutating goroutine and should hand off quickly; it receives
// the freshly advertised summary. The returned func removes the
// registration (see engine.OnEpochBump).
func (n *Node) OnAdvertise(fn func(cluster.NodeSummary)) (unsubscribe func()) {
	return n.eng.OnEpochBump(func(uint64) {
		fn(n.Summary())
	})
}

// Summary returns the cluster advertisement sent to the leader,
// stamped with the node's current epoch. The quantization and epoch
// come from one snapshot, so a concurrent requantization can never
// produce a torn advertisement.
func (n *Node) Summary() cluster.NodeSummary {
	snap := n.eng.Current()
	s := snap.Quant.Summarize(n.id)
	s.Epoch = snap.Epoch
	return s
}

// TrainRequest asks a node to continue training a model locally.
type TrainRequest struct {
	// Spec describes the model architecture (must match Params).
	Spec ml.Spec `json:"spec"`
	// Params is the current global model w sent by the leader.
	Params ml.Params `json:"params"`
	// Clusters lists the supporting clusters to train on, in order;
	// nil means train on the whole local dataset (baseline
	// behaviour).
	Clusters []int `json:"clusters,omitempty"`
	// LocalEpochs is the paper's E: rounds of local iterations per
	// supporting cluster (or over the whole dataset when Clusters
	// is nil).
	LocalEpochs int `json:"local_epochs"`
	// TraceID/SpanID optionally attribute this round to the
	// originating query's trace (see internal/telemetry); transports
	// propagate them so remote daemon logs are correlatable.
	TraceID telemetry.ID `json:"trace_id,omitempty"`
	SpanID  telemetry.ID `json:"span_id,omitempty"`
}

// NodeSpan is one node-side timed phase of an RPC, piggybacked on the
// response when the request carried a trace context. The node reports
// only name + wall-clock interval; the leader mints span IDs and
// parents the span under the RPC span it holds, reassembling the
// cross-process trace tree without a separate span-shipping channel.
// On the wire they travel in their own section (tag 12) after the
// train body, and only when there are any.
type NodeSpan struct {
	// Name identifies the phase: "node.queue" (engine admission
	// wait) or "node.fit" (model compute).
	Name string `json:"name"`
	// StartUnixNS is the phase start as Unix nanoseconds on the
	// node's clock.
	StartUnixNS int64 `json:"start_unix_ns"`
	// DurationNS is the phase length in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
}

// Start returns the phase start as a time.Time.
func (s NodeSpan) Start() time.Time { return time.Unix(0, s.StartUnixNS) }

// End returns the phase end as a time.Time.
func (s NodeSpan) End() time.Time { return time.Unix(0, s.StartUnixNS+s.DurationNS) }

// phaseSpans converts an engine phase report into the piggybacked
// span list. The queue span starts at admission and the fit span is
// laid out right after it: both durations are exact; only the short
// gaps between the fits of successive clusters are left out.
func phaseSpans(p engine.Phases) []NodeSpan {
	if p.QueuedAt.IsZero() {
		return nil
	}
	out := make([]NodeSpan, 0, 2)
	cursor := p.QueuedAt
	add := func(name string, d time.Duration) {
		if d <= 0 {
			return
		}
		out = append(out, NodeSpan{Name: name, StartUnixNS: cursor.UnixNano(), DurationNS: int64(d)})
		cursor = cursor.Add(d)
	}
	add("node.queue", p.Queue)
	add("node.fit", p.Fit)
	return out
}

// TrainResponse carries the updated local model and accounting.
type TrainResponse struct {
	// Params is the locally updated model w_i^E.
	Params ml.Params `json:"params"`
	// SamplesUsed is how many local samples participated.
	SamplesUsed int `json:"samples_used"`
	// TotalSamples is the node's |D_i|.
	TotalSamples int `json:"total_samples"`
	// TrainTime is the wall-clock training duration on the node,
	// including any time spent queued for an engine slot.
	TrainTime time.Duration `json:"train_time"`
	// SummaryEpoch echoes the advertisement version of the snapshot
	// the round actually trained on. A value newer than what the
	// leader's registry snapshot recorded means the node requantized
	// since the advertisement was fetched — the drift signal that
	// triggers a registry refresh.
	SummaryEpoch uint64 `json:"summary_epoch,omitempty"`
	// Spans reports the node-side phase timings when the request
	// carried a trace context (see NodeSpan); empty otherwise.
	Spans []NodeSpan `json:"spans,omitempty"`
}

// Train implements the §IV-B participant step: load the global model,
// then run E epochs over each requested supporting cluster in turn
// (each cluster acting as a mini-batch per the §IV-A Remark), or over
// the whole dataset when no clusters are specified.
func (n *Node) Train(req TrainRequest) (TrainResponse, error) {
	return n.TrainContext(context.Background(), req)
}

// TrainContext is Train with deadline/cancellation support: the
// context is honored while the job queues for an engine slot, between
// supporting clusters, and at every mini-batch boundary inside the
// fit, so an expired query stops consuming node compute promptly.
func (n *Node) TrainContext(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	if err := ctx.Err(); err != nil {
		return TrainResponse{}, fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	if req.LocalEpochs < 1 {
		return TrainResponse{}, fmt.Errorf("federation: node %s: local epochs %d < 1", n.id, req.LocalEpochs)
	}
	start := time.Now()
	res, err := n.eng.Train(ctx, engine.TrainJob{
		Spec:     req.Spec,
		Seed:     uint64(n.src.Int63()),
		Params:   req.Params,
		Clusters: req.Clusters,
		Epochs:   req.LocalEpochs,
	})
	if err != nil {
		return TrainResponse{}, fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	out := TrainResponse{
		Params:       res.Params,
		SamplesUsed:  res.SamplesUsed,
		TotalSamples: res.TotalSamples,
		TrainTime:    time.Since(start),
		SummaryEpoch: res.Epoch,
	}
	if req.TraceID != 0 {
		out.Spans = phaseSpans(res.Phases)
	}
	return out, nil
}

// EvalRequest asks a node to score a model against its local data.
type EvalRequest struct {
	Spec   ml.Spec   `json:"spec"`
	Params ml.Params `json:"params"`
}

// EvalResponse carries the local loss.
type EvalResponse struct {
	// MSE is the mean squared error over the evaluated samples.
	MSE float64 `json:"mse"`
	// Samples is how many local samples were evaluated.
	Samples int `json:"samples"`
	// SummaryEpoch echoes the advertisement version of the snapshot
	// the evaluation ran against, so evaluations double as drift
	// signals exactly like training responses.
	SummaryEpoch uint64 `json:"summary_epoch,omitempty"`
}

// EvaluateContext implements the §II pre-test's scoring step: the node
// runs the provided model over its whole local data and reports the
// loss — the data itself never leaves the node. The context is honored
// while queued and between prediction mini-batches.
func (n *Node) EvaluateContext(ctx context.Context, req EvalRequest) (EvalResponse, error) {
	if err := ctx.Err(); err != nil {
		return EvalResponse{}, fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	res, err := n.eng.Evaluate(ctx, engine.EvalJob{
		Spec:   req.Spec,
		Seed:   uint64(n.src.Int63()),
		Params: req.Params,
	})
	if err != nil {
		return EvalResponse{}, fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	return EvalResponse{MSE: res.MSE, Samples: res.Samples, SummaryEpoch: res.Epoch}, nil
}
