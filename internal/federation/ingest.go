// Streaming ingestion: the node-side half of the ingest-driven summary
// freshness pipeline. A node with ingestion enabled buffers newly
// collected rows and, at every batch boundary, folds them into its
// quantization incrementally (cluster.StreamQuantizer: Sculley-style
// mini-batch centroid updates + one assignment pass) instead of a full
// Lloyd re-run. The advertisement epoch is bumped only when the
// resulting summary moved materially (cluster.SummaryDrift), so a
// trickle of stationary samples refreshes local state without
// stampeding the leader. A per-cluster reconstruction-error /
// assignment-rate EWMA drift detector watches every batch and
// autonomously escalates to a full re-quantization when the streamed
// codebook stops describing the data; Node.Requantize forces a walk
// through the same path.
package federation

import (
	"fmt"
	"sync"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/engine"
)

const (
	// materialDrift is the cluster.SummaryDrift threshold at or above
	// which an incremental batch bumps the advertisement epoch; smaller
	// movement publishes the fresh snapshot under the current epoch.
	materialDrift = 0.01
	// ingestAlpha is the EWMA smoothing factor for both drift-detector
	// signals.
	ingestAlpha = 0.3
)

// IngestConfig parameterizes a node's streaming ingestion path.
type IngestConfig struct {
	// BatchSize bounds the ingest buffer: Ingest flushes a mini-batch
	// into the quantization whenever this many rows have accumulated.
	// Default 64.
	BatchSize int
	// EscalateError escalates to a full re-quantization when the EWMA
	// of per-batch reconstruction error (normalized by the per-point
	// inertia of the last full quantization) reaches this ratio.
	// Default 4.
	EscalateError float64
	// EscalateAssign escalates when the EWMA of the assignment-rate
	// shift — half the L1 distance between each batch's cluster
	// assignment distribution and the last full quantization's cluster
	// share distribution, in [0,1] — reaches this level. Default 0.5.
	EscalateAssign float64
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.EscalateError <= 0 {
		c.EscalateError = 4
	}
	if c.EscalateAssign <= 0 {
		c.EscalateAssign = 0.5
	}
	return c
}

// IngestStats is a point-in-time report of a node's ingestion state,
// surfaced in qensd's /healthz.
type IngestStats struct {
	// Buffered is the number of rows waiting for the next mini-batch.
	Buffered int `json:"buffered"`
	// Batches counts mini-batches absorbed incrementally.
	Batches int64 `json:"batches"`
	// IncrementalRequants counts snapshot publications built by the
	// incremental (assignment-pass-only) path.
	IncrementalRequants int64 `json:"incremental_requants"`
	// FullRequants counts full Lloyd re-runs through the ingest path
	// (autonomous escalations plus forced Requantize calls).
	FullRequants int64 `json:"full_requants"`
	// Escalations counts the subset of FullRequants the drift detector
	// triggered autonomously.
	Escalations int64 `json:"escalations"`
	// EpochBumps / SuppressedBumps split incremental publications by
	// whether the summary movement was material.
	EpochBumps      int64 `json:"epoch_bumps"`
	SuppressedBumps int64 `json:"suppressed_bumps"`
	// ErrEWMA and AssignEWMA expose the live detector signals.
	ErrEWMA    float64 `json:"err_ewma"`
	AssignEWMA float64 `json:"assign_ewma"`
}

// ingester is the per-node streaming state. Its mutex serializes
// ingest flushes and forced requantizations with each other; snapshot
// publication itself still goes through the engine's mutate lock.
type ingester struct {
	mu  sync.Mutex
	cfg IngestConfig
	buf [][]float64
	sq  *cluster.StreamQuantizer

	// advertised is the summary backing the last epoch bump; drift is
	// measured against it so immaterial movement accumulates across
	// batches instead of resetting each flush.
	advertised cluster.NodeSummary

	// Baselines from the last full quantization.
	basePerPoint float64
	baseShare    []float64

	errEWMA    float64
	assignEWMA float64

	stats IngestStats
}

// EnableIngest switches the node onto the streaming ingestion path:
// subsequent AddSamples/Ingest calls buffer rows and requantize
// incrementally, and Requantize becomes a forced full re-run through
// the same path (flushing the buffer first). Enabling is one-shot.
func (n *Node) EnableIngest(cfg IngestConfig) error {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if n.ingest != nil {
		return fmt.Errorf("federation: node %s: ingestion already enabled", n.id)
	}
	snap := n.eng.Current()
	sq, err := cluster.NewStreamQuantizer(snap.Quant.Result)
	if err != nil {
		return fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	ing := &ingester{cfg: cfg.withDefaults(), sq: sq, errEWMA: 1}
	ing.rebaseline(snap.Quant.Result, snap.Data.Len())
	adv := snap.Quant.Summarize(n.id)
	adv.Epoch = snap.Epoch
	ing.advertised = adv
	n.ingest = ing
	return nil
}

// IngestStats returns the streaming counters; ok is false when
// ingestion is not enabled.
func (n *Node) IngestStats() (IngestStats, bool) {
	n.ingestMu.Lock()
	ing := n.ingest
	n.ingestMu.Unlock()
	if ing == nil {
		return IngestStats{}, false
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	st := ing.stats
	st.Buffered = len(ing.buf)
	st.ErrEWMA = ing.errEWMA
	st.AssignEWMA = ing.assignEWMA
	return st, true
}

// Ingest appends freshly collected rows to the bounded ingest buffer,
// flushing a mini-batch through the incremental requantization path at
// every BatchSize boundary. It requires EnableIngest.
func (n *Node) Ingest(rows [][]float64) error {
	n.ingestMu.Lock()
	ing := n.ingest
	n.ingestMu.Unlock()
	if ing == nil {
		return fmt.Errorf("federation: node %s: ingestion not enabled", n.id)
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for _, r := range rows {
		ing.buf = append(ing.buf, append([]float64(nil), r...))
	}
	for len(ing.buf) >= ing.cfg.BatchSize {
		batch := ing.buf[:ing.cfg.BatchSize]
		rest := ing.buf[ing.cfg.BatchSize:]
		if err := n.flushBatch(ing, batch); err != nil {
			return fmt.Errorf("federation: node %s: %w", n.id, err)
		}
		ing.buf = append(ing.buf[:0:0], rest...)
	}
	return nil
}

// rebaseline re-anchors the drift detector on a fresh full result.
func (ing *ingester) rebaseline(res *cluster.Result, total int) {
	if total > 0 {
		ing.basePerPoint = res.Inertia / float64(total)
	} else {
		ing.basePerPoint = 0
	}
	ing.baseShare = make([]float64, len(res.Clusters))
	if total > 0 {
		for k, c := range res.Clusters {
			ing.baseShare[k] = float64(c.Size) / float64(total)
		}
	}
	ing.errEWMA = 1
	ing.assignEWMA = 0
}

// observeBatch folds one batch's raw signals into the detector EWMAs
// and reports whether escalation is due.
func (ing *ingester) observeBatch(st cluster.BatchStats, batchLen int) bool {
	if batchLen == 0 {
		return false
	}
	perPoint := st.SqErr / float64(batchLen)
	base := ing.basePerPoint
	if base <= 0 {
		base = 1e-12
	}
	a := ingestAlpha
	ing.errEWMA = a*(perPoint/base) + (1-a)*ing.errEWMA
	shift := 0.0
	for k, c := range st.AssignCounts {
		share := float64(c) / float64(batchLen)
		baseShare := 0.0
		if k < len(ing.baseShare) {
			baseShare = ing.baseShare[k]
		}
		if d := share - baseShare; d >= 0 {
			shift += d
		} else {
			shift -= d
		}
	}
	ing.assignEWMA = a*(shift/2) + (1-a)*ing.assignEWMA
	return ing.errEWMA >= ing.cfg.EscalateError || ing.assignEWMA >= ing.cfg.EscalateAssign
}

// flushBatch runs one mini-batch through the incremental path: absorb
// into the streamed centroids, publish a COW snapshot with a single
// assignment pass, bump the epoch only on material summary movement,
// and escalate to a full re-quantization when the detector fires.
// Callers hold ing.mu.
func (n *Node) flushBatch(ing *ingester, batch [][]float64) error {
	st, err := ing.sq.Absorb(batch)
	if err != nil {
		return err
	}
	ing.stats.Batches++
	if ing.observeBatch(st, len(batch)) {
		ing.stats.Escalations++
		return n.fullRequantizeLocked(ing, batch)
	}
	return n.eng.MutateEpoch(func(cur *engine.Snapshot) (*dataset.Dataset, *cluster.Quantization, bool, error) {
		data, err := cur.Data.CopyAppend(batch)
		if err != nil {
			return nil, nil, false, err
		}
		res, err := ing.sq.Requantize(data)
		if err != nil {
			return nil, nil, false, err
		}
		quant := &cluster.Quantization{Data: data, Result: res}
		next := quant.Summarize(n.id)
		drift, err := cluster.SummaryDrift(ing.advertised, next)
		if err != nil {
			return nil, nil, false, err
		}
		bump := drift >= materialDrift
		ing.stats.IncrementalRequants++
		if bump {
			ing.stats.EpochBumps++
			next.Epoch = cur.Epoch + 1
			ing.advertised = next
		} else {
			ing.stats.SuppressedBumps++
		}
		return data, quant, bump, nil
	})
}

// fullRequantizeLocked appends extra (possibly nil) pending rows and
// re-runs the full Lloyd quantization, re-anchoring the stream
// quantizer and drift detector on the result. Callers hold ing.mu.
func (n *Node) fullRequantizeLocked(ing *ingester, extra [][]float64) error {
	err := n.eng.MutateEpoch(func(cur *engine.Snapshot) (*dataset.Dataset, *cluster.Quantization, bool, error) {
		data := cur.Data
		if len(extra) > 0 {
			var err error
			data, err = cur.Data.CopyAppend(extra)
			if err != nil {
				return nil, nil, false, err
			}
		}
		quant, err := cluster.Quantize(data, cluster.Config{K: n.k}, n.src.Split())
		if err != nil {
			return nil, nil, false, err
		}
		ing.sq.Reset(quant.Result)
		ing.rebaseline(quant.Result, data.Len())
		next := quant.Summarize(n.id)
		next.Epoch = cur.Epoch + 1
		ing.advertised = next
		ing.stats.FullRequants++
		return data, quant, true, nil
	})
	return err
}

// forceFullRequantize is the forced full re-run behind Requantize when
// ingestion is enabled: it drains the buffer into the dataset and
// requantizes from scratch through the same machinery the autonomous
// escalation uses.
func (n *Node) forceFullRequantize(ing *ingester) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	pending := ing.buf
	ing.buf = nil
	if err := n.fullRequantizeLocked(ing, pending); err != nil {
		return fmt.Errorf("federation: node %s: %w", n.id, err)
	}
	return nil
}
