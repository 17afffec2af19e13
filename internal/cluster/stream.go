// Streaming (incremental) requantization. A StreamQuantizer warm-starts
// from an existing k-means Result and folds mini-batches of new samples
// into the centroids with mini-batch k-means' per-centroid decaying
// learning rate (Sculley 2010) — but without re-seeding, so the
// cluster identities survive across batches and the leader's summaries
// stay comparable between epochs. A full assignment pass over the whole
// dataset (the only O(n·K) step) then rebuilds bounds/sizes/inertia;
// there is no Lloyd iteration loop, which is where the ≥3× win over a
// full Quantize comes from.
package cluster

import (
	"errors"
	"fmt"

	"qens/internal/dataset"
	"qens/internal/matrix"
)

// StreamQuantizer carries centroid state between incremental
// requantization batches. It is not safe for concurrent use; the
// engine's mutate lock serializes callers.
type StreamQuantizer struct {
	centroids [][]float64
	// counts is the per-centroid assignment mass driving the decaying
	// learning rate eta = 1/counts[k]. It is seeded from the cluster
	// sizes of the warm-start Result, so a centroid backed by n points
	// moves by ~1/n of the gap per absorbed sample — sticky under
	// stationary data, responsive on small clusters.
	counts []float64
	dims   int
}

// NewStreamQuantizer warm-starts from a full k-means result.
func NewStreamQuantizer(res *Result) (*StreamQuantizer, error) {
	if res == nil || len(res.Clusters) == 0 {
		return nil, errors.New("cluster: stream quantizer needs a non-empty result")
	}
	s := &StreamQuantizer{}
	s.Reset(res)
	return s, nil
}

// Reset re-anchors the quantizer on a fresh full result (after an
// escalated full requantization).
func (s *StreamQuantizer) Reset(res *Result) {
	s.centroids = make([][]float64, len(res.Clusters))
	s.counts = make([]float64, len(res.Clusters))
	for k, c := range res.Clusters {
		s.centroids[k] = matrix.CloneVec(c.Centroid)
		s.counts[k] = float64(c.Size)
		if s.counts[k] < 1 {
			s.counts[k] = 1
		}
	}
	s.dims = len(s.centroids[0])
}

// BatchStats reports how one absorbed batch related to the centroids it
// moved: the drift detector's raw signals.
type BatchStats struct {
	// AssignCounts is how many batch points landed in each cluster.
	AssignCounts []int
	// SqErr is the summed squared distance from each batch point to its
	// nearest centroid (measured before that point's update), i.e. the
	// batch's reconstruction error against the pre-batch codebook.
	SqErr float64
}

// Absorb folds one mini-batch of new samples into the centroids
// (Sculley-style: assign to nearest, then move that centroid toward the
// point by eta = 1/counts). It returns the batch's assignment counts
// and pre-update reconstruction error for drift accounting.
func (s *StreamQuantizer) Absorb(batch [][]float64) (BatchStats, error) {
	st := BatchStats{AssignCounts: make([]int, len(s.centroids))}
	for i, p := range batch {
		if len(p) != s.dims {
			return st, fmt.Errorf("cluster: stream point %d has %d dims, want %d", i, len(p), s.dims)
		}
		k := nearest(p, s.centroids)
		st.AssignCounts[k]++
		st.SqErr += matrix.SqDist(p, s.centroids[k])
		s.counts[k]++
		eta := 1 / s.counts[k]
		for j := range s.centroids[k] {
			s.centroids[k][j] += eta * (p[j] - s.centroids[k][j])
		}
	}
	return st, nil
}

// Requantize rebuilds a full Result (assignments, bounds, sizes,
// inertia) for d's samples against the current streamed centroids:
// one parallel assignment pass, no Lloyd iterations.
func (s *StreamQuantizer) Requantize(d *dataset.Dataset) (*Result, error) {
	if d.Len() < len(s.centroids) {
		return nil, fmt.Errorf("%w: %d points for K=%d", ErrTooFewPoints, d.Len(), len(s.centroids))
	}
	if d.Dims() != s.dims {
		return nil, fmt.Errorf("cluster: dataset has %d dims, want %d", d.Dims(), s.dims)
	}
	assign := make([]int, d.Len())
	assignPoints(d.Values(), s.dims, s.centroids, assign)
	return buildResult(d.Values(), s.dims, s.centroids, assign, 0), nil
}
