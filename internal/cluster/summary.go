package cluster

import (
	"errors"
	"fmt"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/rng"
)

// Summary is what a node sends to the leader per cluster: the boundary
// rectangle, representative, and member count — never the raw data
// (paper §III-C: "The nodes just send to the leader the boundaries of
// their clusters and the number of the clusters per node").
type Summary struct {
	Bounds   geometry.Rect `json:"bounds"`
	Centroid []float64     `json:"centroid"`
	Size     int           `json:"size"`
}

// NodeSummary is the complete per-node advertisement.
type NodeSummary struct {
	NodeID   string    `json:"node_id"`
	Clusters []Summary `json:"clusters"`
	// TotalSamples is the node's |D_i|, used for the data-fraction
	// accounting of Fig. 9.
	TotalSamples int `json:"total_samples"`
	// Epoch is the node-side advertisement version: the node bumps it
	// every time it requantizes (or otherwise changes what it would
	// advertise). Zero means the producer predates versioning. The
	// leader's registry records it per node so drift echoed on later
	// RPCs can trigger an invalidation.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ErrNoClusters reports an empty node summary.
var ErrNoClusters = errors.New("cluster: node summary has no clusters")

// Validate checks structural invariants of the summary.
func (s NodeSummary) Validate() error {
	if s.NodeID == "" {
		return errors.New("cluster: node summary missing node id")
	}
	if len(s.Clusters) == 0 {
		return ErrNoClusters
	}
	total := 0
	dims := -1
	for i, c := range s.Clusters {
		if err := c.Bounds.Validate(); err != nil {
			return fmt.Errorf("cluster %d: %w", i, err)
		}
		if dims == -1 {
			dims = c.Bounds.Dims()
		} else if c.Bounds.Dims() != dims {
			return fmt.Errorf("cluster %d: dims %d != %d", i, c.Bounds.Dims(), dims)
		}
		if c.Size < 0 {
			return fmt.Errorf("cluster %d: negative size", i)
		}
		total += c.Size
	}
	if s.TotalSamples < total {
		return fmt.Errorf("cluster: total samples %d smaller than cluster members %d", s.TotalSamples, total)
	}
	return nil
}

// K returns the number of clusters advertised (the paper's K).
func (s NodeSummary) K() int { return len(s.Clusters) }

// SummaryDrift measures how far a node's advertisement has moved
// between two quantization epochs, in [0, 1]: 0 means every cluster
// rectangle is unchanged, 1 means no old cluster overlaps any new one.
// Each old cluster is greedily matched to the new cluster with the
// highest rectangle IoU; the complement of the size-weighted mean best
// IoU is the drift. Nodes (or leaders) can use it to decide when a
// re-advertisement is worth the communication.
func SummaryDrift(old, new NodeSummary) (float64, error) {
	if err := old.Validate(); err != nil {
		return 0, fmt.Errorf("cluster: drift: old summary: %w", err)
	}
	if err := new.Validate(); err != nil {
		return 0, fmt.Errorf("cluster: drift: new summary: %w", err)
	}
	dims := old.Clusters[0].Bounds.Dims()
	if new.Clusters[0].Bounds.Dims() != dims {
		return 0, fmt.Errorf("cluster: drift: dims %d vs %d", dims, new.Clusters[0].Bounds.Dims())
	}
	totalWeight := 0.0
	matched := 0.0
	for _, oc := range old.Clusters {
		best := 0.0
		for _, nc := range new.Clusters {
			if iou := geometry.IoU(oc.Bounds, nc.Bounds); iou > best {
				best = iou
			}
		}
		w := float64(oc.Size)
		if w <= 0 {
			w = 1
		}
		totalWeight += w
		matched += w * best
	}
	return 1 - matched/totalWeight, nil
}

// Quantization couples a node's dataset with its k-means result so the
// node can later retrieve the raw member rows of a supporting cluster
// (the data-selectivity step of §IV-A).
type Quantization struct {
	Data   *dataset.Dataset
	Result *Result
}

// Quantize clusters a node dataset over the joint data space (all
// columns, the paper's ξ = (x, y) samples).
func Quantize(d *dataset.Dataset, cfg Config, src *rng.Source) (*Quantization, error) {
	if d.Len() == 0 {
		return nil, dataset.ErrEmpty
	}
	res, err := KMeans(d, cfg, src)
	if err != nil {
		return nil, err
	}
	return &Quantization{Data: d, Result: res}, nil
}

// Summarize produces the NodeSummary advertisement for the leader.
func (q *Quantization) Summarize(nodeID string) NodeSummary {
	clusters := make([]Summary, len(q.Result.Clusters))
	for i, c := range q.Result.Clusters {
		clusters[i] = Summary{
			Bounds:   c.Bounds.Clone(),
			Centroid: append([]float64(nil), c.Centroid...),
			Size:     c.Size,
		}
	}
	return NodeSummary{NodeID: nodeID, Clusters: clusters, TotalSamples: q.Data.Len()}
}

// ClusterView returns the zero-copy view over the rows belonging to
// cluster k — the "mini-batch" the incremental training of §IV-B
// consumes. The cluster's member indices are already materialized by
// the quantizer, so building the view copies no sample data at all;
// this is the per-query inner loop of the training engine.
func (q *Quantization) ClusterView(k int) (dataset.View, error) {
	if k < 0 || k >= len(q.Result.Clusters) {
		return dataset.View{}, fmt.Errorf("cluster: index %d out of range (%d clusters)", k, len(q.Result.Clusters))
	}
	return q.Data.ViewOf(q.Result.Clusters[k].Members), nil
}

// ClusterData returns the rows belonging to cluster k as an
// independent dataset with the node's schema. It delegates to
// ClusterView and materializes the result; callers that only read
// should use ClusterView directly and skip the copy.
func (q *Quantization) ClusterData(k int) (*dataset.Dataset, error) {
	v, err := q.ClusterView(k)
	if err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}
