package experiments

import (
	"context"
	"fmt"
	"strings"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Quantizer ablation: the paper quantizes node data spaces with
// k-means "e.g." — leaving the synopsis open. This experiment swaps in
// the classic equi-width grid and compares loss and data selectivity
// at matched synopsis sizes, quantifying what the data-adaptive
// clustering actually buys.

// QuantizerPoint is one synopsis family's outcome.
type QuantizerPoint struct {
	Quantizer string
	// MeanClusters is the average advertised clusters per node (the
	// grid drops empty cells, so it can be below the nominal size).
	MeanClusters float64
	Loss         float64
	DataFraction float64
	Executed     int
	// PairedLoss is the mean test MSE over the queries both arms
	// scored. Loss averages over the queries this arm scored, and the
	// arms score different sets: a query no node supports fails on one
	// synopsis and not the other.
	PairedLoss float64
}

// QuantizerResult compares the synopsis families. Paired counts the
// queries both arms scored.
type QuantizerResult struct {
	Points []QuantizerPoint
	Paired int
}

// String renders the comparison.
func (r QuantizerResult) String() string {
	var b strings.Builder
	b.WriteString("Quantizer ablation — k-means vs equi-width grid synopses\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s clusters/node=%.1f loss=%-10.2f data=%5.1f%%  (%d queries)\n",
			p.Quantizer, p.MeanClusters, p.Loss, 100*p.DataFraction, p.Executed)
	}
	fmt.Fprintf(&b, "paired   over the %d queries both arms scored:", r.Paired)
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %s loss=%.2f", p.Quantizer, p.PairedLoss)
	}
	b.WriteString("\n")
	return b.String()
}

// QuantizerAblation runs both synopsis families on the same corpus and
// workload: the workload is drawn once, over the first arm's space.
func QuantizerAblation(opts Options) (*QuantizerResult, error) {
	opts = opts.WithDefaults()
	data, err := dataset.PaperNodeDatasets(opts.datasetConfig())
	if err != nil {
		return nil, err
	}
	spec, err := opts.modelSpec()
	if err != nil {
		return nil, err
	}

	out := &QuantizerResult{}
	var (
		workload []query.Query
		scored   []map[string]float64
	)
	for _, family := range []string{"kmeans", "grid"} {
		root := rng.New(opts.Seed + 11)
		test := data[0].Empty()
		clients := make([]federation.Client, len(data))
		totalClusters := 0
		for i, d := range data {
			train, held := d.Split(0.2, root.Split())
			if err := test.Merge(held); err != nil {
				return nil, err
			}
			var node *federation.Node
			switch family {
			case "kmeans":
				node, err = federation.NewNode(fmt.Sprintf("node-%d", i), train, opts.ClusterK, root.Split())
			case "grid":
				// ceil(sqrt(K)) buckets per dim gives up to ~K cells
				// in 2-D, matching the k-means synopsis size.
				buckets := 1
				for buckets*buckets < opts.ClusterK {
					buckets++
				}
				var quant *cluster.Quantization
				quant, err = cluster.GridQuantize(train, buckets)
				if err == nil {
					node, err = federation.NewNodeFromQuantization(fmt.Sprintf("node-%d", i), quant, root.Split())
				}
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s node %d: %w", family, i, err)
			}
			totalClusters += node.Summary().K()
			clients[i] = federation.LocalClient{Node: node}
		}
		leader, err := federation.NewLeader(federation.Config{
			Spec: spec, ClusterK: opts.ClusterK, LocalEpochs: opts.LocalEpochs, Seed: opts.Seed + 12,
		}, nil, clients)
		if err != nil {
			return nil, err
		}
		if workload == nil {
			space, err := leader.Space(context.Background())
			if err != nil {
				return nil, err
			}
			workload, err = query.Workload(query.WorkloadConfig{Space: space, Count: opts.Queries}, rng.New(opts.Seed+13))
			if err != nil {
				return nil, err
			}
		}
		sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
		s := runStream(leader, workload, sel, federation.WeightedAveraging, test)
		if len(s.results) == 0 {
			return nil, fmt.Errorf("experiments: %s arm: %w", family, errNoneExecuted)
		}
		out.Points = append(out.Points, QuantizerPoint{
			Quantizer:    family,
			MeanClusters: float64(totalClusters) / float64(len(data)),
			Loss:         s.meanLoss(),
			DataFraction: s.frac / float64(len(s.results)),
			Executed:     s.scored,
		})
		scored = append(scored, s.mse)
	}
	k, g := &out.Points[0], &out.Points[1]
	for _, q := range workload {
		lk, okK := scored[0][q.ID]
		lg, okG := scored[1][q.ID]
		if okK && okG {
			out.Paired++
			k.PairedLoss += lk
			g.PairedLoss += lg
		}
	}
	if out.Paired > 0 {
		k.PairedLoss /= float64(out.Paired)
		g.PairedLoss /= float64(out.Paired)
	}
	return out, nil
}
