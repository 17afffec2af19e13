// Drift scenario, streaming edition: autonomous drift response with
// no operator in the loop.
//
// One node of a simulated fleet ingests a continuous stream of rows.
// While the stream matches the node's historical distribution, the
// incremental requantization path absorbs mini-batches quietly: the
// codebook tracks the data and the advertisement epoch bumps only on
// material movement. Then the stream's distribution shifts — a regime
// change the node's EWMA drift detector sees as rising reconstruction
// error and a skewed assignment distribution. The node escalates to a
// full re-quantization *on its own* (no operator action), and the
// fresh advertisement is *pushed* to the subscribed leader the moment
// it exists, so the leader's registry — and every ranking computed
// from it — reflects the new data space without a pull.
//
// The example asserts the whole pipeline end to end and exits
// non-zero if any stage fails to fire.
//
// Run: go run ./examples/drift
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/rng"
)

const (
	seed      = 5
	nodes     = 6
	samples   = 800
	batchSize = 32
	// driftShift displaces every feature by this fraction of its range
	// once the regime changes; 0.75 is far outside the 5% jitter the
	// stationary stream carries.
	driftShift = 0.75
)

func main() {
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: nodes, SamplesPerNode: samples, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(data[0].Dims() - 1), ClusterK: 5, LocalEpochs: 3, Seed: seed,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	leader := fleet.Leader

	// Seed the registry snapshot (the roster pushes land on), then
	// subscribe: from here on the leader learns about node movement
	// from the nodes themselves.
	if _, err := leader.Summaries(); err != nil {
		log.Fatal(err)
	}
	subscribed, err := leader.StartPush(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer leader.StopPush()
	fmt.Printf("leader subscribed to summary pushes from %d/%d nodes\n", subscribed, nodes)

	node := fleet.Nodes[0]
	if err := node.EnableIngest(federation.IngestConfig{BatchSize: batchSize}); err != nil {
		log.Fatal(err)
	}

	snap0, ok := leader.Registry().Current()
	if !ok {
		log.Fatal("registry has no snapshot after Summaries")
	}
	epoch0 := snap0.NodeSummaryEpoch(node.ID())
	pulls0 := pullRefreshes(leader)

	gen := newStream(data[0].Rows(), rng.New(99))

	// Phase 1 — stationary stream: rows statistically resembling the
	// node's shard. The detector should stay calm (no escalation).
	for i := 0; i < 40; i++ {
		if err := node.Ingest(gen.batch(batchSize, 0)); err != nil {
			log.Fatal(err)
		}
	}
	st, _ := node.IngestStats()
	fmt.Printf("stationary phase: %d mini-batches absorbed incrementally, err EWMA %.2f, escalations %d\n",
		st.Batches, st.ErrEWMA, st.Escalations)
	if st.Escalations != 0 {
		log.Fatalf("FAIL: stationary stream escalated %d times (detector too jumpy)", st.Escalations)
	}
	if st.IncrementalRequants == 0 {
		log.Fatal("FAIL: no incremental requantizations ran")
	}

	// Phase 2 — regime change: every feature shifts by driftShift of
	// its range. Feed until the detector escalates (bounded).
	var escalated bool
	for i := 0; i < 200; i++ {
		if err := node.Ingest(gen.batch(batchSize, driftShift)); err != nil {
			log.Fatal(err)
		}
		if st, _ = node.IngestStats(); st.Escalations > 0 {
			escalated = true
			fmt.Printf("drift phase: detector escalated after %d drifted batches (err EWMA %.2f, assign EWMA %.2f)\n",
				i+1, st.ErrEWMA, st.AssignEWMA)
			break
		}
	}
	if !escalated {
		log.Fatal("FAIL: drift detector never escalated to a full re-quantization")
	}

	// The escalation bumped the node's epoch, which fired the push
	// subscription. Delivery is asynchronous — the handler hands the
	// summary off to the leader's applier goroutine so it can never
	// block a connection reader — so wait (bounded) for the registry to
	// apply it. No pull is involved either way.
	deadline := time.Now().Add(10 * time.Second)
	regStats := leader.Registry().Stats()
	snap1, _ := leader.Registry().Current()
	epoch1 := snap1.NodeSummaryEpoch(node.ID())
	for (regStats.PushApplied == 0 || epoch1 <= epoch0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		regStats = leader.Registry().Stats()
		snap1, _ = leader.Registry().Current()
		epoch1 = snap1.NodeSummaryEpoch(node.ID())
	}
	fmt.Printf("registry: %s advertisement epoch %d -> %d, %d pushes applied (%d bytes), pull refreshes %d -> %d\n",
		node.ID(), epoch0, epoch1, regStats.PushApplied, regStats.PushBytes, pulls0, pullRefreshes(leader))

	switch {
	case regStats.PushApplied == 0:
		log.Fatal("FAIL: no summary push reached the registry")
	case epoch1 <= epoch0:
		log.Fatalf("FAIL: registry still holds a stale advertisement (epoch %d)", epoch1)
	case pullRefreshes(leader) != pulls0:
		log.Fatal("FAIL: the fresh summary arrived by pull, not push")
	}

	// The re-quantized codebook should now cover the shifted region:
	// the advertised bounds moved with the stream.
	sum := node.Summary()
	lo := math.Inf(1)
	for _, c := range sum.Clusters {
		lo = math.Min(lo, c.Bounds.Min[0])
	}
	fmt.Printf("post-drift advertisement: %d clusters, dim-0 lower bound %.2f (stream shifted +%.2f of range)\n",
		len(sum.Clusters), lo, driftShift)

	fmt.Println("\nOK: drift detected, re-quantized and pushed — no SIGHUP, no pull.")
}

// pullRefreshes counts registry refreshes served by the pull path.
func pullRefreshes(l *federation.Leader) int64 {
	st := l.Registry().Stats()
	return st.FullRefreshes + st.DeltaRefreshes
}

// stream draws synthetic rows from seed rows plus per-column Gaussian
// jitter at 5% of the column range; a non-zero shift displaces every
// feature by shift×range (the regime change).
type stream struct {
	src  *rng.Source
	rows [][]float64
	span []float64
}

func newStream(rows [][]float64, src *rng.Source) *stream {
	dims := len(rows[0])
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := range lo {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for _, row := range rows {
		for d, v := range row {
			lo[d] = math.Min(lo[d], v)
			hi[d] = math.Max(hi[d], v)
		}
	}
	span := make([]float64, dims)
	for d := range span {
		span[d] = hi[d] - lo[d]
		if span[d] <= 0 {
			span[d] = 1e-9
		}
	}
	return &stream{src: src, rows: rows, span: span}
}

func (s *stream) batch(n int, shift float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		base := s.rows[s.src.Intn(len(s.rows))]
		row := make([]float64, len(base))
		for d, v := range base {
			row[d] = v + s.src.Normal(0, 0.05*s.span[d]) + shift*s.span[d]
		}
		out[i] = row
	}
	return out
}
