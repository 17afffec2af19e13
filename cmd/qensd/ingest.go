package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/rng"
)

// ingestSim drives the daemon's simulated streaming ingestion: rows
// statistically resembling the node's shard arrive at a fixed rate and
// flow through Node.Ingest — the same buffered mini-batch path real
// ingestion would use — so incremental requantization, epoch bumps and
// summary pushes all exercise end to end from a lone qensd. After the
// configured drift delay the generator shifts every feature by a
// fraction of its observed range, which the node's drift detector
// should eventually escalate into a full re-quantization on its own.
type ingestSim struct {
	node  ingestNode
	src   *rng.Source
	data  *dataset.Dataset // the seed rows: the base shard
	span  []float64        // per-column range (>= tiny epsilon)
	rate  float64          // rows per second
	drift time.Duration
	shift float64
}

// ingestNode is the slice of federation.Node the simulator needs
// (seam for tests).
type ingestNode interface {
	Ingest(rows [][]float64) error
}

func newIngestSim(node ingestNode, data *dataset.Dataset, seed uint64, rate float64, drift time.Duration, shift float64) *ingestSim {
	bounds, _ := data.Bounds()
	span := make([]float64, data.Dims())
	for d := range span {
		span[d] = bounds.Width(d)
		if span[d] <= 0 {
			span[d] = 1e-9
		}
	}
	return &ingestSim{
		node: node, src: rng.New(seed ^ 0x1ce57), data: data,
		span: span, rate: rate, drift: drift, shift: shift,
	}
}

// run feeds rows until ctx is done, batching per tick so high rates do
// not spin the scheduler. A 50ms tick keeps per-call batches small
// enough that the ingest buffer (not this loop) controls batching.
func (s *ingestSim) run(ctx context.Context) {
	const tick = 50 * time.Millisecond
	perTick := s.rate * tick.Seconds()
	start := time.Now()
	carry := 0.0
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		carry += perTick
		n := int(carry)
		if n == 0 {
			continue
		}
		carry -= float64(n)
		drifted := s.drift > 0 && time.Since(start) >= s.drift
		batch := make([][]float64, n)
		for i := range batch {
			batch[i] = s.sample(drifted)
		}
		if err := s.node.Ingest(batch); err != nil {
			fmt.Fprintf(os.Stderr, "qensd: ingest: %v\n", err)
			return
		}
	}
}

// sample draws one synthetic row: a seed row plus per-column Gaussian
// jitter at 5% of the column range; drifted rows are additionally
// displaced by shift×range, a regime change the EWMA detector sees as
// rising reconstruction error and a skewed assignment distribution.
func (s *ingestSim) sample(drifted bool) []float64 {
	base := s.data.Row(s.src.Intn(s.data.Len()))
	row := make([]float64, len(base))
	for d, v := range base {
		row[d] = v + s.src.Normal(0, 0.05*s.span[d])
		if drifted {
			row[d] += s.shift * s.span[d]
		}
	}
	return row
}

var _ ingestNode = (*federation.Node)(nil)
