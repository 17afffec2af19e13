package cluster

import (
	"testing"

	"qens/internal/rng"
)

// benchPoints draws n 2-dim rows from a k-mode Gaussian mixture, the
// shape a node's data space takes in the simulated fleets.
func benchPoints(n, modes int, src *rng.Source) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		m := float64(src.Intn(modes))
		points[i] = []float64{
			m*20 + src.Normal(0, 2),
			m*-15 + src.Normal(0, 2),
		}
	}
	return points
}

// BenchmarkRequantize10k is the streaming-ingestion speed contract: at
// 10k samples with 1%-sized mini-batches, one incremental step (absorb
// a batch, then a single assignment pass to rebuild bounds and sizes)
// must beat a full Lloyd re-quantization by >=3x. The ingest gate of
// scripts/benchgate checks the ratio.
func BenchmarkRequantize10k(b *testing.B) {
	const (
		n     = 10_000
		batch = n / 100
		k     = 5
	)
	points := rowsDataset(benchPoints(n, k, rng.New(7))...)
	base, err := KMeans(points, Config{K: k}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("mode=full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := KMeans(points, Config{K: k}, rng.New(uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("mode=incremental", func(b *testing.B) {
		sq, err := NewStreamQuantizer(base)
		if err != nil {
			b.Fatal(err)
		}
		fresh := benchPoints(batch, k, rng.New(11))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sq.Absorb(fresh); err != nil {
				b.Fatal(err)
			}
			if _, err := sq.Requantize(points); err != nil {
				b.Fatal(err)
			}
		}
	})
}
