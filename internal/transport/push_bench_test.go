package transport

import (
	"testing"

	"qens/internal/cluster"
	"qens/internal/geometry"
)

// BenchmarkSummaryFreshnessBytes compares the wire cost of propagating
// one advertisement-epoch bump to the leader at equal staleness. Push
// mode pays a single unsolicited push frame; pull mode pays a summary
// request plus the response carrying the same body — the floor for an
// anti-entropy tick that happens to land right after the bump (a real
// tick also probes nodes that have not changed). The ingest gate of
// scripts/benchgate checks push staying strictly below pull.
func BenchmarkSummaryFreshnessBytes(b *testing.B) {
	sum := cluster.NodeSummary{
		NodeID:       "node-7",
		TotalSamples: 10_000,
		Epoch:        42,
	}
	for i := 0; i < 5; i++ {
		lo := float64(i) * 20
		sum.Clusters = append(sum.Clusters, cluster.Summary{
			Bounds:   geometry.MustRect([]float64{lo, -lo - 5}, []float64{lo + 6, -lo + 5}),
			Centroid: []float64{lo + 3, -lo},
			Size:     2_000,
		})
	}

	b.Run("mode=push", func(b *testing.B) {
		var buf []byte
		var err error
		for i := 0; i < b.N; i++ {
			buf, err = appendWirePush(buf[:0], uint64(i), &sum)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "wire_bytes")
	})

	b.Run("mode=pull", func(b *testing.B) {
		req := request{Type: typeSummary, KnownSummaryEpoch: sum.Epoch - 1}
		resp := response{NodeID: sum.NodeID, SummaryEpoch: sum.Epoch, Summary: &sum}
		var reqBuf, respBuf []byte
		var err error
		for i := 0; i < b.N; i++ {
			reqBuf, err = appendWireRequest(reqBuf[:0], uint64(i), &req)
			if err != nil {
				b.Fatal(err)
			}
			respBuf, err = appendWireResponse(respBuf[:0], uint64(i), &resp)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(reqBuf)+len(respBuf)), "wire_bytes")
	})
}
