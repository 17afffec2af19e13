package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/rng"
)

// benchTrainRequest builds the model-parameter frame the leader ships
// on every federation round: a realistic NN spec plus a dense
// parameter vector of n floats. This is the frame whose encode cost
// and wire size the v2 codec exists to shrink.
func benchTrainRequest(n int) request {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)*1.000001 - float64(n)/2
	}
	return request{
		Type:    typeTrain,
		TraceID: 0xbe7c0001,
		SpanID:  0xbe7c0002,
		Train: &federation.TrainRequest{
			TraceID: 0xbe7c0001,
			SpanID:  0xbe7c0002,
			Spec: ml.Spec{Kind: ml.KindNN, InputDim: 8, Hidden: []int{32, 16},
				LearningRate: 0.01, Epochs: 50, BatchSize: 32, Seed: 42},
			Params:      ml.Params{Kind: ml.KindNN, Dims: []int{n}, Values: vals},
			LocalEpochs: 5,
		},
	}
}

// BenchmarkWireEncode measures the v2 codec on the leader->node model
// frame against encoding/json over the same envelope — the retired v1
// wire format, kept as a test-only reference row. frame_bytes makes the
// wire-size ratio a first-class benchmark metric alongside ns/op and
// allocs/op; the v2 case must stay at zero allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	req := benchTrainRequest(4096)

	b.Run("codec=json", func(b *testing.B) {
		// Pre-measure the frame size once.
		var buf bytes.Buffer
		if err := writeFrame(&buf, req); err != nil {
			b.Fatal(err)
		}
		size := buf.Len()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := writeFrame(io.Discard, req); err != nil {
				b.Fatal(err)
			}
		}
		// ResetTimer clears custom metrics, so report after the loop.
		b.ReportMetric(float64(size), "frame_bytes")
	})

	b.Run("codec=v2", func(b *testing.B) {
		frame, err := appendWireRequest(nil, 1, &req)
		if err != nil {
			b.Fatal(err)
		}
		size := len(frame)
		buf := frame
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err = appendWireRequest(buf[:0], uint64(i), &req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Discard.Write(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(size), "frame_bytes")
	})
}

// BenchmarkWireDecode compares decoding the same model frame against
// the same JSON reference. The v2 case reuses the destination request's
// nested slices and must stay allocation-free at steady state.
func BenchmarkWireDecode(b *testing.B) {
	req := benchTrainRequest(4096)

	b.Run("codec=json", func(b *testing.B) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, req); err != nil {
			b.Fatal(err)
		}
		body := buf.Bytes()[4:]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var dst request
			if err := json.Unmarshal(body, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("codec=v2", func(b *testing.B) {
		frame, err := appendWireRequest(nil, 1, &req)
		if err != nil {
			b.Fatal(err)
		}
		body := frame[4:]
		var dst request
		if _, err := decodeWireRequest(body, &dst); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodeWireRequest(body, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchServer boots a daemon + client pair for the end-to-end RPC
// benchmark.
func benchServer(b *testing.B) *Client {
	b.Helper()
	node, err := federation.NewNode("node-A", lineDataset(400, 2, 1, 0, 50, 99), 5, rng.New(99))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv.SetLogger(silent)
	b.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	return client
}

// BenchmarkWireRPC measures end-to-end RPC throughput over loopback on
// ONE connection, one caller at a time against 8 concurrent callers:
// the ratio is what multiplexing buys on the leader->node fan-out path
// (a serialized connection would hold concurrency=8 at concurrency=1).
func BenchmarkWireRPC(b *testing.B) {
	// An NN over the node's 1-D data gives a ~600-float parameter
	// vector; training once yields params guaranteed compatible with
	// the node's shard, which every Evaluate then carries.
	spec := ml.Spec{Kind: ml.KindNN, InputDim: 1, Hidden: []int{32, 16},
		LearningRate: 0.01, Epochs: 1, BatchSize: 32, Seed: 42}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("concurrency=%d", workers), func(b *testing.B) {
			client := benchServer(b)
			ctx := context.Background()
			tr, err := client.Train(ctx, federation.TrainRequest{Spec: spec, LocalEpochs: 1})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := client.Evaluate(ctx, federation.EvalRequest{
							Spec: spec, Params: tr.Params,
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
