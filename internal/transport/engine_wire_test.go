package transport

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/rng"
)

// startBoundedServer is startServer with an explicit train-concurrency
// bound on the node's engine.
func startBoundedServer(t *testing.T, seed uint64, conc int) (*Server, *Client) {
	t.Helper()
	node, err := federation.NewNode("node-B", lineDataset(400, 2, 1, 0, 20, seed), 5, rng.New(seed),
		federation.WithTrainConcurrency(conc))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

// TestServerHonorsEnvelopeDeadline verifies the daemon reconstructs
// the client's deadline from the wire envelope: a request arriving
// with an already-expired DeadlineUnixMS must be refused server-side
// without running the job, and the connection must survive.
func TestServerHonorsEnvelopeDeadline(t *testing.T) {
	_, client := startServer(t, 41, 2, 0, 20)
	resp, err := client.roundTrip(context.Background(), request{
		Type:           typeTrain,
		DeadlineUnixMS: time.Now().Add(-time.Second).UnixMilli(),
		Train:          &federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 3},
	})
	if err == nil {
		t.Fatalf("expired envelope deadline accepted: %+v", resp)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error does not surface the deadline: %v", err)
	}
	// The protocol error is per-request: the connection stays usable.
	if _, err := client.Ping(); err != nil {
		t.Fatalf("connection unusable after deadline refusal: %v", err)
	}
}

// TestTrainResponseCarriesSummaryEpoch verifies train rounds double as
// drift signals over the wire: the typed Train client carries the
// snapshot's SummaryEpoch into the TrainResponse, and a requantization
// on the daemon is visible on the very next round.
func TestTrainResponseCarriesSummaryEpoch(t *testing.T) {
	srv, client := startServer(t, 42, 2, 0, 20)
	req := federation.TrainRequest{Spec: ml.PaperLR(1), LocalEpochs: 1}

	resp, err := client.Train(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SummaryEpoch != 1 {
		t.Fatalf("initial train epoch %d, want 1", resp.SummaryEpoch)
	}
	if err := srv.node.Requantize(); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Train(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SummaryEpoch != 2 {
		t.Fatalf("post-requantize train epoch %d, want 2", resp.SummaryEpoch)
	}
}

// TestTrainConcurrencyBoundOverWire verifies the daemon honors the
// -train-concurrency bound end-to-end: with the engine capped at one
// slot, concurrent RPCs from independent connections queue, and the
// observed in-flight count never exceeds the bound.
func TestTrainConcurrencyBoundOverWire(t *testing.T) {
	srv, _ := startBoundedServer(t, 43, 1)
	if srv.TrainSlots() != 1 {
		t.Fatalf("train slots %d, want 1", srv.TrainSlots())
	}

	var maxSeen atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := srv.TrainInflight(); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
		}
	}()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr(), DialOptions{Timeout: 30 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Train(context.Background(), federation.TrainRequest{
				Spec: ml.PaperNN(1), LocalEpochs: 3,
			})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got > 1 {
		t.Fatalf("daemon ran %d concurrent jobs with train-concurrency=1", got)
	}
	if srv.TrainInflight() != 0 {
		t.Fatalf("in-flight %d after drain", srv.TrainInflight())
	}
}
