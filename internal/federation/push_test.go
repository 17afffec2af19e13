package federation

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/ml"
	"qens/internal/rng"
)

// gatedClient is a LocalClient whose summary probe (the call every
// registry refresh makes) can be made to block, pinning the registry's
// refresh lock mid-fetch.
type gatedClient struct {
	LocalClient
	block   atomic.Bool
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (c *gatedClient) SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error) {
	if c.block.Load() {
		c.once.Do(func() { close(c.entered) })
		<-c.gate
	}
	return c.LocalClient.SummaryIfChanged(ctx, known)
}

// TestLeaderHandlePushNonBlocking is the regression test for the
// push-delivery deadlock: the subscription handler runs on a transport
// connection's reader goroutine, so it must return promptly even while
// a refresh holds the registry's refresh lock awaiting a summary
// RPC (possibly on that very connection). The queued push must still
// land once the refresh completes, and StopPush must terminate the
// applier goroutine and drop late frames.
func TestLeaderHandlePushNonBlocking(t *testing.T) {
	nodeA, err := NewNode("node-A", lineDataset(200, 2, 1, 0, 30, 7), 4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode("node-B", lineDataset(200, 2, 1, 20, 60, 8), 4, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	gc := &gatedClient{
		LocalClient: LocalClient{nodeB},
		gate:        make(chan struct{}),
		entered:     make(chan struct{}),
	}
	cfg := Config{Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 1, Seed: 1}
	leader, err := NewLeader(cfg, nil, []Client{LocalClient{nodeA}, gc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Summaries(); err != nil {
		t.Fatal(err)
	}
	if n, err := leader.StartPush(context.Background()); err != nil || n != 2 {
		t.Fatalf("StartPush: n=%d err=%v", n, err)
	}
	t.Cleanup(leader.StopPush)

	// Park a refresh mid-fetch: it holds the registry's refresh lock
	// until the gate opens, exactly the window where the old synchronous
	// handler wedged the reader goroutine.
	gc.block.Store(true)
	refreshed := make(chan error, 1)
	go func() {
		_, err := leader.Registry().Refresh(context.Background())
		refreshed <- err
	}()
	<-gc.entered

	sum := nodeA.Summary()
	sum.Epoch += 5
	returned := make(chan struct{})
	go func() { leader.handlePush(sum); close(returned) }()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("handlePush blocked behind the in-flight refresh")
	}

	gc.block.Store(false)
	close(gc.gate)
	if err := <-refreshed; err != nil {
		t.Fatal(err)
	}

	// The queued push drains through the applier once the refresh
	// releases the lock.
	deadline := time.Now().Add(5 * time.Second)
	for leader.Registry().Stats().PushApplied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued push never applied: %+v", leader.Registry().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap, _ := leader.Registry().Current()
	if got := snap.NodeSummaryEpoch("node-A"); got != sum.Epoch {
		t.Fatalf("node-A epoch %d, want %d", got, sum.Epoch)
	}

	// StopPush terminates the applier goroutine and gates delivery off:
	// a late frame must not mutate the registry.
	leader.StopPush()
	stackDeadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "runPushApplier") {
			break
		}
		if time.Now().After(stackDeadline) {
			t.Fatalf("push applier goroutine survived StopPush:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
	late := nodeA.Summary()
	late.Epoch = sum.Epoch + 5
	leader.handlePush(late)
	time.Sleep(20 * time.Millisecond)
	if st := leader.Registry().Stats(); st.PushApplied != 1 {
		t.Fatalf("late push applied after StopPush: %+v", st)
	}
}

// pullOnlyClient declines the subscription the way a peer without the
// push capability does: ok=false, no error.
type pullOnlyClient struct{ LocalClient }

func (pullOnlyClient) SubscribeSummaries(context.Context, func(cluster.NodeSummary)) (bool, error) {
	return false, nil
}

// TestStartPushExcludesDecliningClient: a participant that declines the
// subscription is not counted by StartPush and is not an error; it
// stays on pull, so its epoch bump reaches the registry through the
// next refresh and through no push.
func TestStartPushExcludesDecliningClient(t *testing.T) {
	nodeA, err := NewNode("node-A", lineDataset(200, 2, 1, 0, 30, 7), 4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode("node-B", lineDataset(200, 2, 1, 20, 60, 8), 4, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 1, Seed: 1}
	leader, err := NewLeader(cfg, nil, []Client{LocalClient{nodeA}, pullOnlyClient{LocalClient{nodeB}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Summaries(); err != nil {
		t.Fatal(err)
	}
	if n, err := leader.StartPush(context.Background()); err != nil || n != 1 {
		t.Fatalf("StartPush: n=%d err=%v, want 1 of 2 subscribed and no error", n, err)
	}
	t.Cleanup(leader.StopPush)
	if got := leader.PushSubscribed(); got != 1 {
		t.Fatalf("PushSubscribed = %d, want 1", got)
	}

	if err := nodeB.Requantize(); err != nil {
		t.Fatal(err)
	}
	want := nodeB.SummaryEpoch()
	time.Sleep(20 * time.Millisecond) // room for a push that must not come
	if st := leader.Registry().Stats(); st.PushApplied != 0 {
		t.Fatalf("declining node's bump arrived by push: %+v", st)
	}
	if _, err := leader.Registry().Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, _ := leader.Registry().Current()
	if got := snap.NodeSummaryEpoch("node-B"); got != want {
		t.Fatalf("pull sees node-B at epoch %d, want %d", got, want)
	}
}
