package federation_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/transport"
)

// tcpFleet is five node daemons on loopback TCP; every leader in the
// test dials its own connections to them.
type tcpFleet struct {
	nodes []*federation.Node
	addrs []string
	cfg   federation.Config
}

func newTCPFleet(t *testing.T) *tcpFleet {
	t.Helper()
	data, err := dataset.PaperNodeDatasets(dataset.Config{Nodes: 5, SamplesPerNode: 300, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	f := &tcpFleet{cfg: federation.Config{Spec: ml.PaperLR(data[0].Dims() - 1), ClusterK: 4, LocalEpochs: 2, Seed: 24}}
	for i, d := range data {
		node, err := federation.NewNode(fmt.Sprintf("node-%d", i), d, 4, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(func(string, ...any) {})
		t.Cleanup(func() { srv.Close() })
		f.nodes = append(f.nodes, node)
		f.addrs = append(f.addrs, srv.Addr())
	}
	return f
}

// boot dials the fleet and bootstraps a leader over it.
func (f *tcpFleet) boot(t *testing.T, push bool) (*federation.Leader, []*transport.Client) {
	t.Helper()
	var remotes []*transport.Client
	var clients []federation.Client
	for _, a := range f.addrs {
		c, err := transport.Dial(a, transport.DialOptions{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		remotes = append(remotes, c)
		clients = append(clients, c)
	}
	l, err := federation.NewLeader(f.cfg, nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	if push {
		if n, err := l.StartPush(context.Background()); err != nil || n != len(clients) {
			t.Fatalf("StartPush: %d of %d subscribed, err %v", n, len(clients), err)
		}
		t.Cleanup(l.StopPush)
	}
	if _, err := l.Summaries(); err != nil {
		t.Fatal(err)
	}
	if st := l.Registry().Stats(); st.FullRefreshes != 1 || st.DeltaRefreshes != 0 {
		t.Fatalf("bootstrap accounting: %+v", st)
	}
	return l, remotes
}

// drift appends rows in a region node i never covered, so its
// advertisement changes materially and its epoch bumps.
func (f *tcpFleet) drift(t *testing.T, i int) {
	t.Helper()
	d := f.nodes[i].Data()
	rows := make([][]float64, 60)
	for r := range rows {
		rows[r] = append([]float64(nil), d.Row(r)...)
		rows[r][0] += 40
	}
	if err := f.nodes[i].AddSamples(rows); err != nil {
		t.Fatal(err)
	}
}

// samePlans requires l to plan exactly like a leader booted now over
// the same daemons: identical advertisements, pruned-path participants
// and brute-path rankings, bit for bit.
func (f *tcpFleet) samePlans(t *testing.T, l *federation.Leader) {
	t.Helper()
	ctx := context.Background()
	fresh, _ := f.boot(t, false)
	got, _ := l.SummariesContext(ctx)
	want, _ := fresh.SummariesContext(ctx)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("leader's advertisements differ from a freshly booted leader's")
	}
	space, err := fresh.Space(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	sel := selection.QueryDriven{Epsilon: 0.3, TopL: 3}
	for i := 0; i < 25; i++ {
		qs, err := query.Workload(query.WorkloadConfig{Space: space, Count: 1}, src)
		if err != nil {
			t.Fatal(err)
		}
		q := qs[0]
		a, errA := l.PlanContext(ctx, q, sel)
		b, errB := fresh.PlanContext(ctx, q, sel)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("query %d: plan errors differ: %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(a.Participants, b.Participants) {
			t.Fatalf("query %d: participants differ:\n%+v\n%+v", i, a.Participants, b.Participants)
		}
		a.Release()
		b.Release()
		ea, errA := l.ExplainContext(ctx, q, sel)
		eb, errB := fresh.ExplainContext(ctx, q, sel)
		if errA != nil || errB != nil {
			t.Fatalf("query %d: explain: %v / %v", i, errA, errB)
		}
		if !reflect.DeepEqual(ea.Rankings, eb.Rankings) {
			t.Fatalf("query %d: rankings differ", i)
		}
		ea.Release()
		eb.Release()
	}
}

// TestOneNodeDriftMovesOneSummary drives the only summary-freshness
// path end to end over real sockets. Without push, a drifted node is
// noticed through the epoch a training response echoes and the next
// refresh moves exactly that node's body (the others answer the
// conditional fetch with the unchanged marker); with push, the body
// arrives on its own and no fetch is needed at all. Either way the
// fleet is never re-fetched and the leader plans like a fresh one.
func TestOneNodeDriftMovesOneSummary(t *testing.T) {
	f := newTCPFleet(t)
	ctx := context.Background()
	n := int64(len(f.nodes))
	trainAll := func(l *federation.Leader) {
		t.Helper()
		space, err := l.Space(ctx)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.New("q-all", space)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Execute(ctx, federation.Request{Query: q, Selector: selection.AllNodes{}}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("pull", func(t *testing.T) {
		l, remotes := f.boot(t, false)
		f.drift(t, 2)
		trainAll(l) // node-2's train response echoes its new epoch
		before := l.Registry().Stats()
		if !before.Stale || before.Invalidations != 1 || before.Refreshes != 1 {
			t.Fatalf("train echo did not signal the drift: %+v", before)
		}
		recv := make([]int64, len(remotes))
		for i, c := range remotes {
			_, recv[i] = c.BytesMoved()
		}
		if _, err := l.SummariesContext(ctx); err != nil {
			t.Fatal(err)
		}
		st := l.Registry().Stats()
		if st.FullRefreshes != 1 || st.DeltaRefreshes != 1 || st.NodesRefetched != 1 || st.NodesReused != n-1 ||
			st.IndexPatches != before.IndexPatches+1 || st.Stale {
			t.Fatalf("one-node drift refresh accounting: %+v", st)
		}
		for i, c := range remotes {
			_, now := c.BytesMoved()
			recv[i] = now - recv[i]
		}
		for i := range remotes {
			if i != 2 && recv[i]*4 > recv[2] {
				t.Fatalf("unchanged node-%d answered with %d bytes, drifted node-2 with %d: a body moved", i, recv[i], recv[2])
			}
		}
		snap, _ := l.Registry().Current()
		if got := snap.NodeSummaryEpoch("node-2"); got != f.nodes[2].SummaryEpoch() {
			t.Fatalf("node-2 held at epoch %d, node is at %d", got, f.nodes[2].SummaryEpoch())
		}
		f.samePlans(t, l)
	})

	t.Run("push", func(t *testing.T) {
		l, _ := f.boot(t, true)
		f.drift(t, 3)
		deadline := time.Now().Add(10 * time.Second)
		for l.Registry().Stats().PushApplied == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("drifted advertisement never arrived by push: %+v", l.Registry().Stats())
			}
			time.Sleep(time.Millisecond)
		}
		trainAll(l) // the echoed epoch is the one the push already delivered
		if _, err := l.SummariesContext(ctx); err != nil {
			t.Fatal(err)
		}
		st := l.Registry().Stats()
		if st.Refreshes != 1 || st.FullRefreshes != 1 || st.DeltaRefreshes != 0 || st.Invalidations != 0 || st.PushApplied != 1 {
			t.Fatalf("push-fresh leader still fetched: %+v", st)
		}
		f.samePlans(t, l)
	})
}
