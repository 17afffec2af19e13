// Command qens-region runs one regional leader as a TCP daemon: a
// federation.Leader over its spatial shard of a fleet of qensd members,
// served through the region RPC family for a root coordinator
// (qens-gateway -region-addrs).
//
// -addrs is the whole fleet in roster order: the same list on every
// region, and the list qens-gateway -addrs would take. Each process
// partitions the fleet once, at startup, from the members' cluster
// advertisements alone (region.Partition), keeps its own shard and
// subscribes to its summary pushes, so siblings agree on membership
// without talking to each other. The root over the regions equals
// qens-gateway -addrs over the same list (same -seed, -epochs, -model)
// bit for bit, as TestGoldenShardedMatchesSingleLeader checks in-process.
//
//	qens-region -addr :7101 -region 0 -regions 2 -addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004
//	qens-region -addr :7102 -region 1 -regions 2 -addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004
//	qens-gateway -addr :8080 -region-addrs 127.0.0.1:7101,127.0.0.1:7102
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/region"
	"qens/internal/transport"
)

// rpcTimeout bounds each member dial and RPC, as qens-gateway's default -dial-timeout does.
const rpcTimeout = 2 * time.Minute

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7101", "listen address")
		idx     = flag.Int("region", -1, "this region's index in the partition (0-based)")
		regions = flag.Int("regions", 2, "total regions in the topology")
		addrs   = flag.String("addrs", "", "comma-separated qensd addresses of the whole fleet, in roster order (the same list on every region)")

		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget before in-flight RPCs are aborted")
	)
	flag.Parse()

	if *idx < 0 || *idx >= *regions {
		fatal("-region %d out of range (need 0 <= region < %d)", *idx, *regions)
	}

	fleet, err := transport.DialAll(*addrs, func(a string) (*transport.Client, error) {
		return transport.Dial(a, transport.DialOptions{Timeout: rpcTimeout})
	})
	if err != nil {
		fatal("%v", err)
	}
	fed, lead, err := buildRegion(*idx, *regions, fleet)
	if err != nil {
		fatal("%v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	n, err := fed.StartPush(ctx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qens-region: summary push: %v\n", err)
	}
	fmt.Printf("qens-region: %s summary push from %d/%d members\n", lead.ID(), n, len(fed.NodeIDs()))

	srv, err := transport.ServeRegion(lead, *addr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("qens-region: %s serving shard {%s} of %d nodes on %s\n",
		lead.ID(), strings.Join(fed.NodeIDs(), ", "), len(fleet), srv.Addr())

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	stop()

	fmt.Println("qens-region: draining (no new connections; waiting for in-flight RPCs)")
	fed.StopPush()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "qens-region: shutdown: %v\n", err)
	}
	for _, c := range fleet {
		c.Close()
	}
	fmt.Println("qens-region: stopped")
}

// buildRegion returns the shard leader of region idx and its region
// wrapper, and closes the connections to every other shard. Roster
// indices are positions in the fleet list: the order a single leader
// over the same list sees.
func buildRegion(idx, regions int, fleet []*transport.Client) (*federation.Leader, *region.Leader, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	summaries := make([]cluster.NodeSummary, len(fleet))
	rosterIndex := make(map[string]int, len(fleet))
	for i, c := range fleet {
		var err error
		if summaries[i], err = c.Summary(ctx); err != nil {
			return nil, nil, fmt.Errorf("summary from %s: %w", c.ID(), err)
		}
		rosterIndex[c.ID()] = i
	}
	shards, err := region.Partition(summaries, regions) // validates every summary
	if err != nil {
		return nil, nil, err
	}
	var shard []federation.Client
	for r, members := range shards {
		for _, n := range members {
			if r == idx {
				shard = append(shard, fleet[n])
			} else {
				fleet[n].Close()
			}
		}
	}
	// region.Leader.Train ships each request's own Spec and LocalEpochs,
	// so this config is never read; it only has to be valid.
	inputDim := summaries[0].Clusters[0].Bounds.Dims() - 1
	fed, err := federation.NewLeader(federation.Config{Spec: ml.PaperLR(inputDim)}, nil, shard)
	if err != nil {
		return nil, nil, err
	}
	lead, err := region.NewLeader(fmt.Sprintf("region-%d", idx), fed, rosterIndex)
	return fed, lead, err
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qens-region: "+format+"\n", args...)
	os.Exit(1)
}
