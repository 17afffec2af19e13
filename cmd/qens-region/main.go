// Command qens-region runs one regional leader as a TCP daemon: a
// federation.Leader over its spatial shard of the fleet, exposed
// through the region RPC family (region.info/plan/train/stats) for a
// root coordinator (qens-gateway -region-addrs) to drive.
//
// Every qens-region process derives the SAME fleet layout from the
// shared flags: it regenerates the full synthetic corpus, splits and
// seeds every node exactly like federation.NewSimulatedFleet (two
// root RNG draws per node, in roster order), computes the spatial
// partition over all node summaries, and then serves only its own
// shard. Processes started with identical -nodes/-samples/-seed/-k
// and consecutive -region indices therefore agree on membership
// without any coordination traffic — and the resulting sharded
// topology reproduces the single-leader simulated fleet bit-exactly.
//
//	qens-region -addr :7101 -region 0 -regions 2 -nodes 8 -samples 500
//	qens-region -addr :7102 -region 1 -regions 2 -nodes 8 -samples 500
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
	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/telemetry"
	"qens/internal/transport"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7101", "listen address")
		idx     = flag.Int("region", -1, "this region's index in the partition (0-based)")
		regions = flag.Int("regions", 2, "total regions in the topology")
		nodes   = flag.Int("nodes", 8, "total fleet size (across all regions)")
		samples = flag.Int("samples", 500, "samples per node")
		k       = flag.Int("k", 5, "per-node k-means clusters")
		epochs  = flag.Int("epochs", 5, "local epochs per supporting cluster")
		seed    = flag.Uint64("seed", 1, "fleet seed (must match every region and the root)")
		model   = flag.String("model", "lr", "model family: lr or nn")

		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget before in-flight RPCs are aborted")
		tracePath    = flag.String("trace", "", "write per-RPC spans as JSONL to this file (flushed on shutdown)")
	)
	flag.Parse()

	if *idx < 0 || *idx >= *regions {
		fatal("-region %d out of range (need 0 <= region < %d)", *idx, *regions)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("trace file: %v", err)
		}
		tracer := telemetry.NewTracer(f)
		tracer.SetRetention(4096)
		telemetry.SetDefaultTracer(tracer)
		defer func() {
			if err := tracer.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "qens-region: trace flush: %v\n", err)
			}
			f.Close()
			fmt.Printf("qens-region: trace written to %s\n", *tracePath)
		}()
	}

	lead, members, err := buildRegion(*idx, *regions, *nodes, *samples, *k, *epochs, *seed, *model)
	if err != nil {
		fatal("%v", err)
	}

	srv, err := transport.ServeRegion(lead, *addr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("qens-region: %s serving shard {%s} of %d nodes (K=%d) on %s\n",
		lead.ID(), strings.Join(members, ", "), *nodes, *k, srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Println("qens-region: draining (no new connections; waiting for in-flight RPCs)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "qens-region: shutdown: %v\n", err)
	}
	fmt.Println("qens-region: stopped")
}

// buildRegion reconstructs the deterministic fleet layout and returns
// the regional leader for shard idx plus its member ids. The node
// construction loop mirrors federation.NewSimulatedFleet draw for
// draw — split RNG then node RNG, in roster order — so the shard's
// nodes are bit-identical to the ones a single simulated leader (or
// any sibling qens-region process) would build from the same flags.
func buildRegion(idx, regions, nodes, samples, k, epochs int, seed uint64, model string) (*region.Leader, []string, error) {
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: nodes, SamplesPerNode: samples, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}

	root := rng.New(seed)
	all := make([]*federation.Node, len(data))
	summaries := make([]cluster.NodeSummary, len(data))
	rosterIndex := make(map[string]int, len(data))
	for i, d := range data {
		train, _ := d.Split(0.2, root.Split()) // held-out fraction matches the simulated fleet
		node, err := federation.NewNode(fmt.Sprintf("node-%d", i), train, k, root.Split())
		if err != nil {
			return nil, nil, err
		}
		all[i] = node
		summaries[i] = node.Summary()
		rosterIndex[node.ID()] = i
	}

	shards, err := region.Partition(summaries, regions)
	if err != nil {
		return nil, nil, err
	}
	shard := shards[idx]
	clients := make([]federation.Client, 0, len(shard))
	members := make([]string, 0, len(shard))
	for _, n := range shard {
		clients = append(clients, federation.LocalClient{Node: all[n]})
		members = append(members, all[n].ID())
	}

	fed, err := federation.NewLeader(federation.Config{
		Spec: specFor(model, data[0].Dims()-1), ClusterK: k, LocalEpochs: epochs, Seed: seed,
	}, nil, clients)
	if err != nil {
		return nil, nil, err
	}
	lead, err := region.NewLeader(fmt.Sprintf("region-%d", idx), fed, rosterIndex)
	if err != nil {
		return nil, nil, err
	}
	return lead, members, nil
}

func specFor(model string, inputDim int) ml.Spec {
	if model == "nn" {
		return ml.PaperNN(inputDim)
	}
	return ml.PaperLR(inputDim)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qens-region: "+format+"\n", args...)
	os.Exit(1)
}
