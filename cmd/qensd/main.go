// Command qensd runs one participant edge node as a TCP daemon. The
// leader (cmd/qens or any program using internal/federation over
// internal/transport) connects to it, fetches its cluster summary, and
// drives per-query training rounds. Raw data never leaves the daemon.
//
// Usage:
//
//	qensd -addr :7001 -id node-0 -data data/node-00.csv -k 5
//
// or with a self-generated synthetic shard (no CSV needed):
//
//	qensd -addr :7001 -synthetic 0 -nodes 10 -samples 2000 -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/rng"
	"qens/internal/telemetry"
	"qens/internal/transport"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7001", "listen address")
		id           = flag.String("id", "", "node id (defaults to node-<synthetic> or the data file name)")
		dataPath     = flag.String("data", "", "CSV file with this node's local data")
		k            = flag.Int("k", 5, "k-means clusters (paper: 5)")
		seed         = flag.Uint64("seed", 1, "node RNG seed")
		synthetic    = flag.Int("synthetic", -1, "generate the i-th synthetic shard instead of loading a CSV")
		nodes        = flag.Int("nodes", 10, "total synthetic shards (with -synthetic)")
		samples      = flag.Int("samples", 2000, "samples per synthetic shard (with -synthetic)")
		metricsAddr  = flag.String("metrics-addr", "", "observability sidecar address serving /metrics, /healthz and /debug/pprof (e.g. :9090; empty disables)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget before in-flight RPCs are aborted")
		trainConc    = flag.Int("train-concurrency", 0, "max concurrent training jobs (0 = GOMAXPROCS); excess requests queue")

		ingestRate  = flag.Float64("ingest-rate", 0, "simulated streaming ingestion rate in rows/sec (0 disables); rows flow through the incremental requantization path and push summary deltas to subscribed leaders")
		ingestBatch = flag.Int("ingest-batch", 0, "ingest mini-batch size (0 = default)")
		driftAfter  = flag.Duration("ingest-drift-after", 0, "after this delay, simulated rows shift distribution so the drift detector escalates to a full re-quantization (0 = no drift)")
		driftShift  = flag.Float64("ingest-drift-shift", 0.5, "drift displacement as a fraction of each feature's range (with -ingest-drift-after)")
	)
	flag.Parse()

	data, nodeID, err := loadData(*dataPath, *synthetic, *nodes, *samples, *seed)
	if err != nil {
		fatal("%v", err)
	}
	if *id != "" {
		nodeID = *id
	}

	node, err := federation.NewNode(nodeID, data, *k, rng.New(*seed),
		federation.WithTrainConcurrency(*trainConc))
	if err != nil {
		fatal("build node: %v", err)
	}
	if *ingestRate > 0 {
		if err := node.EnableIngest(federation.IngestConfig{BatchSize: *ingestBatch}); err != nil {
			fatal("enable ingest: %v", err)
		}
	}
	srv, err := transport.Serve(node, *addr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("qensd: node %s serving %d samples (K=%d, train-concurrency=%d) on %s\n",
		nodeID, data.Len(), *k, node.Engine().Parallelism(), srv.Addr())

	if *metricsAddr != "" {
		obs, err := telemetry.ServeHTTP(*metricsAddr, telemetry.Default(), healthFunc(srv, node, nodeID, data.Len(), *k))
		if err != nil {
			fatal("%v", err)
		}
		defer obs.Close()
		fmt.Printf("qensd: observability on http://%s (/metrics /healthz /debug/pprof)\n", obs.Addr())
	}

	// SIGHUP drains like SIGTERM rather than killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()

	if *ingestRate > 0 {
		sim := newIngestSim(node, data, *seed, *ingestRate, *driftAfter, *driftShift)
		go sim.run(ctx)
		fmt.Printf("qensd: simulated ingest at %.1f rows/s (drift after %v, shift %.2f)\n",
			*ingestRate, *driftAfter, *driftShift)
	}

	<-ctx.Done()
	stop()

	fmt.Println("qensd: draining (no new connections; waiting for in-flight RPCs)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "qensd: shutdown: %v\n", err)
	}
	fmt.Println("qensd: stopped")
}

// healthFunc builds the /healthz document for a running daemon:
// node identity, shard size, K, the age of the last training round,
// push-mode counters and (when ingestion is enabled) the streaming
// ingest/drift block.
func healthFunc(srv *transport.Server, node *federation.Node, nodeID string, shardSize, k int) telemetry.HealthFunc {
	return func() map[string]any {
		doc := map[string]any{
			"node":             nodeID,
			"addr":             srv.Addr(),
			"shard_size":       shardSize,
			"k":                k,
			"summary_epoch":    srv.SummaryEpoch(),
			"train_slots":      srv.TrainSlots(),
			"train_inflight":   srv.TrainInflight(),
			"wire_conns":       srv.Conns(),
			"push_subscribers": srv.PushSubscribers(),
			"pushes_sent":      srv.PushesSent(),
		}
		if st, ok := node.IngestStats(); ok {
			doc["ingest"] = st
		}
		if age, ok := srv.LastTrainAge(); ok {
			doc["last_round_age_s"] = age.Seconds()
		} else {
			doc["last_round_age_s"] = nil
		}
		return doc
	}
}

// loadData resolves the node's dataset from a CSV or the synthetic
// corpus.
func loadData(path string, shard, nodes, samples int, seed uint64) (*dataset.Dataset, string, error) {
	switch {
	case path != "" && shard >= 0:
		return nil, "", fmt.Errorf("qensd: -data and -synthetic are mutually exclusive")
	case path != "":
		d, err := dataset.LoadFile(path)
		if err != nil {
			return nil, "", fmt.Errorf("qensd: load %s: %w", path, err)
		}
		return d, trimExt(path), nil
	case shard >= 0:
		if shard >= nodes {
			return nil, "", fmt.Errorf("qensd: shard %d out of range (%d nodes)", shard, nodes)
		}
		sets, err := dataset.PaperNodeDatasets(dataset.Config{
			Nodes: nodes, SamplesPerNode: samples, Seed: seed,
		})
		if err != nil {
			return nil, "", fmt.Errorf("qensd: generate shard: %w", err)
		}
		return sets[shard], fmt.Sprintf("node-%d", shard), nil
	default:
		return nil, "", fmt.Errorf("qensd: need -data or -synthetic")
	}
}

// trimExt is the file name without its directory and extension; a
// dotfile keeps its whole name.
func trimExt(path string) string {
	base := filepath.Base(path)
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		return base[:i]
	}
	return base
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qensd: "+format+"\n", args...)
	os.Exit(1)
}
