// Command qens-gateway serves the federation as an online HTTP/JSON
// API: POST /v1/query executes a query against the fleet through a
// bounded worker pool with admission control, request coalescing and
// per-query deadlines; GET /v1/stats and /metrics expose the serving
// telemetry.
//
// The fleet is a set of qensd daemons, for example three synthetic
// ones on one machine:
//
//	for i in 0 1 2; do qensd -addr :700$i -synthetic $i & done
//	qens-gateway -addr :8080 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Sharded topology — the gateway becomes the root coordinator over
// qens-region daemons, routing each query to the overlapping regions
// and aggregating cross-region results:
//
//	qens-gateway -addr :8080 -region-addrs 127.0.0.1:7101,127.0.0.1:7102
//
// Shutdown is graceful: SIGINT/SIGTERM stops admission (503 on new
// queries), drains in-flight work, then closes the listener and
// flushes the trace file.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qens/internal/federation"
	"qens/internal/fleet"
	"qens/internal/gateway"
	"qens/internal/ml"
	"qens/internal/region"
	"qens/internal/telemetry"
	"qens/internal/transport"
)

// reuseCapacity bounds the reuse cache: it holds at most this many
// answered queries.
const reuseCapacity = 32

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		addrs       = flag.String("addrs", "", "comma-separated qensd daemon addresses (single leader; give this or -region-addrs)")
		regionAddrs = flag.String("region-addrs", "", "comma-separated qens-region daemon addresses (sharded topology; give this or -addrs)")
		epochs      = flag.Int("epochs", 5, "local epochs per supporting cluster")
		seed        = flag.Uint64("seed", 1, "leader seed")
		model       = flag.String("model", "lr", "model family: lr or nn")

		workers     = flag.Int("workers", 4, "worker pool size (concurrent queries on the fleet)")
		queueDepth  = flag.Int("queue", 64, "admission queue depth (overflow returns 429)")
		timeout     = flag.Duration("timeout", 30*time.Second, "default per-query execution budget")
		coalesceIoU = flag.Float64("coalesce-iou", 0.95, "IoU threshold for coalescing in-flight queries (<0 disables)")
		reuseIoU    = flag.Float64("reuse-iou", 0.9, "IoU threshold for the result reuse cache (0 disables)")
		topL        = flag.Int("topl", 3, "default query-driven top-l")

		approxErr      = flag.Float64("approx-err", 0, "approximate answering: max predicted error for serving a query from the model cache (0 disables the tier; requires -reuse-iou)")
		approxCoverage = flag.Float64("approx-coverage", 0.25, "minimum coverage of the query by a cached result's training rectangles before an approximate answer is considered (the root records the query rectangle as its training rectangle)")
		approxProbe    = flag.Int("approx-probe", 8, "ground-truth probe cadence: every Nth cache-servable query still trains fresh to score the cached answer")

		summaryRefresh = flag.Duration("summary-refresh", 0, "anti-entropy period: every tick asks each node whether its advertisement epoch moved, off the query path (0 disables)")

		dialTimeout  = flag.Duration("dial-timeout", 2*time.Minute, "remote client dial/request timeout")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		tracePath    = flag.String("trace", "", "write per-query spans as JSONL to this file")
	)
	flag.Parse()

	// Tracing is always on: retained spans back GET /v1/trace/{id} and
	// /v1/traces even without a file sink. -trace additionally streams
	// every span to disk as JSONL.
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("trace file: %v", err)
		}
		traceFile = f
	}
	tracer := telemetry.NewTracer(traceFile) // nil sink = memory-only
	tracer.SetRetention(4096)
	if traceFile != nil {
		defer func() {
			if err := tracer.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "qens-gateway: trace flush: %v\n", err)
			}
			traceFile.Close()
			fmt.Printf("qens-gateway: trace written to %s\n", *tracePath)
		}()
	}

	if (*addrs == "") == (*regionAddrs == "") {
		fatal("give exactly one of -addrs (qensd daemons) and -region-addrs (qens-region daemons)")
	}

	cfg := gateway.ServerConfig{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		CoalesceIoU:    *coalesceIoU,
		DefaultTopL:    *topL,
		Tracer:         tracer,
	}
	// One reuse cache, handed to whichever topology serves.
	if *approxErr > 0 && *reuseIoU <= 0 {
		fatal("-approx-err requires the reuse cache (-reuse-iou > 0)")
	}
	if *reuseIoU > 0 {
		cache, err := federation.NewAdaptiveCache(*reuseIoU, reuseCapacity, federation.ApproxConfig{
			MaxPredictedError: *approxErr,
			MinCoverage:       *approxCoverage,
			ProbeEvery:        *approxProbe,
		})
		if err != nil {
			fatal("%v", err)
		}
		cfg.Cache = cache
		if *approxErr > 0 {
			fmt.Printf("qens-gateway: approximate answering on (err<=%.2f, coverage>=%.2f, probe 1/%d)\n",
				*approxErr, *approxCoverage, *approxProbe)
		}
	}
	var fleetSize int
	if *regionAddrs != "" {
		router, wires, cleanup, err := buildRouter(*regionAddrs, *epochs, *seed, *model, *dialTimeout)
		if err != nil {
			fatal("%v", err)
		}
		defer cleanup()
		cfg.Router = router
		cfg.WireStatus = wires
		ids, err := router.NodeIDs(context.Background())
		if err != nil {
			fatal("fleet roster: %v", err)
		}
		fleetSize = len(ids)
	} else {
		leader, wires, cleanup, err := buildLeader(*addrs, *epochs, *seed, *model, *dialTimeout)
		if err != nil {
			fatal("%v", err)
		}
		defer cleanup()

		subCtx, cancel := context.WithTimeout(context.Background(), *dialTimeout)
		n, perr := leader.StartPush(subCtx)
		cancel()
		if perr != nil {
			fmt.Fprintf(os.Stderr, "qens-gateway: summary push: %v\n", perr)
		}
		pull := "no anti-entropy pull"
		if *summaryRefresh > 0 {
			leader.Registry().StartRefresh(*summaryRefresh)
			defer leader.Registry().Stop()
			pull = fmt.Sprintf("anti-entropy pull every %v", *summaryRefresh)
		}
		fmt.Printf("qens-gateway: summary push from %d/%d nodes, %s\n", n, len(leader.NodeIDs()), pull)
		cfg.Leader = leader
		cfg.WireStatus = wires
		fleetSize = len(leader.NodeIDs())
	}

	gw, err := gateway.NewServer(cfg)
	if err != nil {
		fatal("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen %s: %v", *addr, err)
	}
	// Once shutdown starts, close every connection that has not sent a
	// request: net/http's Shutdown counts one as active until it is 5 s
	// old, so a client's spare connection would hold the exit that long.
	var fresh sync.Map
	var closing atomic.Bool
	httpSrv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(c net.Conn, st http.ConnState) {
			if st != http.StateNew {
				fresh.Delete(c)
				return
			}
			fresh.Store(c, nil)
			if closing.Load() {
				c.Close()
			}
		}}
	httpSrv.RegisterOnShutdown(func() {
		closing.Store(true)
		fresh.Range(func(c, _ any) bool {
			c.(net.Conn).Close()
			return true
		})
	})
	go func() { _ = httpSrv.Serve(ln) }() // returns ErrServerClosed on Shutdown

	if cfg.Router != nil {
		fmt.Printf("qens-gateway: root over %d regions / %d nodes on http://%s (POST /v1/query, GET /v1/stats, /metrics)\n",
			len(cfg.Router.Regions()), fleetSize, ln.Addr())
	} else {
		fmt.Printf("qens-gateway: serving %d nodes on http://%s (POST /v1/query, GET /v1/stats, /metrics)\n",
			fleetSize, ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Println("qens-gateway: draining (new queries get 503)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "qens-gateway: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "qens-gateway: http shutdown: %v\n", err)
	}
	fmt.Println("qens-gateway: stopped")
}

// buildRouter dials every qens-region daemon and wires the root
// coordinator over them.
func buildRouter(regionAddrs string, epochs int, seed uint64, model string, dialTimeout time.Duration) (*region.Router, func() []fleet.WireStatus, func(), error) {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	rcs, err := transport.DialAll(regionAddrs, func(a string) (*transport.RegionClient, error) {
		return transport.DialRegion(ctx, a, transport.DialOptions{Timeout: dialTimeout})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	remotes := make([]*transport.Client, len(rcs))
	services := make([]region.Service, len(rcs))
	for i, rc := range rcs {
		fmt.Printf("qens-gateway: connected to %s (%s)\n", rc.ID(), rc.Client().Addr())
		remotes[i], services[i] = rc.Client(), rc
	}
	closeAll := func() { closeClients(remotes) }
	// The model's input width is the fleet's data space less the target.
	info, err := services[0].Info(ctx)
	if err != nil {
		closeAll()
		return nil, nil, nil, fmt.Errorf("region info from %s: %w", services[0].ID(), err)
	}
	router, err := region.NewRouter(region.Config{Spec: specFor(model, info.Dims-1), LocalEpochs: epochs, Seed: seed}, services)
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return router, func() []fleet.WireStatus { return wireStatus(remotes) }, closeAll, nil
}

func closeClients(remotes []*transport.Client) {
	for _, c := range remotes {
		c.Close()
	}
}

// wireStatus reports each connection's in-flight RPC count and byte
// counters: the /v1/stats transport block in both topologies, and the
// per-node wire status merged into GET /v1/fleet.
func wireStatus(remotes []*transport.Client) []fleet.WireStatus {
	out := make([]fleet.WireStatus, 0, len(remotes))
	for _, c := range remotes {
		sent, recv := c.BytesMoved()
		out = append(out, fleet.WireStatus{
			NodeID: c.ID(), Addr: c.Addr(),
			InflightRPCs: c.InflightRPCs(), BytesOut: sent, BytesIn: recv,
		})
	}
	return out
}

// buildLeader dials a roster of qensd daemons and wires the leader
// over them, with the per-node wire status (see wireStatus).
func buildLeader(addrs string, epochs int, seed uint64, model string, dialTimeout time.Duration) (*federation.Leader, func() []fleet.WireStatus, func(), error) {
	remotes, err := transport.DialAll(addrs, func(a string) (*transport.Client, error) {
		return transport.Dial(a, transport.DialOptions{Timeout: dialTimeout})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	clients := make([]federation.Client, len(remotes))
	for i, c := range remotes {
		fmt.Printf("qens-gateway: connected to %s (%s)\n", c.ID(), c.Addr())
		clients[i] = c
	}
	closeAll := func() { closeClients(remotes) }
	// The model's input width is the advertised data space less the
	// target.
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	sum, err := remotes[0].Summary(ctx)
	cancel()
	if err == nil {
		err = sum.Validate()
	}
	if err != nil {
		closeAll()
		return nil, nil, nil, fmt.Errorf("summary from %s: %w", remotes[0].ID(), err)
	}
	leader, err := federation.NewLeader(federation.Config{
		Spec: specFor(model, sum.Clusters[0].Bounds.Dims()-1), LocalEpochs: epochs, Seed: seed,
	}, nil, clients)
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return leader, func() []fleet.WireStatus { return wireStatus(remotes) }, closeAll, nil
}

func specFor(model string, inputDim int) ml.Spec {
	if model == "nn" {
		return ml.PaperNN(inputDim)
	}
	return ml.PaperLR(inputDim)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qens-gateway: "+format+"\n", args...)
	os.Exit(1)
}
