package main

// stack.go is the only file of the benchmark that imports the program
// (qens/internal/...): it boots one workload's serving stack over real
// loopback TCP, tears it down, and holds the few direct-call probes the
// per-layer metrics need. A later API refactor reconciles this file
// and nothing else under bench/.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/gateway"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
	"qens/internal/transport"
)

// The fleet every workload serves (ISSUE 11): the paper's synthetic
// air-quality corpus, K=5, LR, E=5. fleetSeed is a constant of the
// benchmark, not an input: --seed varies the traffic, never the fleet,
// so two seeds measure the same system.
const (
	fleetSeed    = 1
	fleetK       = 5
	fleetEpochs  = 5
	testFraction = 0.2
	gatewayConns = 2 // keep-alive connections = gateway workers (nproc of the reference box)
	rpcTimeout   = 30 * time.Second
)

// stackOpts selects one workload's topology.
type stackOpts struct {
	nodes, samples int
	cache          bool      // reuse cache + approx tier on, coalescing at its default
	regions        int       // 0: single leader; >0: gateway Router mode over this many region leaders
	ingest         bool      // EnableIngest on every node
	rec            *recorder // non-nil: install the bench's span wrappers at the three seams
}

// stack is one booted workload: nodes → transport servers → clients →
// leader (or regions → router) → gateway → HTTP listener.
type stack struct {
	url    string
	roster []string
	space  rect
	boxes  [][]box // per node, the advertised clusters (ingest row generator)

	opts    stackOpts
	nodes   []*federation.Node
	servers []*transport.Server
	clients []*transport.Client
	leaders []*federation.Leader // one (single leader) or one per region
	leader  *federation.Leader   // nil in router mode
	router  *region.Router       // nil in single-leader mode
	regSrv  []*transport.Server
	regCli  []*transport.RegionClient
	cache   *federation.ReuseCache
	tracer  *telemetry.Tracer
	gw      *gateway.Server
	httpSrv *http.Server
	test    *dataset.Dataset
	spec    ml.Spec
}

func silent(string, ...any) {}

// buildStack boots the stack. On error everything already started is
// torn down again.
func buildStack(o stackOpts) (_ *stack, err error) {
	s := &stack{opts: o}
	defer func() {
		if err != nil {
			_ = s.close()
		}
	}()

	data, err := dataset.PaperNodeDatasets(dataset.Config{Nodes: o.nodes, SamplesPerNode: o.samples, Seed: fleetSeed})
	if err != nil {
		return nil, err
	}
	s.spec = ml.PaperLR(data[0].Dims() - 1)
	s.test = data[0].Empty()

	// Same construction order as federation.NewSimulatedFleet (split
	// RNG then node RNG, in roster order), so the fleet matches what
	// qens-gateway -nodes/-samples would simulate.
	root := rng.New(fleetSeed)
	summaries := make([]cluster.NodeSummary, len(data))
	rosterIndex := make(map[string]int, len(data))
	var fedClients []federation.Client
	for i, d := range data {
		train, held := d.Split(testFraction, root.Split())
		if err := s.test.Merge(held); err != nil {
			return nil, err
		}
		node, err := federation.NewNode("node-"+strconv.Itoa(i), train, fleetK, root.Split())
		if err != nil {
			return nil, err
		}
		if o.ingest {
			if err := node.EnableIngest(federation.IngestConfig{}); err != nil {
				return nil, err
			}
		}
		srv, err := transport.Serve(node, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv.SetLogger(silent)
		s.nodes = append(s.nodes, node)
		s.servers = append(s.servers, srv)
		c, err := transport.Dial(srv.Addr(), transport.DialOptions{Timeout: rpcTimeout})
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
		fedClients = append(fedClients, s.wrapClient(c))
		summaries[i] = node.Summary()
		rosterIndex[node.ID()] = i
		s.roster = append(s.roster, node.ID())
		var boxes []box
		for _, c := range summaries[i].Clusters {
			boxes = append(boxes, box{rect: fromRect(c.Bounds), size: c.Size})
		}
		s.boxes = append(s.boxes, boxes)
	}

	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	fedCfg := federation.Config{Spec: s.spec, ClusterK: fleetK, LocalEpochs: fleetEpochs, Seed: fleetSeed}
	// The program tracer is pinned to the gateway (memory-only, 4096
	// retained spans) exactly as cmd/qens-gateway does; it is NOT made
	// the process default, because the nodes share this process and a
	// shipped qensd runs without one.
	s.tracer = telemetry.NewTracer(nil)
	s.tracer.SetRetention(4096)
	cfg := gateway.ServerConfig{
		Workers:        gatewayConns,
		DefaultEpsilon: queryEps,
		DefaultTopL:    queryTopL,
		Tracer:         s.tracer,
	}
	if !o.cache {
		cfg.CoalesceIoU = -1
	}

	if o.regions == 0 {
		leader, err := s.newLeader(ctx, fedCfg, fedClients)
		if err != nil {
			return nil, err
		}
		s.leader = leader
		cfg.Leader = leader
		if o.cache {
			s.cache, err = federation.NewAdaptiveCache(0.9, 32, federation.ApproxConfig{
				MaxPredictedError: 0.35, MinCoverage: 0.5, ProbeEvery: 8,
			})
			if err != nil {
				return nil, err
			}
			cfg.Cache = s.cache
		}
	} else {
		shards, err := region.Partition(summaries, o.regions)
		if err != nil {
			return nil, err
		}
		var services []region.Service
		for r, shard := range shards {
			members := make([]federation.Client, 0, len(shard))
			for _, n := range shard {
				members = append(members, fedClients[n])
			}
			fed, err := s.newLeader(ctx, fedCfg, members)
			if err != nil {
				return nil, err
			}
			lead, err := region.NewLeader("region-"+strconv.Itoa(r), fed, rosterIndex)
			if err != nil {
				return nil, err
			}
			srv, err := transport.ServeRegion(lead, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv.SetLogger(silent)
			s.regSrv = append(s.regSrv, srv)
			rc, err := transport.DialRegion(ctx, srv.Addr(), transport.DialOptions{Timeout: rpcTimeout})
			if err != nil {
				return nil, err
			}
			s.regCli = append(s.regCli, rc)
			services = append(services, s.wrapRegion(rc))
		}
		s.router, err = region.NewRouter(region.Config{Spec: s.spec, LocalEpochs: fleetEpochs, Seed: fleetSeed}, services)
		if err != nil {
			return nil, err
		}
		cfg.Router = s.router
	}

	if s.gw, err = gateway.NewServer(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.wrapHandler(s.gw.Handler()), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }() // returns ErrServerClosed on Shutdown; close() waits for it
	s.url = "http://" + ln.Addr().String()

	covers := make([]geometry.Rect, len(summaries))
	for i, sum := range summaries {
		covers[i] = region.CoveringRect(sum)
	}
	space, err := query.GlobalSpace(covers)
	if err != nil {
		return nil, err
	}
	s.space = fromRect(space)
	return s, nil
}

// newLeader builds one federation leader, subscribes it to summary
// pushes and performs the first summary fetch.
func (s *stack) newLeader(ctx context.Context, cfg federation.Config, clients []federation.Client) (*federation.Leader, error) {
	l, err := federation.NewLeader(cfg, nil, clients)
	if err != nil {
		return nil, err
	}
	s.leaders = append(s.leaders, l)
	n, err := l.StartPush(ctx)
	if err != nil {
		return nil, err
	}
	if n != len(clients) {
		return nil, fmt.Errorf("bench: summary push accepted by %d of %d nodes", n, len(clients))
	}
	if _, err := l.SummariesContext(ctx); err != nil {
		return nil, err
	}
	return l, nil
}

// close tears the stack down front to back and waits for each layer.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	var errs []error
	if s.gw != nil {
		errs = append(errs, s.gw.Drain(ctx))
	}
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Shutdown(ctx))
	}
	for _, l := range s.leaders {
		l.StopPush()
	}
	for _, rc := range s.regCli {
		errs = append(errs, rc.Close())
	}
	for _, srv := range s.regSrv {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, c := range s.clients {
		errs = append(errs, c.Close())
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

func fromRect(r geometry.Rect) rect {
	return rect{Min: append([]float64(nil), r.Min...), Max: append([]float64(nil), r.Max...)}
}

// answerMSE rebuilds the served ensemble from a response's
// local_params and participant ranks and scores it on the held-out
// rows inside the query rectangle (the paper's loss, Tables I–II).
// ok is false when no held-out row falls inside the rectangle.
func (s *stack) answerMSE(r rect, params [][]float64, ranks []float64) (mse float64, ok bool, err error) {
	sub := s.test.FilterInRect(geometry.Rect{Min: r.Min, Max: r.Max})
	if sub.Len() == 0 {
		return 0, false, nil
	}
	tmpl, err := s.spec.New()
	if err != nil {
		return 0, false, err
	}
	ps := make([]ml.Params, len(params))
	for i, v := range params {
		ps[i] = tmpl.Params()
		ps[i].Values = v
	}
	ens, err := federation.NewEnsemble(s.spec, ps, ranks, federation.WeightedAveraging)
	if err != nil {
		return 0, false, err
	}
	x, y := sub.XY()
	return ml.MSE(y, ens.PredictBatch(x)), true, nil
}

// setProgramTracer switches the program's own tracer on or off between
// phases (telemetry.tracer_cost_frac); no query is in flight when it
// is called.
func (s *stack) setProgramTracer(on bool) {
	t := s.tracer
	if !on {
		t = nil
	}
	if s.router != nil {
		s.router.SetTracer(t) // region leaders run untraced, as qens-region does
	} else {
		s.leader.SetTracer(t)
	}
}

// wireBytes is the total moved by every transport client of the stack.
func (s *stack) wireBytes() int64 {
	var total int64
	for _, c := range s.clients {
		out, in := c.BytesMoved()
		total += out + in
	}
	for _, rc := range s.regCli {
		out, in := rc.Client().BytesMoved()
		total += out + in
	}
	return total
}

// ingestTotals sums the streaming counters of every node.
type ingestTotals struct {
	epochBumps, suppressedBumps, fullRequants int64
}

func (s *stack) ingestStats() ingestTotals {
	var t ingestTotals
	for _, n := range s.nodes {
		if st, ok := n.IngestStats(); ok {
			t.epochBumps += st.EpochBumps
			t.suppressedBumps += st.SuppressedBumps
			t.fullRequants += st.FullRequants
		}
	}
	return t
}

// ingest feeds rows to one node and reports whether the call flushed
// at least one mini-batch through the stream quantizer.
func (s *stack) ingest(node int, rows [][]float64) (flushed bool, err error) {
	n := s.nodes[node]
	before, _ := n.IngestStats()
	if err := n.Ingest(rows); err != nil {
		return false, err
	}
	after, _ := n.IngestStats()
	return after.Batches+after.FullRequants > before.Batches+before.FullRequants, nil
}

// onAdvertise registers fn on every node's epoch-bump seam (the moment
// a node decides to advertise) and returns the unsubscribe func.
func (s *stack) onAdvertise(fn func()) (unsubscribe func()) {
	var unsubs []func()
	for _, n := range s.nodes {
		unsubs = append(unsubs, n.OnAdvertise(func(cluster.NodeSummary) { fn() }))
	}
	return func() {
		for _, u := range unsubs {
			u()
		}
	}
}

// summaryEpoch is the sum of the leaders' registry epochs: it moves
// whenever any of them publishes a new snapshot.
func (s *stack) summaryEpoch() uint64 {
	var e uint64
	for _, l := range s.leaders {
		e += l.SummaryEpoch()
	}
	return e
}

// Direct-call probes. Each times one program entry point over the
// workload's rectangles, outside any HTTP request, and returns the
// mean per call.

var probeSelector = selection.QueryDriven{Epsilon: queryEps, TopL: queryTopL}

func probeQueries(rects []rect) ([]query.Query, error) {
	qs := make([]query.Query, len(rects))
	for i, r := range rects {
		var err error
		if qs[i], err = query.New("probe-"+strconv.Itoa(i), geometry.Rect{Min: r.Min, Max: r.Max}); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

func (s *stack) probePlan(ctx context.Context, rects []rect) (planUS, explainUS float64, err error) {
	qs, err := probeQueries(rects)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for _, q := range qs {
		if s.router != nil {
			_, err = s.router.PlanKey(ctx, q, probeSelector)
		} else {
			pl, perr := s.leader.PlanContext(ctx, q, probeSelector)
			if err = perr; err == nil {
				pl.Release()
			}
		}
		if err != nil {
			return 0, 0, err
		}
	}
	t1 := time.Now()
	for _, q := range qs {
		if s.router != nil {
			_, err = s.router.ExplainQuery(ctx, q, probeSelector)
		} else {
			pl, perr := s.leader.ExplainContext(ctx, q, probeSelector)
			if err = perr; err == nil {
				pl.Release()
			}
		}
		if err != nil {
			return 0, 0, err
		}
	}
	t2 := time.Now()
	n := float64(len(qs))
	return float64(t1.Sub(t0).Microseconds()) / n, float64(t2.Sub(t1).Microseconds()) / n, nil
}

// probeCache times ReuseCache.Answer against the cache as the earlier
// phases left it; 0 when the workload runs without a cache.
func (s *stack) probeCache(rects []rect) (answerUS float64, err error) {
	if s.cache == nil {
		return 0, nil
	}
	epoch := s.leader.Registry().ReuseEpoch()
	qs, err := probeQueries(rects)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, q := range qs {
		s.cache.Answer(q, epoch)
	}
	return float64(time.Since(t0).Microseconds()) / float64(len(qs)), nil
}

// probeRefresh times a full summary refresh (invalidate + re-fetch of
// every advertisement over the wire), mean of n rounds.
func (s *stack) probeRefresh(ctx context.Context, n int) (refreshMS float64, err error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for _, l := range s.leaders {
			l.InvalidateSummaries()
			if _, err := l.SummariesContext(ctx); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Microseconds()) / 1e3 / float64(n), nil
}

// Span wrappers at the three seams the program exposes as interfaces.
// They exist only in a traced run (opts.rec != nil); the end-to-end
// run serves through the program's own types.

func (s *stack) wrapHandler(h http.Handler) http.Handler {
	rec := s.opts.rec
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil || !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rec.cur.Store(id)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(span{Name: spanHTTP, Start: t0, End: time.Now(), Req: id})
	})
}

type tracedClient struct {
	*transport.Client // Summary, Evaluate, SummaryIfChanged and SubscribeSummaries pass through
	rec               *recorder
	parent            string
}

func (s *stack) wrapClient(c *transport.Client) federation.Client {
	if s.opts.rec == nil {
		return c
	}
	parent := spanHTTP
	if s.opts.regions > 0 {
		parent = spanRegionTrain
	}
	return tracedClient{Client: c, rec: s.opts.rec, parent: parent}
}

func (c tracedClient) Train(ctx context.Context, req federation.TrainRequest) (federation.TrainResponse, error) {
	t0 := time.Now()
	resp, err := c.Client.Train(ctx, req)
	c.rec.add(span{
		Name: spanClientTrain, Parent: c.parent, Peer: c.ID(), Start: t0, End: time.Now(), Req: c.rec.cur.Load(),
		InnerMS: float64(resp.TrainTime) / float64(time.Millisecond), Samples: resp.SamplesUsed,
	})
	return resp, err
}

type tracedRegion struct {
	region.Service
	rec *recorder
}

func (s *stack) wrapRegion(svc region.Service) region.Service {
	if s.opts.rec == nil {
		return svc
	}
	return tracedRegion{Service: svc, rec: s.opts.rec}
}

func (r tracedRegion) Plan(ctx context.Context, req region.PlanRequest) (region.PlanResponse, error) {
	t0 := time.Now()
	resp, err := r.Service.Plan(ctx, req)
	r.rec.add(span{Name: spanRegionPlan, Parent: spanHTTP, Peer: r.ID(), Start: t0, End: time.Now(), Req: r.rec.cur.Load()})
	return resp, err
}

func (r tracedRegion) Train(ctx context.Context, req region.TrainRequest) (region.TrainResponse, error) {
	t0 := time.Now()
	resp, err := r.Service.Train(ctx, req)
	r.rec.add(span{Name: spanRegionTrain, Parent: spanHTTP, Peer: r.ID(), Start: t0, End: time.Now(), Req: r.rec.cur.Load()})
	return resp, err
}
