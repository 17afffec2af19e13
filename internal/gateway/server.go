package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/federation"
	"qens/internal/fleet"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// ServerConfig parameterizes the HTTP serving layer.
type ServerConfig struct {
	// Leader serves a single-leader fleet; Router a spatially sharded
	// multi-leader topology (see internal/region) through its root
	// coordinator. Exactly one must be set; NewServer resolves it to
	// the Serving every endpoint goes through.
	Leader *federation.Leader
	Router *region.Router
	// Cache, when non-nil, fronts whichever topology serves with result
	// reuse (see federation.Serve).
	Cache *federation.ReuseCache

	// Workers, QueueDepth, DefaultTimeout and CoalesceIoU configure
	// the scheduler (see Config). CoalesceIoU defaults to 0.95 here —
	// the serving layer wants near-identical concurrent queries to
	// share one training run; pass a negative value to disable
	// coalescing entirely.
	Workers        int
	QueueDepth     int
	DefaultTimeout time.Duration
	CoalesceIoU    float64
	// MaxTimeout caps client-supplied per-query budgets (default 5m).
	MaxTimeout time.Duration

	// DefaultEpsilon and DefaultTopL parameterize the query-driven
	// selector when the request omits them (defaults 0.6 and 3, the
	// paper's operating point).
	DefaultEpsilon float64
	DefaultTopL    int

	// RecordCapacity bounds the finished-query store backing
	// GET /v1/query/{id} (default 256; oldest evicted).
	RecordCapacity int

	// Registry receives gateway metrics (default telemetry.Default()).
	Registry *telemetry.Registry

	// Tracer backs GET /v1/trace/{id} and /v1/traces; when nil the
	// process-default tracer (telemetry.DefaultTracer) serves them. The
	// endpoints 404 when neither is installed. NewServer pins a non-nil
	// Tracer to the topology, so query spans land in the same store the
	// endpoints serve.
	Tracer *telemetry.Tracer
	// WireStatus, when non-nil, supplies per-connection transport state
	// (in-flight RPCs, byte counters) for a remote fleet: the /v1/stats
	// "transport" block in both topologies, and merged per node into
	// GET /v1/fleet for a single leader.
	WireStatus func() []fleet.WireStatus
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.CoalesceIoU == 0 {
		c.CoalesceIoU = 0.95
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DefaultEpsilon == 0 {
		c.DefaultEpsilon = 0.6
	}
	if c.DefaultTopL == 0 {
		c.DefaultTopL = 3
	}
	if c.RecordCapacity == 0 {
		c.RecordCapacity = 256
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	return c
}

// Server is the gateway's HTTP serving layer: request parsing,
// admission, response shaping, and the stats/metrics surface.
type Server struct {
	cfg     ServerConfig
	srv     Serving
	cache   *federation.ReuseCache
	sched   *Scheduler
	records *recordStore
	start   time.Time
	nextID  atomic.Int64
	handler http.Handler
}

// NewServer builds a gateway server (and its scheduler) over a leader
// or a region router.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if (cfg.Leader == nil) == (cfg.Router == nil) {
		return nil, errors.New("gateway: server needs exactly one of Leader and Router")
	}
	var srv Serving = cfg.Router
	if cfg.Leader != nil {
		srv = leaderServing{Leader: cfg.Leader, wire: cfg.WireStatus}
	}
	return newServer(cfg, srv, cfg.Cache)
}

// newServer builds the server over a resolved topology and cache.
func newServer(cfg ServerConfig, srv Serving, cache *federation.ReuseCache) (*Server, error) {
	sched, err := NewScheduler(Config{
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		DefaultTimeout: cfg.DefaultTimeout,
		CoalesceIoU:    cfg.CoalesceIoU,
		Executor:       srv,
		Registry:       cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		srv.SetTracer(cfg.Tracer)
	}
	s := &Server{
		cfg:     cfg,
		srv:     srv,
		cache:   cache,
		sched:   sched,
		records: newRecordStore(cfg.RecordCapacity),
		start:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleSubmit)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/query/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	obs := telemetry.NewHTTPHandler(cfg.Registry, s.health, s.start)
	mux.Handle("/metrics", obs)
	mux.Handle("/healthz", obs)
	mux.Handle("/debug/pprof/", obs)
	s.handler = mux
	return s, nil
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops admission and waits for in-flight queries (bounded by
// ctx). Call before shutting the HTTP listener down so waiting
// handlers can still deliver their responses. Summary push delivery is
// gated off first, so late frames from the fleet cannot mutate the
// registry mid-teardown.
func (s *Server) Drain(ctx context.Context) error {
	s.srv.StopPush()
	return s.sched.Drain(ctx)
}

// Close force-drains the scheduler.
func (s *Server) Close() {
	s.srv.StopPush()
	s.sched.Close()
}

// healthTimeout bounds the topology's share of a /healthz probe: a
// region that stopped answering must not stall it for the full client
// timeout.
const healthTimeout = 2 * time.Second

// health feeds the /healthz document.
func (s *Server) health() map[string]any {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	doc := s.srv.Health(ctx)
	st := s.sched.SchedStats()
	doc["draining"] = st.Draining
	doc["queue_depth"] = st.QueueDepth
	doc["inflight"] = st.InFlight
	return doc
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// ID names the query (generated when empty; must be unique among
	// retained records).
	ID string `json:"id"`
	// Bounds is the query hyper-rectangle.
	Bounds geometry.Rect `json:"bounds"`
	// Selector picks the mechanism: "query-driven" (default) or
	// "all-nodes".
	Selector string `json:"selector"`
	// Epsilon, TopL, Psi parameterize query-driven selection; at most
	// one of TopL and Psi may be set.
	Epsilon float64 `json:"epsilon"`
	TopL    int     `json:"top_l"`
	Psi     float64 `json:"psi"`
	// Aggregation is "weighted" (default) or "averaging".
	Aggregation string `json:"aggregation"`
	// TimeoutMS bounds execution; Deadline (RFC3339) is the absolute
	// alternative. When both are set the earlier wins.
	TimeoutMS int64  `json:"timeout_ms"`
	Deadline  string `json:"deadline"`
	// Async returns 202 immediately; poll GET /v1/query/{id}.
	Async bool `json:"async"`
	// IncludeParams embeds the local model parameter vectors in the
	// response (large; off by default).
	IncludeParams bool `json:"include_params"`
}

// participantJSON is one selected node in a response.
type participantJSON struct {
	NodeID   string  `json:"node_id"`
	Rank     float64 `json:"rank"`
	Clusters []int   `json:"clusters,omitempty"`
}

// queryResponse is the POST /v1/query (and record) result body.
type queryResponse struct {
	ID           string            `json:"id"`
	Selector     string            `json:"selector"`
	Aggregation  string            `json:"aggregation"`
	Participants []participantJSON `json:"participants"`
	Failed       []string          `json:"failed,omitempty"`
	Reused       bool              `json:"reused"`
	// Approx reports the answer came from the model cache under the
	// predicted-error bound rather than an exact-IoU match: the
	// ensemble was trained on a nearby subspace, not this query's.
	Approx      bool          `json:"approx,omitempty"`
	Coalesced   bool          `json:"coalesced"`
	QueueWaitMS float64       `json:"queue_wait_ms"`
	ElapsedMS   float64       `json:"elapsed_ms"`
	Stats       execStatsJSON `json:"stats"`
	LocalParams [][]float64   `json:"local_params,omitempty"`
}

// execStatsJSON mirrors federation.Stats for the wire.
type execStatsJSON struct {
	SelectionMS   float64 `json:"selection_ms"`
	TrainMS       float64 `json:"train_ms"`
	WallMS        float64 `json:"wall_ms"`
	SamplesUsed   int     `json:"samples_used"`
	SamplesAll    int     `json:"samples_all_nodes"`
	DataFraction  float64 `json:"data_fraction"`
	BytesUp       int64   `json:"bytes_up"`
	BytesDown     int64   `json:"bytes_down"`
	EnsembleSize  int     `json:"ensemble_size"`
	FailedRounds  int     `json:"failed_rounds"`
	Participating int     `json:"participating"`
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// buildSelector maps the request's selector spec to one of the two
// served mechanisms: query-driven (top-ℓ or ψ, Eq. 4–5) and all-nodes.
// The paper's baselines run in the harness (internal/experiments), not
// here. The default top-ℓ applies only when neither top_l nor psi is
// given, and malformed query-driven parameters fail here, before the
// query can take a queue slot.
func (s *Server) buildSelector(req queryRequest) (selection.Selector, error) {
	switch strings.ToLower(req.Selector) {
	case "", "query-driven":
		qd := selection.QueryDriven{Epsilon: req.Epsilon, TopL: req.TopL, Psi: req.Psi}
		if qd.Epsilon == 0 {
			qd.Epsilon = s.cfg.DefaultEpsilon
		}
		if qd.TopL == 0 && qd.Psi == 0 {
			qd.TopL = s.cfg.DefaultTopL
		}
		if qd.Epsilon < 0 {
			return nil, fmt.Errorf("epsilon %v must be > 0", qd.Epsilon)
		}
		if err := qd.Validate(); err != nil {
			return nil, err
		}
		return qd, nil
	case "all-nodes":
		return selection.AllNodes{}, nil
	default:
		return nil, fmt.Errorf("unknown selector %q", req.Selector)
	}
}

// planAhead runs the selection stage at admission time: the scheduler
// coalesces on the outcome's key without an IoU approximation, and
// execution trains from it instead of planning again. Both served
// selectors are deterministic, so planning early consumes no draw or
// state that belongs to execution. A query no advertised cluster
// supports fails here with selection.ErrNoCandidates before it can
// occupy a queue slot; any other planning error is advisory (execution
// replans and surfaces it).
func (s *Server) planAhead(ctx context.Context, q query.Query, sel selection.Selector) (*federation.Prepared, error) {
	p, err := s.srv.Prepare(ctx, q, sel)
	if err != nil && !errors.Is(err, selection.ErrNoCandidates) {
		return nil, nil
	}
	return p, err
}

func buildAggregation(name string) (federation.Aggregation, error) {
	switch strings.ToLower(name) {
	case "", "weighted":
		return federation.WeightedAveraging, nil
	case "averaging", "model":
		return federation.ModelAveraging, nil
	default:
		return 0, fmt.Errorf("unknown aggregation %q", name)
	}
}

// timeoutFor resolves the request's execution budget: timeout_ms
// and/or an absolute RFC3339 deadline, capped at MaxTimeout. ok=false
// with a zero duration means the deadline already passed.
func (s *Server) timeoutFor(req queryRequest, now time.Time) (time.Duration, bool, error) {
	timeout := s.cfg.DefaultTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	if req.TimeoutMS != 0 {
		if req.TimeoutMS < 0 {
			return 0, false, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
		}
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.Deadline != "" {
		abs, err := time.Parse(time.RFC3339, req.Deadline)
		if err != nil {
			return 0, false, fmt.Errorf("bad deadline %q: %v", req.Deadline, err)
		}
		if until := abs.Sub(now); until < timeout {
			timeout = until
		}
	}
	if timeout <= 0 {
		return 0, false, nil
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout, true, nil
}

// handleSubmit serves POST /v1/query.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	id := req.ID
	if id == "" {
		id = fmt.Sprintf("gw-%d", s.nextID.Add(1))
	}
	q, err := query.New(id, req.Bounds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, err := s.buildSelector(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg, err := buildAggregation(req.Aggregation)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, alive, err := s.timeoutFor(req, time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !alive {
		// The deadline expired before admission: fail promptly with
		// the context error, exactly as a late cancellation would.
		writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, context.DeadlineExceeded)
		return
	}

	freq := federation.Request{Query: q, Selector: sel, Aggregation: agg, Cache: s.cache}
	if freq.Prepared, err = s.planAhead(r.Context(), q, sel); err != nil {
		// No edge node's cluster space supports the requested bounds.
		// Before rejecting, ask the model cache: an ensemble trained on
		// a nearby subspace can still answer within the predicted-error
		// bound even when nobody can train this exact rectangle.
		if resp, ok := s.answerFromCache(r.Context(), id, freq); ok {
			now := time.Now()
			s.records.put(id, &record{ID: id, Status: recordDone, Submitted: now, Finished: &now, Result: resp})
			if req.Async {
				writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(recordDone)})
				return
			}
			writeJSON(w, http.StatusOK, *resp)
			return
		}
		// A property of the query, not a server fault — rejected before
		// it can occupy a queue slot.
		writeError(w, http.StatusUnprocessableEntity, "query %s: %v", id, err)
		return
	}

	// The submitter's context carries the query deadline so an
	// already-expired budget is rejected inside Submit too.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	tk, err := s.sched.Submit(ctx, Request{Request: freq, Timeout: timeout})
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	s.records.put(id, &record{ID: id, Status: recordPending, Submitted: time.Now()})
	// The record tracker outlives the HTTP request: async clients and
	// sync clients whose connection died both find the outcome under
	// GET /v1/query/{id}.
	go s.trackRecord(id, req.IncludeParams, tk)

	if req.Async {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(recordPending)})
		return
	}

	out, err := tk.Wait(ctx)
	if err != nil {
		writeServingError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, buildResponse(id, out, req.IncludeParams))
}

// trackRecord waits for the task (detached from any HTTP context) and
// finalizes the stored record.
func (s *Server) trackRecord(id string, includeParams bool, tk *Ticket) {
	out, err := tk.Wait(context.Background())
	now := time.Now()
	if err != nil {
		s.records.update(id, func(rec *record) {
			rec.Status = recordError
			rec.Error = err.Error()
			rec.Finished = &now
		})
		return
	}
	resp := buildResponse(id, out, includeParams)
	s.records.update(id, func(rec *record) {
		rec.Status = recordDone
		rec.Result = &resp
		rec.Finished = &now
	})
}

// answerFromCache tries to serve a query that cannot be planned (no
// supporting candidates) straight from the model cache: exact-IoU
// match first, then the approximate tier under its predicted-error
// bound — keyed and fenced like any other lookup of the topology's.
func (s *Server) answerFromCache(ctx context.Context, id string, req federation.Request) (*queryResponse, bool) {
	req.CacheOnly = true
	res, kind, err := s.srv.Execute(ctx, req)
	if err != nil {
		return nil, false
	}
	resp := buildResponse(id, &Outcome{Result: res, Kind: kind}, false)
	return &resp, true
}

// buildResponse shapes one outcome for the wire.
func buildResponse(id string, out *Outcome, includeParams bool) queryResponse {
	res := out.Result
	resp := queryResponse{
		ID:          id,
		Selector:    res.Selector,
		Aggregation: res.Aggregation.String(),
		Reused:      out.Kind.Reused(),
		Approx:      out.Kind == federation.ServeApprox,
		Coalesced:   out.Coalesced,
		QueueWaitMS: float64(out.QueueWait) / float64(time.Millisecond),
		ElapsedMS:   float64(out.Elapsed) / float64(time.Millisecond),
		Failed:      res.Failed,
		Stats: execStatsJSON{
			SelectionMS:   float64(res.Stats.SelectionTime) / float64(time.Millisecond),
			TrainMS:       float64(res.Stats.TrainTime) / float64(time.Millisecond),
			WallMS:        float64(res.Stats.WallTime) / float64(time.Millisecond),
			SamplesUsed:   res.Stats.SamplesUsed,
			SamplesAll:    res.Stats.SamplesAllNodes,
			DataFraction:  res.Stats.DataFraction(),
			BytesUp:       res.Stats.BytesUp,
			BytesDown:     res.Stats.BytesDown,
			EnsembleSize:  res.Ensemble.Size(),
			FailedRounds:  len(res.Failed),
			Participating: len(res.Participants),
		},
	}
	for _, p := range res.Participants {
		resp.Participants = append(resp.Participants, participantJSON{
			NodeID: p.NodeID, Rank: p.Rank, Clusters: p.Clusters,
		})
	}
	if includeParams {
		for _, p := range res.LocalParams {
			resp.LocalParams = append(resp.LocalParams, p.Values)
		}
	}
	return resp
}

// planResponse is the POST /v1/plan (EXPLAIN) body: the selection the
// topology would execute for the query, plus the full per-node ranking
// behind it, produced without a single training RPC.
type planResponse struct {
	ID         string  `json:"id"`
	Epoch      uint64  `json:"epoch"`
	Selector   string  `json:"selector"`
	Epsilon    float64 `json:"epsilon"`
	Key        string  `json:"key,omitempty"`
	Candidates int     `json:"candidates"`
	// Regions lists the sharded topology's regions (router mode only);
	// Epoch is then the routing-topology generation, not a registry
	// epoch.
	Regions      []string          `json:"regions,omitempty"`
	Participants []participantJSON `json:"participants"`
	Rankings     []rankJSON        `json:"rankings,omitempty"`
}

// rankJSON is one node's EXPLAIN row (Eqs. 2–4 of the paper).
type rankJSON struct {
	NodeID            string  `json:"node_id"`
	Rank              float64 `json:"rank"`
	Potential         float64 `json:"potential"`
	Supporting        []int   `json:"supporting,omitempty"`
	SupportingSamples int     `json:"supporting_samples"`
	TotalSamples      int     `json:"total_samples"`
}

// handlePlan serves POST /v1/plan — EXPLAIN for a query: it runs only
// the pure-CPU planning stage (registry snapshot, candidate ranking,
// selection) and reports what the leader would train, without touching
// a node.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("plan-%d", s.nextID.Add(1))
	}
	q, err := query.New(id, req.Bounds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, err := s.buildSelector(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ex, err := s.srv.ExplainQuery(r.Context(), q, sel)
	if err != nil {
		writeServingError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, buildPlanResponse(id, ex))
}

// writeServingError maps what the topology reports for a query to a
// status, the same for execution and planning.
func writeServingError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, selection.ErrNoCandidates):
		// A property of the query, not a server fault: no edge node's
		// cluster space supports the requested bounds.
		writeError(w, http.StatusUnprocessableEntity, "query %s: %v", id, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, err)
	default:
		writeError(w, http.StatusBadGateway, "query %s: %v", id, err)
	}
}

// buildPlanResponse shapes an EXPLAIN for the wire.
func buildPlanResponse(id string, ex *federation.Explanation) planResponse {
	resp := planResponse{
		ID:         id,
		Epoch:      ex.Epoch,
		Selector:   ex.Selector,
		Epsilon:    ex.Epsilon,
		Key:        ex.Key,
		Candidates: len(ex.Rankings),
		Regions:    ex.Regions,
	}
	for _, p := range ex.Participants {
		resp.Participants = append(resp.Participants, participantJSON{NodeID: p.NodeID, Rank: p.Rank, Clusters: p.Clusters})
	}
	for _, nr := range ex.Rankings {
		resp.Rankings = append(resp.Rankings, rankJSON{
			NodeID:            nr.NodeID,
			Rank:              nr.Rank,
			Potential:         nr.Potential,
			Supporting:        nr.Supporting,
			SupportingSamples: nr.SupportingSamples,
			TotalSamples:      nr.TotalSamples,
		})
	}
	return resp
}

// handleGet serves GET /v1/query/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.records.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no record of query %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// windowJSON is a rolling-window latency summary on the wire.
type windowJSON struct {
	WindowS float64 `json:"window_s"`
	Count   int64   `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// statsResponse is the GET /v1/stats document.
type statsResponse struct {
	UptimeS   float64 `json:"uptime_s"`
	Scheduler Stats   `json:"scheduler"`
	// Reuse is the reuse cache's full scoreboard: exact-tier
	// hit/miss/eviction counts plus the approximate tier's hits,
	// ground-truth probes and fallbacks when it is enabled.
	Reuse   *federation.ReuseCacheStats `json:"reuse_cache,omitempty"`
	Latency struct {
		Count  int64   `json:"count"`
		MeanMS float64 `json:"mean_ms"`
		P50MS  float64 `json:"p50_ms"`
		P95MS  float64 `json:"p95_ms"`
		P99MS  float64 `json:"p99_ms"`
		MaxMS  float64 `json:"max_ms"`
		// Window summarizes only the last rolling window (see
		// Scheduler.LatencyWindow) next to the cumulative numbers.
		Window windowJSON `json:"window"`
	} `json:"latency"`
	// Description is the topology's part: nodes, space and registry
	// (single leader) or router (sharded) stats.
	region.Description
	Transport []fleet.WireStatus `json:"transport,omitempty"`
}

// handleStats serves GET /v1/stats: scheduler counters, reuse-cache
// effectiveness, latency percentiles, the node roster and the global
// data space (load generators draw workloads from it).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.UptimeS = time.Since(s.start).Seconds()
	resp.Scheduler = s.sched.SchedStats()
	resp.Description = s.srv.Describe(r.Context())
	if s.cache != nil {
		st := s.cache.CacheStats()
		resp.Reuse = &st
	}
	snap := s.sched.LatencySnapshot()
	resp.Latency.Count = snap.Count
	if snap.Count > 0 {
		resp.Latency.MeanMS = snap.Sum / float64(snap.Count)
	}
	resp.Latency.P50MS = snap.P50
	resp.Latency.P95MS = snap.P95
	resp.Latency.P99MS = snap.P99
	resp.Latency.MaxMS = snap.Max
	win := s.sched.LatencyWindow()
	resp.Latency.Window = windowJSON{
		WindowS: win.Window.Seconds(),
		Count:   win.Count,
		MeanMS:  win.Mean(),
		P50MS:   win.P50,
		P95MS:   win.P95,
		P99MS:   win.P99,
		MaxMS:   win.Max,
	}
	if s.cfg.WireStatus != nil {
		resp.Transport = s.cfg.WireStatus()
	}
	writeJSON(w, http.StatusOK, resp)
}

// tracer resolves the tracer backing the trace endpoints: the
// configured one, else the process default (possibly nil).
func (s *Server) tracer() *telemetry.Tracer {
	if s.cfg.Tracer != nil {
		return s.cfg.Tracer
	}
	return telemetry.DefaultTracer()
}

// traceResponse is the GET /v1/trace/{id} document: the assembled
// cross-process span tree plus its critical-path decomposition.
type traceResponse struct {
	*telemetry.TraceTree
	CriticalPath telemetry.CriticalPathReport `json:"critical_path"`
}

// handleTrace serves GET /v1/trace/{id}: the assembled tree for one
// query's trace — leader spans plus the node-side spans piggybacked on
// RPC responses — with wall time attributed per phase category.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing is not enabled on this gateway")
		return
	}
	id := r.PathValue("id")
	spans := tr.TraceSpans(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no retained spans for trace %q", id)
		return
	}
	tree, err := telemetry.AssembleTrace(spans, id)
	if err != nil {
		writeError(w, http.StatusNotFound, "trace %q: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, traceResponse{TraceTree: tree, CriticalPath: tree.CriticalPath()})
}

// traceListEntry is one retained trace root in GET /v1/traces.
type traceListEntry struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Query      string    `json:"query,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// handleTraces serves GET /v1/traces: the most recent retained trace
// roots, newest first — the index for /v1/trace/{id}.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing is not enabled on this gateway")
		return
	}
	const maxList = 64
	spans := tr.Spans()
	out := make([]traceListEntry, 0, maxList)
	for i := len(spans) - 1; i >= 0 && len(out) < maxList; i-- {
		sp := spans[i]
		if sp.ParentID != "" {
			continue
		}
		out = append(out, traceListEntry{
			TraceID:    sp.TraceID,
			Name:       sp.Name,
			Start:      sp.Start,
			DurationMS: sp.DurationMS,
			Query:      sp.Attrs["query"],
			Error:      sp.Error,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleFleet serves GET /v1/fleet: per-node health scores from round
// observations, merged with summary-epoch staleness from the registry
// and (for remote single-leader fleets) wire-level transport state.
// Under the root router the report is assembled per region from each
// regional leader's own registry and health tracker.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	rep, err := s.srv.Fleet(r.Context())
	if err != nil {
		writeError(w, http.StatusBadGateway, "fleet report: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// recordStatus is a stored query's lifecycle phase.
type recordStatus string

const (
	recordPending recordStatus = "pending"
	recordDone    recordStatus = "done"
	recordError   recordStatus = "error"
)

// record is one retained query outcome.
type record struct {
	ID        string         `json:"id"`
	Status    recordStatus   `json:"status"`
	Submitted time.Time      `json:"submitted_at"`
	Finished  *time.Time     `json:"finished_at,omitempty"`
	Result    *queryResponse `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// recordStore is a bounded id-keyed store with FIFO eviction.
type recordStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*record
	order []string
}

func newRecordStore(capacity int) *recordStore {
	return &recordStore{cap: capacity, byID: make(map[string]*record)}
}

func (rs *recordStore) put(id string, rec *record) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, exists := rs.byID[id]; !exists {
		if len(rs.order) == rs.cap {
			delete(rs.byID, rs.order[0])
			rs.order = rs.order[1:]
		}
		rs.order = append(rs.order, id)
	}
	rs.byID[id] = rec
}

func (rs *recordStore) update(id string, fn func(*record)) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rec, ok := rs.byID[id]; ok {
		fn(rec)
	}
}

// get returns a copy so callers can serialize it without holding the
// lock.
func (rs *recordStore) get(id string) (record, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.byID[id]
	if !ok {
		return record{}, false
	}
	return *rec, true
}
