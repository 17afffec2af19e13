package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// How --seconds is split. The end-to-end run spends it on the three
// timed phases; the traced run on five shorter ones.
const (
	capacityShare = 0.25
	midShare      = 0.50
	hiShare       = 0.25
	cycles        = 10 // windows per timed phase
	setupRounds   = 5  // set-up is repeated and setup_s is the median
	tracerSlices  = 8  // traced run: on/off slices of the program-tracer comparison
)

// runner executes one workload once. size is what the test's quick
// pass shrinks; the benchmark always runs fullSize.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	size    size
	chk     *checker
}

type size struct {
	nodes, samples int // the fleet
	rects          int // distinct rectangles; the timed phases cycle through them
	quality        int // first rectangles, replayed sequentially in the quality phase
	margin         int // participants a workload with planEps must be able to select at that ε
}

// fullSize is the ISSUE's fleet: 10 nodes × 3000 samples. README.md
// records the train share it yields on miss_train.
var fullSize = size{nodes: 10, samples: 3000, rects: 4096, quality: 400, margin: queryTopL}

func (r *runner) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// checker accumulates the output checks: any failure makes the run
// incorrect and the command exit non-zero.
type checker struct {
	attempted, failed int
	problems          int
}

func (c *checker) correct() bool { return c.failed == 0 && c.problems == 0 }

func (c *checker) problem(format string, args ...any) {
	if c.problems++; c.problems <= 10 {
		fmt.Fprintf(os.Stderr, "bench: CHECK FAILED: "+format+"\n", args...)
	}
}

// answered validates one response: 200, ≥1 participant ⊆ roster, a
// non-empty ensemble and 0 < data_fraction ≤ 1.
func (c *checker) answered(res result, roster map[string]bool) bool {
	c.attempted++
	err := func() error {
		if res.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", res.status, res.err)
		}
		if len(res.body.Participants) == 0 {
			return fmt.Errorf("no participants")
		}
		for _, p := range res.body.Participants {
			if !roster[p.NodeID] {
				return fmt.Errorf("participant %q is not in the roster", p.NodeID)
			}
		}
		if res.body.Stats.EnsembleSize < 1 {
			return fmt.Errorf("ensemble_size %d", res.body.Stats.EnsembleSize)
		}
		if f := res.body.Stats.DataFraction; !(f > 0 && f <= 1) {
			return fmt.Errorf("data_fraction %v", f)
		}
		return nil
	}()
	if err != nil {
		if c.failed++; c.failed <= 10 {
			fmt.Fprintf(os.Stderr, "bench: request %d failed: %v\n", res.req, err)
		}
		return false
	}
	return true
}

// all validates a phase's results against the number of requests the
// phase was due to send; a request never sent counts as failed.
func (c *checker) all(rs []result, due int, roster map[string]bool) {
	for _, res := range rs {
		c.answered(res, roster)
	}
	if missing := due - len(rs); missing > 0 {
		c.attempted += missing
		c.failed += missing
	}
}

// env is one set-up: the booted stack, its request list and an admin
// connection.
type env struct {
	st     *stack
	reqs   *requests
	admin  *conn
	roster map[string]bool
}

// setUp is what setup_s times: build data, quantize, boot nodes, dial,
// first summary fetch, generate and pre-validate the request list.
func (r *runner) setUp(rec *recorder) (*env, error) {
	st, err := buildStack(stackOpts{
		nodes: r.size.nodes, samples: r.size.samples,
		cache: r.w.cache, regions: r.w.regions, ingest: r.w.ingest, rec: rec,
	})
	if err != nil {
		return nil, err
	}
	e := &env{st: st, admin: newConns(st.url, 1)[0], roster: map[string]bool{}}
	for _, id := range st.roster {
		e.roster[id] = true
	}
	eps := queryEps
	if r.w.planEps > 0 {
		eps = r.w.planEps
	}
	e.reqs, err = generate(r.seed, st.space, r.w.replay, r.size.rects, func(rc rect) (bool, error) {
		var plan planResponse
		status, err := e.admin.post("/v1/plan", -1, encodeBody(rc, eps, false), &plan)
		if status == http.StatusUnprocessableEntity {
			return false, nil // no node supports the rectangle: redraw it
		}
		if err != nil {
			return false, fmt.Errorf("POST /v1/plan: status %d: %w", status, err)
		}
		// With a margin asked for, one supporting node is not enough
		// either: a full top-ℓ at the stricter ε must be selectable.
		return r.w.planEps == 0 || len(plan.Participants) >= r.size.margin, nil
	})
	if err != nil {
		_ = e.close() // the generate error is the one to report
		return nil, err
	}
	return e, nil
}

func (e *env) close() error {
	e.admin.client.CloseIdleConnections()
	return e.st.close()
}

// settle waits for the goroutine count to come back to base after a
// teardown; a stack that leaves goroutines behind fails the run.
func settle(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %d goroutines after teardown, %d before set-up", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type planResponse struct {
	Participants []struct {
		NodeID string `json:"node_id"`
	} `json:"participants"`
}

// quality replays the first size.quality requests sequentially with
// include_params (deterministic; also the warm-up). Every fresh answer
// must name exactly the participants POST /v1/plan names for the same
// body (indexed execute path vs brute EXPLAIN path), and every answer
// is scored on the held-out rows inside its rectangle.
func (r *runner) quality(e *env) (dataFrac, answerMSE float64) {
	var fracs, mses []float64
	for i := 0; i < r.size.quality; i++ {
		res := e.admin.query(int64(i), encodeBody(e.reqs.rects[i], queryEps, true))
		if !r.chk.answered(res, e.roster) {
			continue
		}
		fracs = append(fracs, res.body.Stats.DataFraction)
		if !res.body.Reused && !res.body.Coalesced {
			var plan planResponse
			if status, err := e.admin.post("/v1/plan", -1, e.reqs.bodies[i], &plan); err != nil {
				r.chk.problem("quality %d: POST /v1/plan: status %d: %v", i, status, err)
			} else if !sameParticipants(res.body, plan) {
				r.chk.problem("quality %d: executed participants %v differ from planned %v", i, res.body.Participants, plan.Participants)
			}
		}
		if len(res.body.LocalParams) != len(res.body.Participants) {
			r.chk.problem("quality %d: %d local_params for %d participants", i, len(res.body.LocalParams), len(res.body.Participants))
			continue
		}
		ranks := make([]float64, len(res.body.Participants))
		for j, p := range res.body.Participants {
			ranks[j] = p.Rank
		}
		mse, ok, err := e.st.answerMSE(e.reqs.rects[i], res.body.LocalParams, ranks)
		if err != nil {
			r.chk.problem("quality %d: rebuild ensemble: %v", i, err)
		} else if ok {
			mses = append(mses, mse)
		}
	}
	dataFrac, answerMSE = mean(fracs), mean(mses)
	if len(mses) == 0 || !finite(answerMSE) {
		r.chk.problem("answer_mse %v over %d scored answers", answerMSE, len(mses))
	}
	return dataFrac, answerMSE
}

func sameParticipants(got response, want planResponse) bool {
	if len(got.Participants) != len(want.Participants) {
		return false
	}
	set := map[string]bool{}
	for _, p := range want.Participants {
		set[p.NodeID] = true
	}
	for _, p := range got.Participants {
		if !set[p.NodeID] {
			return false
		}
	}
	return true
}

// ingestLoad streams seeded rows into every node at ingestRowsPS
// fleet-wide until stop is called, shifting the distribution once half
// of span has passed.
type ingestLoad struct {
	cancel  context.CancelFunc
	done    chan struct{}
	started time.Time

	mu      sync.Mutex
	rows    int
	flushMS []float64
	err     error
}

func startIngest(st *stack, seed int64, span time.Duration) *ingestLoad {
	ctx, cancel := context.WithCancel(context.Background())
	l := &ingestLoad{cancel: cancel, done: make(chan struct{}), started: time.Now()}
	gens := make([]*rowGen, len(st.boxes))
	for i, b := range st.boxes {
		gens[i] = newRowGen(seed<<8+int64(i)+1, b)
	}
	go func() {
		defer close(l.done)
		// One node per tick, round robin, so the flushes of different
		// nodes spread over time instead of landing in one burst.
		const round = 50 * time.Millisecond
		tick := round / time.Duration(len(gens))
		perVisit := float64(ingestRowsPS) * round.Seconds() / float64(len(gens))
		carry := make([]float64, len(gens))
		t := time.NewTicker(tick)
		defer t.Stop()
		for i := 0; ; i = (i + 1) % len(gens) {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			carry[i] += perVisit
			n := int(carry[i])
			carry[i] -= float64(n)
			rows := gens[i].rows(n, time.Since(l.started) > span/2)
			t0 := time.Now()
			flushed, err := st.ingest(i, rows)
			l.mu.Lock()
			l.err = err
			l.rows += n
			if flushed {
				l.flushMS = append(l.flushMS, ms(time.Since(t0)))
			}
			l.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return l
}

// stop ends the stream and returns rows accepted per second and the
// mean duration of the Ingest calls that flushed a mini-batch.
func (l *ingestLoad) stop() (rowsPerS, flushMS float64, err error) {
	l.cancel()
	<-l.done
	return float64(l.rows) / time.Since(l.started).Seconds(), mean(l.flushMS), l.err
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// report prints one phase's summary to standard error.
func report(w workload, name string, rs []result, dur time.Duration) {
	lat := latencies(rs)
	var late []float64
	trained := 0
	for _, r := range rs {
		late = append(late, r.lateMS)
		if !r.body.Reused && !r.body.Coalesced {
			trained++
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s %-8s %6d requests in %5.2fs  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f ms  late_p99 %.3f ms  trained %.3f\n",
		w.name, name, len(rs), dur.Seconds(), quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 1), quantile(late, 0.99), ratio(float64(trained), float64(len(rs))))
}

func okCount(rs []result) int {
	n := 0
	for _, r := range rs {
		if r.status == http.StatusOK {
			n++
		}
	}
	return n
}

// endToEnd is the --trace 0 run: set-up (repeated, median), quality
// phase, then the timed phases. The three timed phases are cut into
// `cycles` windows each and interleaved (capacity, mid, hi, capacity,
// …); every metric is the median over its windows. A stall of the box
// then spoils one window and a slow stretch of a few seconds spoils a
// minority of every phase's windows instead of one whole phase.
func (r *runner) endToEnd() (map[string]float64, error) {
	base := runtime.NumGoroutine()
	var e *env
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			if err := settle(base); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = r.setUp(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	v := map[string]float64{"setup_s": median(setups)}
	v["data_frac"], v["answer_mse"] = r.quality(e)

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(4*r.seconds+30)*time.Second)
	defer cancel()
	conns := newConns(e.st.url, gatewayConns)
	defer closeConns(conns)
	var ing *ingestLoad
	if r.w.ingest {
		ing = startIngest(e.st, r.seed, r.share(1))
	}

	var capacity, cpuMS, allocs, p50, p95, p99, sloOK, late []float64
	var all [3][]result
	p := phase{conns: conns, bodies: e.reqs.bodies, first: r.size.quality}
	for c := 0; c < cycles; c++ {
		// Capacity: closed loop, one request outstanding per connection.
		p.dur = r.share(capacityShare / cycles)
		cpu0, m0, t0 := cpuSeconds(), mallocs(), time.Now()
		rs := p.closedLoop(ctx)
		wall, cpu, m := time.Since(t0).Seconds(), cpuSeconds()-cpu0, mallocs()-m0
		r.chk.all(rs, 0, e.roster)
		done := float64(okCount(rs))
		if done == 0 {
			return nil, fmt.Errorf("%s: a capacity window completed no request", r.w.name)
		}
		capacity = append(capacity, done/wall)
		cpuMS = append(cpuMS, cpu*1e3/done)
		allocs = append(allocs, float64(m)/done)
		all[0] = append(all[0], rs...)
		p.first += len(rs)

		// Mid: open loop at rate_mid.
		p.dur = r.share(midShare / cycles)
		rs = p.openLoop(ctx, r.w.rateMid)
		r.chk.all(rs, int(r.w.rateMid*p.dur.Seconds()), e.roster)
		lat := latencies(rs)
		p50 = append(p50, quantile(lat, 0.5))
		p95 = append(p95, quantile(lat, 0.95))
		p99 = append(p99, quantile(lat, 0.99))
		var lates []float64
		for _, res := range rs {
			lates = append(lates, res.lateMS)
		}
		late = append(late, quantile(lates, 0.99))
		all[1] = append(all[1], rs...)
		p.first += len(rs)

		// Hi: open loop at rate_hi; a request that is late, failed or
		// never sent misses the SLO.
		p.dur = r.share(hiShare / cycles)
		rs = p.openLoop(ctx, r.w.rateHi)
		due := int(r.w.rateHi * p.dur.Seconds())
		r.chk.all(rs, due, e.roster)
		within := 0
		for _, res := range rs {
			if res.status == http.StatusOK && res.latencyMS <= r.w.sloMS {
				within++
			}
		}
		sloOK = append(sloOK, float64(within)/float64(due))
		all[2] = append(all[2], rs...)
		p.first += len(rs)
	}
	if ing != nil {
		if _, _, err := ing.stop(); err != nil {
			return nil, err
		}
	}
	report(r.w, "capacity", all[0], r.share(capacityShare))
	report(r.w, "mid", all[1], r.share(midShare))
	report(r.w, "hi", all[2], r.share(hiShare))
	v["capacity_qps"] = median(capacity)
	v["allocs_per_query"] = median(allocs)
	v["p50_ms"] = median(p50)
	v["slo_ok_frac_hi"] = median(sloOK)
	v["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(os.Stderr, "bench: %s windows: capacity %.0f  cpu %.3f  p50 %.3f  p95 %.3f  p99 %.3f  slo_ok %.4f  late_p99 %.3f\n",
		r.w.name, capacity, cpuMS, p50, p95, p99, sloOK, late)
	if l := median(late); l > 1 {
		fmt.Fprintf(os.Stderr, "bench: %s: WARNING: the load generator ran %.3f ms late (p99, mid phase)\n", r.w.name, l)
	}

	closeConns(conns)
	if err := e.close(); err != nil {
		return nil, err
	}
	if err := settle(base); err != nil {
		r.chk.problem("%v", err)
	}
	return v, nil
}

// statsDoc is the slice of GET /v1/stats the per-layer metrics read.
type statsDoc struct {
	Scheduler struct {
		Admitted  int64 `json:"admitted"`
		Rejected  int64 `json:"rejected_queue_full"`
		Coalesced int64 `json:"coalesced"`
	} `json:"scheduler"`
	Reuse *struct {
		Hits       int64 `json:"hits"`
		Misses     int64 `json:"misses"`
		ApproxHits int64 `json:"approx_hits"`
	} `json:"reuse_cache"`
	Registry *registryDoc `json:"registry"`
	Router   *struct {
		Queries       int64 `json:"queries"`
		Spanning      int64 `json:"spanning_fanouts"`
		RegionsPruned int64 `json:"regions_pruned"`
		Regions       []struct {
			Registry *registryDoc `json:"registry"`
		} `json:"regions"`
	} `json:"router"`
}

type registryDoc struct {
	NodesRanked      int64 `json:"nodes_ranked"`
	NodesPruned      int64 `json:"nodes_pruned"`
	DeltaBytes       int64 `json:"delta_refresh_bytes"`
	PushApplied      int64 `json:"push_applied"`
	PushDroppedStale int64 `json:"push_dropped_stale"`
	PushBytes        int64 `json:"push_bytes"`
}

// registry folds the single leader's registry block or the sum of the
// regions' blocks into one.
func (d statsDoc) registry() registryDoc {
	if d.Registry != nil {
		return *d.Registry
	}
	var sum registryDoc
	if d.Router != nil {
		for _, rg := range d.Router.Regions {
			if rg.Registry != nil {
				sum.NodesRanked += rg.Registry.NodesRanked
				sum.NodesPruned += rg.Registry.NodesPruned
				sum.DeltaBytes += rg.Registry.DeltaBytes
				sum.PushApplied += rg.Registry.PushApplied
				sum.PushDroppedStale += rg.Registry.PushDroppedStale
				sum.PushBytes += rg.Registry.PushBytes
			}
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// freshness measures registry.fresh_lag_ms: from the moment a node
// decides to advertise (OnAdvertise) to the moment the leader's
// registry epoch moves, polled at 1 kHz.
type freshness struct {
	stop  func()
	mu    sync.Mutex
	since time.Time // zero: no advertisement pending
	lags  []float64
}

func watchFreshness(st *stack) *freshness {
	f := &freshness{}
	unsub := st.onAdvertise(func() {
		f.mu.Lock()
		if f.since.IsZero() {
			f.since = time.Now()
		}
		f.mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		last := st.summaryEpoch()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if cur := st.summaryEpoch(); cur != last {
				last = cur
				f.mu.Lock()
				if !f.since.IsZero() {
					f.lags = append(f.lags, ms(time.Since(f.since)))
					f.since = time.Time{}
				}
				f.mu.Unlock()
			}
		}
	}()
	f.stop = func() { unsub(); cancel(); <-done }
	return f
}

// traced is the --trace 1 run. It never feeds the end-to-end numbers:
// it replays the workload with one client so that a child span belongs
// to the request whose interval contains it, first plain, then with
// the program's tracer off, then with the bench's span wrappers
// recording; an open-loop phase at rate_hi and the direct-call probes
// follow.
func (r *runner) traced(outDir string) (map[string]float64, error) {
	base := runtime.NumGoroutine()
	rec := &recorder{}
	e, err := r.setUp(rec)
	if err != nil {
		return nil, err
	}
	r.quality(e)

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(4*r.seconds+30)*time.Second)
	defer cancel()
	one := newConns(e.st.url, 1)
	defer closeConns(one)
	var ing *ingestLoad
	var fresh *freshness
	before := e.st.ingestStats()
	if r.w.ingest {
		fresh = watchFreshness(e.st)
		ing = startIngest(e.st, r.seed, r.share(0.8))
	}
	v := map[string]float64{}
	p := phase{conns: one, bodies: e.reqs.bodies, first: r.size.quality, dur: r.share(0.2)}
	step := func(rs []result) []result {
		r.chk.all(rs, 0, e.roster)
		p.first += len(rs)
		return rs
	}

	// Tracer on and off alternate in short slices, so a drift of the
	// box over the phase lands on both sides alike.
	var plain, off []result
	p.dur /= tracerSlices
	cpu0 := cpuSeconds()
	for i := 0; i < tracerSlices; i++ {
		plain = append(plain, step(p.closedLoop(ctx))...)
		e.st.setProgramTracer(false)
		off = append(off, step(p.closedLoop(ctx))...)
		e.st.setProgramTracer(true)
	}
	p.dur *= tracerSlices
	v["bench.cpu_ms_per_query"] = (cpuSeconds() - cpu0) * 1e3 / float64(len(plain)+len(off))
	v["telemetry.tracer_cost_frac"] = ratio(median(latencies(plain)), median(latencies(off))) - 1

	bytes0 := e.st.wireBytes()
	rec.on.Store(true)
	tr := step(p.closedLoop(ctx))
	rec.on.Store(false)
	wire := float64(e.st.wireBytes() - bytes0)
	v["bench.trace_overhead_frac"] = ratio(median(latencies(tr)), median(latencies(plain))) - 1

	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	l := splitLayers(spans, tr, r.w.regions > 0)
	if l.queries == 0 {
		return nil, fmt.Errorf("%s: traced phase recorded no request", r.w.name)
	}
	trained := 0
	for _, res := range tr {
		if !res.body.Reused && !res.body.Coalesced {
			trained++
		}
	}
	v["gateway.http_self_ms"] = l.httpSelf
	v["federation.exec_self_ms"] = l.execSelf
	v["federation.trained_frac"] = ratio(float64(trained), float64(len(tr)))
	v["federation.rounds_per_query"] = l.rpcs
	v["transport.rpc_self_ms"] = l.rpcSelf
	v["transport.rpcs_per_query"] = l.rpcs
	v["transport.bytes_per_query"] = wire / float64(len(tr))
	v["engine.train_ms"] = l.train
	v["engine.train_share"] = l.trainShare
	v["engine.samples_per_train"] = l.samplesPerRPC
	v["region.router_self_ms"] = l.routerSelf
	v["region.plan_fanout_ms"] = l.planFanout
	v["region.train_fanout_ms"] = l.trainFanout
	v["loadgen.client_self_ms"] = l.clientSelf
	v["bench.layer_sum_frac"] = ratio(l.sum(), l.latency)

	// Open loop at rate_hi: queue wait as the gateway reports it and
	// the generator's own lateness.
	two := newConns(e.st.url, gatewayConns)
	defer closeConns(two)
	p.conns = two
	hi := p.openLoop(ctx, r.w.rateHi)
	r.chk.all(hi, int(r.w.rateHi*p.dur.Seconds()), e.roster)
	var waits, lates []float64
	shed := 0
	for _, res := range hi {
		waits = append(waits, res.body.QueueWaitMS)
		lates = append(lates, res.lateMS)
		if res.status == http.StatusTooManyRequests {
			shed++
		}
	}
	v["gateway.queue_wait_p99_ms"] = quantile(waits, 0.99)
	v["gateway.p95_ms"] = quantile(latencies(hi), 0.95)
	v["gateway.p99_ms"] = quantile(latencies(hi), 0.99)
	v["gateway.shed_frac"] = ratio(float64(shed), float64(len(hi)))
	v["loadgen.late_p99_ms"] = quantile(lates, 0.99)

	v["cluster.ingest_rows_per_s"], v["cluster.ingest_flush_ms"], v["registry.fresh_lag_ms"] = 0, 0, 0
	if ing != nil {
		if v["cluster.ingest_rows_per_s"], v["cluster.ingest_flush_ms"], err = ing.stop(); err != nil {
			return nil, err
		}
		fresh.stop()
		v["registry.fresh_lag_ms"] = mean(fresh.lags)
	}
	after := e.st.ingestStats()
	v["cluster.epoch_bumps"] = float64(after.epochBumps - before.epochBumps)
	v["cluster.suppressed_bumps"] = float64(after.suppressedBumps - before.suppressedBumps)
	v["cluster.full_requants"] = float64(after.fullRequants - before.fullRequants)

	// Counters the program keeps, read before the probes disturb them.
	var doc statsDoc
	if err := e.admin.get("/v1/stats", &doc); err != nil {
		return nil, err
	}
	v["gateway.coalesced_frac"] = ratio(float64(doc.Scheduler.Coalesced), float64(doc.Scheduler.Admitted+doc.Scheduler.Coalesced))
	v["federation.cache_hit_frac"] = 0
	if c := doc.Reuse; c != nil {
		v["federation.cache_hit_frac"] = ratio(float64(c.Hits+c.ApproxHits), float64(c.Hits+c.ApproxHits+c.Misses))
	}
	reg := doc.registry()
	v["plan.pruned_frac"] = ratio(float64(reg.NodesPruned), float64(reg.NodesRanked))
	v["registry.push_applied"] = float64(reg.PushApplied)
	v["registry.push_dropped_stale"] = float64(reg.PushDroppedStale)
	v["registry.delta_bytes"] = float64(reg.DeltaBytes + reg.PushBytes)
	v["region.regions_pruned_frac"], v["region.spanning_frac"] = 0, 0
	if rt := doc.Router; rt != nil && len(rt.Regions) == 2 {
		// With two regions and every rectangle plannable, a routing
		// decision either spans both or prunes exactly one.
		decisions := float64(rt.Spanning + rt.RegionsPruned)
		v["region.spanning_frac"] = ratio(float64(rt.Spanning), decisions)
		v["region.regions_pruned_frac"] = ratio(float64(rt.RegionsPruned), 2*decisions)
	}

	// Direct-call probes, on an idle stack.
	probe := e.reqs.rects
	if len(probe) > 1024 {
		probe = probe[:1024]
	}
	if v["plan.plan_us"], v["plan.explain_us"], err = e.st.probePlan(ctx, probe); err != nil {
		return nil, err
	}
	if v["federation.cache_answer_us"], err = e.st.probeCache(probe); err != nil {
		return nil, err
	}
	if v["registry.refresh_full_ms"], err = e.st.probeRefresh(ctx, 20); err != nil {
		return nil, err
	}

	closeConns(one)
	closeConns(two)
	if err := e.close(); err != nil {
		return nil, err
	}
	if err := settle(base); err != nil {
		r.chk.problem("%v", err)
	}
	path := filepath.Join(outDir, "trace-"+r.w.name+".jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s traced: %d queries, latency %.3f ms = client %.3f + http %.3f + queue %.3f + plan %.3f + exec %.3f + router %.3f + plan-fanout %.3f + train-fanout %.3f + rpc %.3f + train %.3f (sum/latency %.3f); %d spans in %s\n",
		r.w.name, l.queries, l.latency, l.clientSelf, l.httpSelf, l.queueWait, l.selection, l.execSelf,
		l.routerSelf, l.planFanout, l.trainFanout, l.rpcBlocking, l.trainBlocking, ratio(l.sum(), l.latency), len(spans), path)
	if math.Abs(v["bench.layer_sum_frac"]-1) > 0.1 {
		r.chk.problem("layer self-times sum to %.3f of the traced latency", v["bench.layer_sum_frac"])
	}
	return v, nil
}
