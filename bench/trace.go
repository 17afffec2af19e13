package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The parent of a span is the name of the span that caused
// it; with one client in flight a child belongs to the request whose
// handler interval contains it, which is what recorder.cur carries.
const (
	spanHTTP        = "gateway.http"
	spanClientTrain = "transport.client.train"
	spanRegionPlan  = "region.service.plan"
	spanRegionTrain = "region.service.train"

	reqHeader = "X-Bench-Req" // request id, set by the load generator
)

// span is one timed call at a layer boundary.
type span struct {
	Name    string    `json:"name"`
	Parent  string    `json:"parent,omitempty"`
	Peer    string    `json:"peer,omitempty"` // node or region the call went to
	Req     int64     `json:"req"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	InnerMS float64   `json:"inner_ms,omitempty"` // time the callee itself reported (node TrainTime)
	Samples int       `json:"samples,omitempty"`
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// recorder keeps spans in memory; they are written out when the
// benchmark ends.
type recorder struct {
	on  atomic.Bool  // record only during the traced phase
	cur atomic.Int64 // id of the request in flight (one client)

	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// covered is the length in ms of the union of the spans' intervals:
// what a parent subtracts to get its self time when children overlap
// (the router fans out to regions concurrently).
func covered(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start.After(hi) {
			total += hi.Sub(lo)
			lo, hi = s.Start, s.End
		} else if s.End.After(hi) {
			hi = s.End
		}
	}
	total += hi.Sub(lo)
	return float64(total) / float64(time.Millisecond)
}

// layerSplit is the per-query mean time of each layer over a traced
// phase, in ms. The fields partition the client-observed latency:
// their sum is compared against it as bench.layer_sum_frac.
type layerSplit struct {
	queries     int
	clientSelf  float64 // load generator + HTTP client + loopback, outside the handler
	httpSelf    float64 // handler span − queue wait − elapsed − plan-ahead fan-out: parse, admission, encode
	queueWait   float64
	selection   float64 // planning inside execute (response selection_ms)
	execSelf    float64 // single leader: elapsed − selection − client spans (aggregate, cache, bookkeeping)
	routerSelf  float64 // router mode: elapsed − region spans
	planFanout  float64 // router mode: region plan spans (the handler's plan-ahead and the one inside execute)
	trainFanout float64 // router mode: region train spans − client spans inside them
	rpcSelf     float64 // Σ client train spans − node-reported train time (wire + codec + dispatch)
	train       float64 // Σ node-reported train time
	// rpcBlocking and trainBlocking are the shares of rpcSelf and train
	// the request actually waited for: equal to them under a single
	// leader (sequential rounds), smaller when regions train
	// concurrently. They, not the sums, enter sum().
	rpcBlocking   float64
	trainBlocking float64
	rpcs          float64 // train RPCs per query
	trainShare    float64 // median over queries of node train time ÷ elapsed: what the typical query spends training
	samplesPerRPC float64
	latency       float64 // mean client-observed latency
	elapsed       float64 // mean response elapsed_ms
}

func (l layerSplit) sum() float64 {
	return l.clientSelf + l.httpSelf + l.queueWait + l.selection + l.execSelf +
		l.routerSelf + l.planFanout + l.trainFanout + l.rpcBlocking + l.trainBlocking
}

// splitLayers joins the recorded spans with the responses of the same
// requests (by request id) and averages each layer's self time.
func splitLayers(spans []span, results []result, sharded bool) layerSplit {
	byReq := make(map[int64][]span)
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var l layerSplit
	var trainRPCs, samples int
	var shares []float64
	for _, r := range results {
		var handler *span
		var trains, regionPlans, regionTrains []span
		for i, s := range byReq[r.req] {
			switch s.Name {
			case spanHTTP:
				handler = &byReq[r.req][i]
			case spanClientTrain:
				trains = append(trains, s)
			case spanRegionPlan:
				regionPlans = append(regionPlans, s)
			case spanRegionTrain:
				regionTrains = append(regionTrains, s)
			}
		}
		if handler == nil || r.status != 200 {
			continue
		}
		l.queries++
		l.latency += r.latencyMS
		l.elapsed += r.body.ElapsedMS
		l.clientSelf += r.latencyMS - handler.ms()
		l.queueWait += r.body.QueueWaitMS
		var nodeTrain, trainSpans float64
		for _, s := range trains {
			nodeTrain += s.InnerMS
			trainSpans += s.ms()
			samples += s.Samples
		}
		trainRPCs += len(trains)
		l.train += nodeTrain
		shares = append(shares, ratio(nodeTrain, r.body.ElapsedMS))
		l.rpcSelf += trainSpans - nodeTrain
		if blocking := covered(trains); trainSpans > 0 {
			l.trainBlocking += blocking * nodeTrain / trainSpans
			l.rpcBlocking += blocking * (1 - nodeTrain/trainSpans)
		}
		if sharded {
			// Every query plans twice: the handler's plan-ahead (the
			// coalescing key, before admission) and again inside execute.
			// Each is one concurrent fan-out, so a region's first plan
			// span of a request is the plan-ahead. The root's
			// selection_ms contains the second fan-out, so region spans
			// are subtracted from elapsed as a whole.
			var ahead, inside []span
			seen := map[string]bool{}
			sort.Slice(regionPlans, func(i, j int) bool { return regionPlans[i].Start.Before(regionPlans[j].Start) })
			for _, s := range regionPlans {
				if !seen[s.Peer] {
					seen[s.Peer] = true
					ahead = append(ahead, s)
				} else {
					inside = append(inside, s)
				}
			}
			planAhead, plan, train := covered(ahead), covered(inside), covered(regionTrains)
			l.httpSelf += handler.ms() - r.body.QueueWaitMS - r.body.ElapsedMS - planAhead
			l.planFanout += planAhead + plan
			l.trainFanout += train - covered(trains)
			l.routerSelf += r.body.ElapsedMS - plan - train
		} else {
			l.httpSelf += handler.ms() - r.body.QueueWaitMS - r.body.ElapsedMS
			l.selection += r.body.Stats.SelectionMS
			l.execSelf += r.body.ElapsedMS - r.body.Stats.SelectionMS - covered(trains)
		}
	}
	if l.queries == 0 {
		return l
	}
	n := float64(l.queries)
	for _, f := range []*float64{
		&l.clientSelf, &l.httpSelf, &l.queueWait, &l.selection, &l.execSelf, &l.routerSelf,
		&l.planFanout, &l.trainFanout, &l.rpcSelf, &l.train, &l.rpcBlocking, &l.trainBlocking, &l.latency, &l.elapsed,
	} {
		*f /= n
	}
	l.rpcs = float64(trainRPCs) / n
	l.trainShare = median(shares)
	if trainRPCs > 0 {
		l.samplesPerRPC = float64(samples) / float64(trainRPCs)
	}
	return l
}
