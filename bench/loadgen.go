package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// response is the slice of the gateway's POST /v1/query body the
// benchmark reads.
type response struct {
	Participants []struct {
		NodeID string  `json:"node_id"`
		Rank   float64 `json:"rank"`
	} `json:"participants"`
	Reused      bool    `json:"reused"`
	Coalesced   bool    `json:"coalesced"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Stats       struct {
		SelectionMS  float64 `json:"selection_ms"`
		TrainMS      float64 `json:"train_ms"`
		DataFraction float64 `json:"data_fraction"`
		EnsembleSize int     `json:"ensemble_size"`
	} `json:"stats"`
	LocalParams [][]float64 `json:"local_params"`
}

// result is one request as the load generator saw it. Closed loop:
// latency runs from the send to the last byte of the answer. Open loop:
// see openLoop.
type result struct {
	req       int64 // request id (index into the phase's request sequence)
	offsetMS  float64
	latencyMS float64
	lateMS    float64 // open loop: send delay the generator itself caused
	status    int     // 0: transport error
	err       string
	body      response
}

// conn is one keep-alive connection with its own http.Transport, so a
// phase with n conns holds exactly n TCP connections to the gateway.
type conn struct {
	client *http.Client
	url    string
}

func newConns(url string, n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = &conn{url: url, client: &http.Client{
			Timeout:   rpcTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		}}
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// post sends one body and decodes the answer.
func (c *conn) post(path string, id int64, body []byte, out any) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

func (c *conn) get(path string, out any) error {
	resp, err := c.client.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// query issues request id of a phase and fills everything but the
// schedule fields of the result.
func (c *conn) query(id int64, body []byte) result {
	r := result{req: id}
	status, err := c.post("/v1/query", id, body, &r.body)
	r.status = status
	if err != nil {
		r.err = err.Error()
		if status == http.StatusOK {
			r.status = 0 // undecodable 200 is a failure too
		}
	}
	return r
}

// phase is one timed stretch of traffic over a request list. first is
// the index of the list the phase starts at; request i of the phase
// sends bodies[(first+i) % len].
type phase struct {
	conns  []*conn
	bodies [][]byte
	first  int
	dur    time.Duration
}

func (p phase) body(i int64) []byte { return p.bodies[(p.first+int(i))%len(p.bodies)] }

// closedLoop keeps one request outstanding per connection until the
// phase ends: a slow system receives less load, so this measures
// capacity, not latency under load.
func (p phase) closedLoop(ctx context.Context) []result {
	start := time.Now()
	end := start.Add(p.dur)
	var next atomic.Int64
	per := make([][]result, len(p.conns))
	var wg sync.WaitGroup
	for ci, c := range p.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				i := next.Add(1) - 1
				r := c.query(i, p.body(i))
				r.offsetMS = ms(t0.Sub(start))
				r.latencyMS = ms(time.Since(t0))
				per[ci] = append(per[ci], r)
			}
		}(ci, c)
	}
	wg.Wait()
	return flatten(per)
}

// openLoop sends at a fixed rate regardless of the answers, wrk2
// style: connection c of n owns request ids c, c+n, c+2n, … and request
// i is due at start + i/rate. A connection that is still waiting for
// an answer sends late, and that wait is part of the late request's
// latency, so a stall is charged to the requests queued behind it (no
// coordinated omission). What is not charged is the generator's own
// wake-up error, lateMS: how long after both the schedule and the
// previous answer it really sent. It is reported apart; on a request
// that takes 0.2 ms it would otherwise be half the measurement.
func (p phase) openLoop(ctx context.Context, rate float64) []result {
	n := len(p.conns)
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(p.dur / interval)
	start := time.Now().Add(time.Millisecond)
	per := make([][]result, n)
	var wg sync.WaitGroup
	for ci, c := range p.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			free := start
			for i := int64(ci); i < total && ctx.Err() == nil; i += int64(n) {
				sched := start.Add(time.Duration(i) * interval)
				sleepUntil(sched)
				due := sched
				if free.After(due) {
					due = free
				}
				sent := time.Now()
				r := c.query(i, p.body(i))
				free = time.Now()
				r.offsetMS = ms(sched.Sub(start))
				r.latencyMS = ms(due.Sub(sched) + free.Sub(sent))
				r.lateMS = ms(sent.Sub(due))
				per[ci] = append(per[ci], r)
			}
		}(ci, c)
	}
	wg.Wait()
	return flatten(per)
}

// sleepUntil blocks until t. time.Sleep parks on the runtime's
// netpoller, whose epoll timeout has millisecond granularity: in an
// otherwise idle process it oversleeps by about 1 ms, more than a whole
// send interval at the rates used here. nanosleep(2) on the calling
// thread holds the schedule to ~0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

func flatten(per [][]result) []result {
	var out []result
	for _, rs := range per {
		out = append(out, rs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].req < out[j].req })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (nearest rank) of vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func latencies(rs []result) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.latencyMS)
	}
	return out
}
