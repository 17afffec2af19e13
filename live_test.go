package qens

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
)

// liveBin holds the serving binaries, built once per test process so
// that -count=N runs reuse one build; TestMain removes the directory.
var liveBin struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if liveBin.dir != "" {
		os.RemoveAll(liveBin.dir)
	}
	os.Exit(code)
}

// liveBinaries builds qens-gateway, qens-region and qensd with one go
// build call and returns the directory holding them.
func liveBinaries(t *testing.T) string {
	liveBin.once.Do(func() {
		if liveBin.dir, liveBin.err = os.MkdirTemp("", "qens-live-"); liveBin.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", liveBin.dir+string(filepath.Separator),
			"./cmd/qens-gateway", "./cmd/qens-region", "./cmd/qensd").CombinedOutput()
		if err != nil {
			liveBin.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if liveBin.err != nil {
		t.Fatal(liveBin.err)
	}
	return liveBin.dir
}

// TestLiveStack is the live-stack drill: the shipped binaries run as
// separate processes over loopback TCP, as the paper's leader and edge
// nodes do, in the two topologies the gateway serves. Each drill
// listens on ephemeral ports, reads every bound address from the line
// its binary prints, takes closed-loop query bursts and must drain to
// exit 0 within 30 s of SIGTERM.
func TestLiveStack(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving binaries; skipped under -short")
	}
	dir := liveBinaries(t)
	bin := func(name string) string { return filepath.Join(dir, name) }

	// A root over two qens-region daemons over four qensd members,
	// with the reuse cache on: per-region routing and stats, one
	// region.plan per request per region, the root's own cache hits,
	// and node-0's drift pushed to its region and seen by the root.
	t.Run("regions", func(t *testing.T) {
		t.Parallel()
		var nodes []*liveProc
		var nodeAddrs []string
		for i, extra := range [][]string{
			{"-ingest-rate", "400", "-ingest-batch", "32", "-ingest-drift-after", "2s",
				"-ingest-drift-shift", "0.75", "-metrics-addr", "127.0.0.1:0"},
			nil,
			nil,
			nil,
		} {
			args := append([]string{"-addr", "127.0.0.1:0", "-synthetic", strconv.Itoa(i),
				"-nodes", "4", "-samples", "200", "-k", "3"}, extra...)
			n := startLive(t, bin("qensd"), args...)
			nodes = append(nodes, n)
			nodeAddrs = append(nodeAddrs, n.await(t, qensdAddrRE))
		}
		obs := "http://" + nodes[0].await(t, obsAddrRE)
		var regions []*liveProc
		var addrs []string
		for _, idx := range []string{"0", "1"} {
			r := startLive(t, bin("qens-region"), "-addr", "127.0.0.1:0", "-region", idx, "-regions", "2",
				"-addrs", strings.Join(nodeAddrs, ","))
			regions = append(regions, r)
			addrs = append(addrs, r.await(t, regionAddrRE))
			if m := regionPushRE.FindStringSubmatch(r.out.String()); m == nil || m[1] != m[2] || m[2] == "0" {
				t.Errorf("region-%s does not report summary push from all of its members (%q)", idx, m)
			}
		}
		gw := startLive(t, bin("qens-gateway"), "-addr", "127.0.0.1:0", "-region-addrs", strings.Join(addrs, ","),
			"-workers", "4", "-queue", "32", "-reuse-iou", "0.9")
		gwAddr := gw.await(t, gatewayAddrRE)
		url := "http://" + gwAddr

		const requests = 32
		load := drive(t, url, requests, 4)
		checkBurst(t, "load", load)
		// The admission-time plan is the execution plan unless node-0's
		// streaming moved its region in between, so no region logs more
		// plan RPCs than requests were sent plus answers re-planned.
		total := 0
		for i, r := range regions {
			n := strings.Count(r.out.String(), "event=rpc type=region.plan ")
			if n > requests+load.replanned {
				t.Errorf("region-%d logged %d region.plan RPCs for %d requests, %d of them re-planned", i, n, requests, load.replanned)
			}
			total += n
		}
		if total == 0 {
			t.Error("no 'event=rpc type=region.plan' line in either region log")
		}

		var stats struct {
			Reuse *struct {
				Hits int `json:"hits"`
			} `json:"reuse_cache"`
			Router *struct {
				Regions []struct {
					RegionID string   `json:"region_id"`
					Routed   int64    `json:"routed"`
					Epoch    uint64   `json:"epoch"`
					NodeIDs  []string `json:"node_ids"`
					Registry *struct {
						Epoch       uint64 `json:"epoch"`
						PushApplied int64  `json:"push_applied"`
					} `json:"registry"`
				} `json:"regions"`
				Reuse json.RawMessage `json:"reuse_cache"`
			} `json:"router"`
		}
		getJSON(t, url+"/v1/stats", &stats)
		owner := -1
		switch {
		case stats.Router == nil:
			t.Fatal("/v1/stats has no router block")
		case len(stats.Router.Reuse) > 0:
			t.Error("/v1/stats nests a reuse_cache under router")
		}
		var ids []string
		for i, r := range stats.Router.Regions {
			ids = append(ids, r.RegionID)
			if r.Routed == 0 {
				t.Errorf("/v1/stats: %s routed no query", r.RegionID)
			}
			if slices.Contains(r.NodeIDs, "node-0") {
				owner = i
			}
		}
		if strings.Join(ids, ",") != "region-0,region-1" {
			t.Fatalf("/v1/stats router regions = %v, want region-0 and region-1", ids)
		}
		if owner < 0 {
			t.Fatal("/v1/stats: no region owns node-0")
		}
		if stats.Reuse == nil || stats.Reuse.Hits == 0 {
			t.Errorf("root /v1/stats reports no reuse_cache hits: %+v", stats.Reuse)
		}

		var fleet struct {
			Regions []struct {
				RegionID      string     `json:"region_id"`
				RegistryEpoch uint64     `json:"registry_epoch"`
				Nodes         []liveNode `json:"nodes"`
			} `json:"regions"`
		}
		getJSON(t, url+"/v1/fleet", &fleet)
		if len(fleet.Regions) != 2 {
			t.Errorf("sharded /v1/fleet lists %d regions, want 2", len(fleet.Regions))
		}
		for _, r := range fleet.Regions {
			if r.RegistryEpoch == 0 {
				t.Errorf("sharded /v1/fleet: %s has no registry_epoch", r.RegionID)
			}
			checkNodes(t, "sharded /v1/fleet "+r.RegionID, r.Nodes, "")
		}

		// node-0 drifts; its re-quantized advertisement reaches its
		// region by push, and the root learns of the move from the
		// epoch on that region's next responses.
		before := stats.Router.Regions[owner].Epoch
		awaitEscalation(t, obs)
		poll(t, 10*time.Second, "node-0's push to move its region past the root's epoch", func() bool {
			getJSON(t, url+"/v1/stats", &stats)
			reg := stats.Router.Regions[owner].Registry
			return reg != nil && reg.PushApplied > 0 && reg.Epoch > before
		})
		checkBurst(t, "post-drift burst", drive(t, url, requests, 4))
		getJSON(t, url+"/v1/stats", &stats)
		if after := stats.Router.Regions[owner].Epoch; after <= before {
			t.Errorf("root holds %s at epoch %d after node-0 drifted, as before it", stats.Router.Regions[owner].RegionID, after)
		}

		// No process waits on a connection that never sends a request.
		for _, a := range append(append([]string{gwAddr}, addrs...), nodeAddrs...) {
			holdConn(t, a)
		}
		stopLive(t, 2*time.Second, append(append([]*liveProc{gw}, regions...), nodes...)...)
	})

	// A single leader over three qensd daemons: fleet health, a trace
	// assembled across the process boundary, and the trace file flushed
	// on shutdown.
	t.Run("leader", func(t *testing.T) {
		t.Parallel()
		tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
		var nodes []*liveProc
		var addrs []string
		for i := range 3 {
			n := startLive(t, bin("qensd"), "-addr", "127.0.0.1:0", "-synthetic", strconv.Itoa(i),
				"-nodes", "3", "-samples", "200", "-k", "4")
			nodes = append(nodes, n)
			addrs = append(addrs, n.await(t, qensdAddrRE))
		}
		gw := startLive(t, bin("qens-gateway"), "-addr", "127.0.0.1:0", "-addrs", strings.Join(addrs, ","),
			"-epochs", "3", "-workers", "4", "-queue", "32", "-trace", tracePath)
		gwAddr := gw.await(t, gatewayAddrRE)
		url := "http://" + gwAddr

		checkBurst(t, "load", drive(t, url, 64, 8))

		var fleet struct {
			Nodes []liveNode `json:"nodes"`
		}
		getJSON(t, url+"/v1/fleet", &fleet)
		checkNodes(t, "/v1/fleet", fleet.Nodes, "node-0")

		var traces struct {
			Traces []struct {
				TraceID string `json:"trace_id"`
			} `json:"traces"`
		}
		getJSON(t, url+"/v1/traces", &traces)
		if len(traces.Traces) == 0 {
			t.Fatal("/v1/traces lists no retained trace")
		}
		assembled := false
		for _, tr := range traces.Traces {
			var doc struct {
				Root         liveSpan `json:"root"`
				Procs        []string `json:"procs"`
				CriticalPath struct {
					TotalMS float64 `json:"total_ms"`
				} `json:"critical_path"`
			}
			getJSON(t, url+"/v1/trace/"+tr.TraceID, &doc)
			if doc.CriticalPath.TotalMS > 0 && doc.Root.hasPrefix("node.") && len(doc.Procs) >= 2 {
				assembled = true
				break
			}
		}
		if !assembled {
			t.Errorf("none of %d retained traces has a critical path and node.* spans from at least 2 procs", len(traces.Traces))
		}

		// A connection that never sends a request, like a client's
		// spare pooled one, must not hold the drain.
		holdConn(t, gwAddr)
		stopLive(t, 2*time.Second, gw)
		// The sink is buffered: the trace file holds the root span of
		// every retained trace only if shutdown flushed it.
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		roots := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			var span struct {
				TraceID  string `json:"trace_id"`
				ParentID string `json:"parent_id"`
			}
			if err := json.Unmarshal([]byte(line), &span); err != nil {
				t.Fatalf("trace file line %q: %v", line, err)
			}
			roots[span.TraceID] = roots[span.TraceID] || span.ParentID == ""
		}
		for _, tr := range traces.Traces {
			if !roots[tr.TraceID] {
				t.Errorf("trace file lacks the root span of trace %s: spans not flushed on shutdown", tr.TraceID)
			}
		}
		stopLive(t, 30*time.Second, nodes...)
	})

	// A gateway over three qensd daemons while node-0 streams rows and
	// drifts: push freshness from every node, autonomous escalation,
	// conditional pulls only, and a flat p99 through the drift.
	t.Run("ingest", func(t *testing.T) {
		t.Parallel()
		var nodes []*liveProc
		var addrs []string
		for i, extra := range [][]string{
			{"-ingest-rate", "400", "-ingest-batch", "32", "-ingest-drift-after", "2s",
				"-ingest-drift-shift", "0.75", "-metrics-addr", "127.0.0.1:0"},
			nil,
			nil,
		} {
			args := append([]string{"-addr", "127.0.0.1:0", "-synthetic", strconv.Itoa(i),
				"-nodes", "3", "-samples", "200", "-k", "4"}, extra...)
			n := startLive(t, bin("qensd"), args...)
			nodes = append(nodes, n)
			addrs = append(addrs, n.await(t, qensdAddrRE))
		}
		obs := "http://" + nodes[0].await(t, obsAddrRE)
		gw := startLive(t, bin("qens-gateway"), "-addr", "127.0.0.1:0", "-addrs", strings.Join(addrs, ","),
			"-epochs", "2", "-workers", "4", "-queue", "32", "-summary-refresh", "1s")
		url := "http://" + gw.await(t, gatewayAddrRE)
		if !strings.Contains(gw.out.String(), "summary push from 3/3 nodes") {
			t.Error("gateway did not report 3/3 push subscriptions")
		}

		pre := drive(t, url, 32, 4)
		checkBurst(t, "pre-drift burst", pre)

		awaitEscalation(t, obs)

		post := drive(t, url, 32, 4)
		checkBurst(t, "post-drift burst", post)

		var health struct {
			SummaryMode string `json:"summary_mode"`
			PushApplied *int64 `json:"push_applied"`
		}
		getJSON(t, url+"/healthz", &health)
		if health.SummaryMode != "push" {
			t.Errorf("gateway summary_mode = %q, want push", health.SummaryMode)
		}
		if health.PushApplied == nil || *health.PushApplied == 0 {
			t.Errorf("drifted advertisement never arrived by push (push_applied %v)", health.PushApplied)
		}

		// Drift, requantization and the 1 s anti-entropy ticks all go
		// through the epoch-conditional pull: the fleet is fetched in
		// full once, at bootstrap.
		var stats struct {
			Registry struct {
				Full  int64 `json:"full_refreshes"`
				Delta int64 `json:"delta_refreshes"`
			} `json:"registry"`
		}
		poll(t, 10*time.Second, "a conditional pull under -summary-refresh 1s", func() bool {
			getJSON(t, url+"/v1/stats", &stats)
			return stats.Registry.Delta > 0
		})
		if stats.Registry.Full != 1 {
			t.Errorf("full_refreshes = %d, want 1 (fleet re-fetched after bootstrap)", stats.Registry.Full)
		}

		// A refresh stampede or a blocked query path blows far past this
		// envelope; CI noise does not.
		if limit := 5*pre.p99 + 250*time.Millisecond; post.p99 > limit {
			t.Errorf("p99 not flat through drift: %v before, %v after (limit %v)", pre.p99, post.p99, limit)
		}

		stopLive(t, 30*time.Second, append([]*liveProc{gw}, nodes...)...)
	})
}

var (
	gatewayAddrRE = regexp.MustCompile(`on http://(\S+) \(POST /v1/query`)
	regionAddrRE  = regexp.MustCompile(`serving shard .* on (\S+)\n`)
	regionPushRE  = regexp.MustCompile(`summary push from (\d+)/(\d+) members`)
	qensdAddrRE   = regexp.MustCompile(`qensd: node \S+ serving .* on (\S+)\n`)
	obsAddrRE     = regexp.MustCompile(`observability on http://(\S+) `)
)

// liveProc is one child process and its combined stdout and stderr.
type liveProc struct {
	name string
	cmd  *exec.Cmd
	out  lockedBuffer
	done chan struct{} // closed once Wait returns; err is then set
	err  error
}

// startLive starts bin and registers a cleanup that kills it if it is
// still running, so a failed drill leaves no process behind.
func startLive(t *testing.T, bin string, args ...string) *liveProc {
	t.Helper()
	p := &liveProc{name: filepath.Base(bin), cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			p.cmd.Process.Kill()
			<-p.done
		}
		if t.Failed() {
			t.Logf("%s %s output:\n%s", p.name, strings.Join(args, " "), p.out.String())
		}
	})
	return p
}

// await waits up to 30 s for re to match the process output and
// returns the first submatch.
func (p *liveProc) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	var m []string
	poll(t, 30*time.Second, p.name+" to print "+re.String(), func() bool {
		select {
		case <-p.done:
			t.Fatalf("%s exited (%v) before printing %s", p.name, p.err, re)
		default:
		}
		m = re.FindStringSubmatch(p.out.String())
		return m != nil
	})
	return m[1]
}

// stopLive sends SIGTERM to every process, then requires each to exit
// 0 within limit.
func stopLive(t *testing.T, limit time.Duration, procs ...*liveProc) {
	t.Helper()
	for _, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Errorf("SIGTERM %s: %v", p.name, err)
		}
	}
	deadline := time.After(limit)
	for _, p := range procs {
		select {
		case <-p.done:
			if p.err != nil {
				t.Errorf("%s: %v after SIGTERM", p.name, p.err)
			}
		case <-deadline:
			t.Errorf("%s did not exit within %v of SIGTERM", p.name, limit)
			return
		}
	}
}

// holdConn opens a TCP connection to addr that never sends a byte, as
// a client's spare pooled connection does, and closes it at cleanup.
func holdConn(t *testing.T, addr string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
}

// awaitEscalation waits for the drift detector of the node whose
// observability sidecar is at obs to escalate to a full
// re-quantization.
func awaitEscalation(t *testing.T, obs string) {
	t.Helper()
	poll(t, 60*time.Second, "the drift detector at "+obs+" to escalate", func() bool {
		var h struct {
			Ingest struct {
				Escalations int64 `json:"escalations"`
			} `json:"ingest"`
		}
		getJSON(t, obs+"/healthz", &h)
		return h.Ingest.Escalations > 0
	})
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// burst is what the client saw of one closed-loop run: a count per
// HTTP status (0 for a transport error), the p99 latency of the 200
// answers, and how many of those executed on a fresh plan because
// their admission plan went stale (nonzero selection time).
type burst struct {
	status    map[int]int
	p99       time.Duration
	replanned int
}

var liveHTTP = &http.Client{Timeout: 40 * time.Second}

// drive sends n queries to the gateway at url, keeping outstanding of
// them in flight. The rectangles are six query.Workload draws over the
// data space /v1/stats advertises.
func drive(t *testing.T, url string, n, outstanding int) burst {
	t.Helper()
	var stats struct {
		Space *geometry.Rect `json:"space"`
	}
	getJSON(t, url+"/v1/stats", &stats)
	if stats.Space == nil {
		t.Fatal("/v1/stats advertises no data space")
	}
	workload, err := query.Workload(query.WorkloadConfig{Space: *stats.Space, Count: 6}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}

	b := burst{status: make(map[int]int)}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	for c := 0; c < outstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body, _ := json.Marshal(map[string]any{
					"bounds":     workload[i%len(workload)].Bounds,
					"selector":   "query-driven",
					"top_l":      2,
					"timeout_ms": 30000,
				})
				start := time.Now()
				code := 0
				var answer struct {
					Reused, Coalesced bool
					Stats             struct {
						SelectionMS float64 `json:"selection_ms"`
					}
				}
				if resp, err := liveHTTP.Post(url+"/v1/query", "application/json", bytes.NewReader(body)); err == nil {
					json.NewDecoder(resp.Body).Decode(&answer)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
				}
				lat := time.Since(start)
				mu.Lock()
				b.status[code]++
				if code == http.StatusOK {
					latencies = append(latencies, lat)
					if !answer.Reused && !answer.Coalesced && answer.Stats.SelectionMS > 0 {
						b.replanned++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		b.p99 = latencies[int(0.99*float64(len(latencies)-1))]
	}
	return b
}

// checkBurst requires at least one answer, and no status but 200, 422
// (no node supports the rectangle) and 429 (shed at admission).
func checkBurst(t *testing.T, name string, b burst) {
	t.Helper()
	if b.status[http.StatusOK] == 0 {
		t.Errorf("%s: no query answered 200 (statuses %v)", name, b.status)
	}
	for code, n := range b.status {
		switch code {
		case http.StatusOK, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
		default:
			t.Errorf("%s: %d requests failed with status %d", name, n, code)
		}
	}
}

// liveNode is one /v1/fleet entry.
type liveNode struct {
	NodeID string   `json:"node_id"`
	Score  *float64 `json:"score"`
}

// checkNodes requires a non-empty list whose entries all carry a health
// score, and, when want is set, an entry for that node.
func checkNodes(t *testing.T, where string, nodes []liveNode, want string) {
	t.Helper()
	if len(nodes) == 0 {
		t.Errorf("%s lists no node", where)
	}
	found := want == ""
	for _, n := range nodes {
		found = found || n.NodeID == want
		if n.Score == nil {
			t.Errorf("%s: %s carries no health score", where, n.NodeID)
		}
	}
	if !found {
		t.Errorf("%s has no %s entry", where, want)
	}
}

// liveSpan is a node of the /v1/trace/{id} span tree.
type liveSpan struct {
	Name     string     `json:"name"`
	Children []liveSpan `json:"children"`
}

func (s liveSpan) hasPrefix(prefix string) bool {
	if strings.HasPrefix(s.Name, prefix) {
		return true
	}
	for _, c := range s.Children {
		if c.hasPrefix(prefix) {
			return true
		}
	}
	return false
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := liveHTTP.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// poll calls cond every 50 ms until it holds, failing the test after
// limit.
func poll(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", limit, what)
		}
	}
}
