package qens

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
// nodes do, in the three topologies the gateway serves. Each topology
// listens on ephemeral ports, reads every bound address from the line
// its binary prints, takes closed-loop query bursts and must drain to
// exit 0 within 30 s of SIGTERM.
func TestLiveStack(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving binaries; skipped under -short")
	}
	dir := liveBinaries(t)
	bin := func(name string) string { return filepath.Join(dir, name) }

	// A single leader over a simulated fleet: fleet health, a trace
	// assembled across the node boundary, and the trace file flushed on
	// shutdown.
	t.Run("leader", func(t *testing.T) {
		t.Parallel()
		tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
		gw := startLive(t, bin("qens-gateway"), "-addr", "127.0.0.1:0", "-nodes", "3", "-samples", "200",
			"-k", "4", "-epochs", "3", "-workers", "4", "-queue", "32", "-trace", tracePath)
		url := "http://" + gw.await(t, gatewayAddrRE)

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
				CriticalPath struct {
					TotalMS float64 `json:"total_ms"`
				} `json:"critical_path"`
			}
			getJSON(t, url+"/v1/trace/"+tr.TraceID, &doc)
			if doc.CriticalPath.TotalMS > 0 && doc.Root.hasPrefix("node.") {
				assembled = true
				break
			}
		}
		if !assembled {
			t.Errorf("none of %d retained traces has both a critical path and node.* spans", len(traces.Traces))
		}

		stopLive(t, gw)
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
	})

	// A root over two qens-region daemons with the reuse cache on:
	// per-region routing and stats, one region.plan per request per
	// region, and the root's own cache hits.
	t.Run("regions", func(t *testing.T) {
		t.Parallel()
		var regions []*liveProc
		var addrs []string
		for _, idx := range []string{"0", "1"} {
			r := startLive(t, bin("qens-region"), "-addr", "127.0.0.1:0", "-region", idx, "-regions", "2",
				"-nodes", "4", "-samples", "200", "-k", "3", "-epochs", "2")
			regions = append(regions, r)
			addrs = append(addrs, r.await(t, regionAddrRE))
		}
		gw := startLive(t, bin("qens-gateway"), "-addr", "127.0.0.1:0", "-region-addrs", strings.Join(addrs, ","),
			"-workers", "4", "-queue", "32", "-reuse-iou", "0.9")
		url := "http://" + gw.await(t, gatewayAddrRE)

		const requests = 32
		checkBurst(t, "load", drive(t, url, requests, 4))

		var stats struct {
			Reuse *struct {
				Hits int `json:"hits"`
			} `json:"reuse_cache"`
			Router *struct {
				Regions []struct {
					RegionID string `json:"region_id"`
					Routed   int64  `json:"routed"`
				} `json:"regions"`
				Reuse json.RawMessage `json:"reuse_cache"`
			} `json:"router"`
		}
		getJSON(t, url+"/v1/stats", &stats)
		switch {
		case stats.Router == nil:
			t.Error("/v1/stats has no router block")
		case len(stats.Router.Reuse) > 0:
			t.Error("/v1/stats nests a reuse_cache under router")
		default:
			var ids []string
			for _, r := range stats.Router.Regions {
				ids = append(ids, r.RegionID)
				if r.Routed == 0 {
					t.Errorf("/v1/stats: %s routed no query", r.RegionID)
				}
			}
			if strings.Join(ids, ",") != "region-0,region-1" {
				t.Errorf("/v1/stats router regions = %v, want region-0 and region-1", ids)
			}
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

		stopLive(t, append([]*liveProc{gw}, regions...)...)
		// The admission-time plan is the execution plan, so no region
		// logs more plan RPCs than requests were sent.
		total := 0
		for i, r := range regions {
			n := strings.Count(r.out.String(), "event=rpc type=region.plan ")
			if n > requests {
				t.Errorf("region-%d logged %d region.plan RPCs for %d requests", i, n, requests)
			}
			total += n
		}
		if total == 0 {
			t.Error("no 'event=rpc type=region.plan' line in either region log")
		}
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
			"-k", "4", "-epochs", "2", "-workers", "4", "-queue", "32", "-summary-refresh", "1s")
		url := "http://" + gw.await(t, gatewayAddrRE)
		if !strings.Contains(gw.out.String(), "summary push from 3/3 nodes") {
			t.Error("gateway did not report 3/3 push subscriptions")
		}

		pre := drive(t, url, 32, 4)
		checkBurst(t, "pre-drift burst", pre)

		poll(t, 60*time.Second, "node-0's drift detector to escalate", func() bool {
			var h struct {
				Ingest struct {
					Escalations int64 `json:"escalations"`
				} `json:"ingest"`
			}
			getJSON(t, obs+"/healthz", &h)
			return h.Ingest.Escalations > 0
		})

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

		stopLive(t, append([]*liveProc{gw}, nodes...)...)
	})
}

var (
	gatewayAddrRE = regexp.MustCompile(`on http://(\S+) \(POST /v1/query`)
	regionAddrRE  = regexp.MustCompile(`serving shard .* on (\S+)\n`)
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
// 0 within 30 s.
func stopLive(t *testing.T, procs ...*liveProc) {
	t.Helper()
	for _, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Errorf("SIGTERM %s: %v", p.name, err)
		}
	}
	deadline := time.After(30 * time.Second)
	for _, p := range procs {
		select {
		case <-p.done:
			if p.err != nil {
				t.Errorf("%s: %v after SIGTERM", p.name, p.err)
			}
		case <-deadline:
			t.Errorf("%s did not exit within 30s of SIGTERM", p.name)
			return
		}
	}
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
// HTTP status (0 for a transport error) and the p99 latency of the 200
// answers.
type burst struct {
	status map[int]int
	p99    time.Duration
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

	// The burst's own connections close when it ends, as a load
	// generator's do when it exits: net/http's Shutdown waits up to 5 s
	// on a connection that was dialed but never carried a request.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: liveHTTP.Timeout}

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
				if resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
				}
				lat := time.Since(start)
				mu.Lock()
				b.status[code]++
				if code == http.StatusOK {
					latencies = append(latencies, lat)
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
