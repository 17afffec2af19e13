// Command qensload is a closed-loop load generator for qens-gateway:
// N client goroutines each keep exactly one query outstanding against
// POST /v1/query, drawing bounds from a workload generated over the
// gateway's advertised data space (GET /v1/stats). It reports
// throughput, latency percentiles and the server-side coalescing /
// reuse counters.
//
//	qensload -url http://127.0.0.1:8080 -clients 8 -requests 200
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
)

func main() {
	var (
		baseURL   = flag.String("url", "http://127.0.0.1:8080", "gateway base URL")
		clients   = flag.Int("clients", 8, "concurrent closed-loop clients")
		requests  = flag.Int("requests", 100, "total requests to issue")
		distinct  = flag.Int("distinct", 12, "distinct query rectangles in the workload")
		selector  = flag.String("selector", "query-driven", "selector to request: query-driven or all-nodes")
		topL      = flag.Int("topl", 2, "query-driven top-l")
		timeoutMS = flag.Int64("timeout-ms", 30000, "per-query budget sent to the gateway")
		seed      = flag.Uint64("seed", 7, "workload seed")
		waitUp    = flag.Duration("wait", 10*time.Second, "how long to wait for the gateway to come up")
	)
	flag.Parse()

	space, err := fetchSpace(*baseURL, *waitUp)
	if err != nil {
		fatal("%v", err)
	}
	workload, err := query.Workload(query.WorkloadConfig{
		Space: space, Count: *distinct,
	}, rng.New(*seed))
	if err != nil {
		fatal("workload: %v", err)
	}
	fmt.Printf("qensload: %d clients, %d requests, %d distinct queries over space %v\n",
		*clients, *requests, *distinct, space)

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration

		ok, shed, unsupported, failed atomic.Int64
	)
	httpc := &http.Client{Timeout: time.Duration(*timeoutMS)*time.Millisecond + 10*time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				q := workload[i%len(workload)]
				body, _ := json.Marshal(map[string]any{
					"bounds":     q.Bounds,
					"selector":   *selector,
					"top_l":      *topL,
					"timeout_ms": *timeoutMS,
				})
				t0 := time.Now()
				status, errMsg := post(httpc, *baseURL+"/v1/query", body)
				lat := time.Since(t0)
				switch {
				case status == http.StatusOK:
					ok.Add(1)
					mu.Lock()
					latencies = append(latencies, lat)
					mu.Unlock()
				case status == http.StatusTooManyRequests:
					shed.Add(1)
				case status == http.StatusUnprocessableEntity:
					// No node supports this rectangle — a workload
					// property, not a serving failure.
					unsupported.Add(1)
				default:
					failed.Add(1)
					if failed.Load() <= 5 {
						fmt.Fprintf(os.Stderr, "qensload: request %d: status %d: %s\n", i, status, errMsg)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("\nqensload: %d ok, %d shed (429), %d unsupported (422), %d failed in %v (%.1f q/s)\n",
		ok.Load(), shed.Load(), unsupported.Load(), failed.Load(), wall.Round(time.Millisecond),
		float64(ok.Load())/wall.Seconds())
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Printf("latency  p50=%v  p95=%v  p99=%v  max=%v\n",
			pct(latencies, 0.50), pct(latencies, 0.95), pct(latencies, 0.99),
			latencies[len(latencies)-1].Round(time.Millisecond))
	}
	if doc, err := getStats(*baseURL); err == nil {
		reuseHits := "n/a"
		if doc.Reuse != nil {
			reuseHits = strconv.Itoa(doc.Reuse.Hits)
		}
		fmt.Printf("server   admitted=%v coalesced=%v rejected=%v reuse_hits=%v\n",
			doc.Scheduler.Admitted, doc.Scheduler.Coalesced, doc.Scheduler.RejectedFull, reuseHits)
		if doc.Reuse != nil {
			fmt.Printf("cache    misses=%d evictions=%d size=%d\n",
				doc.Reuse.Misses, doc.Reuse.Evictions, doc.Reuse.Size)
			if doc.Reuse.ApproxOn {
				fmt.Printf("approx   hits=%d probes=%d (queries answered without training RPCs)\n",
					doc.Reuse.ApproxHits, doc.Reuse.Probes)
			}
		}
		// The server-side rolling window covers only the last minute, so
		// it reflects this run (server-observed, excludes queue-admission
		// shaping and client overhead) next to our closed-loop numbers.
		w := doc.Latency.Window
		if w.Count > 0 {
			fmt.Printf("server   last %.0fs: n=%d p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
				w.WindowS, w.Count, w.P50MS, w.P95MS, w.P99MS, w.MaxMS)
		}
		// Against a sharded topology, show how the root distributed the
		// workload's rectangles across regions: "routed" counts each
		// region's participation in fanned-out queries, so the sum
		// exceeds the query count whenever rectangles span shards.
		if rt := doc.Router; rt != nil && len(rt.Regions) > 0 {
			fmt.Printf("routing  %d queries, %d spanning fan-outs, %d no-route rejects, %d regions pruned\n",
				rt.Queries, rt.Spanning, rt.NoRoute, rt.RegionsPruned)
			var fanouts int64
			for _, reg := range rt.Regions {
				fanouts += reg.Routed
			}
			for _, reg := range rt.Regions {
				share := 0.0
				if fanouts > 0 {
					share = 100 * float64(reg.Routed) / float64(fanouts)
				}
				fmt.Printf("routing  %-12s %d nodes  routed=%d (%.1f%% of fan-outs)\n",
					reg.RegionID, reg.Nodes, reg.Routed, share)
			}
		}
		// Planner index/prune and delta-refresh volume: top-level
		// registry in single-leader mode, summed per-region registries
		// against a sharded topology.
		var reg registryBlock
		if doc.Registry != nil {
			reg = *doc.Registry
		} else if doc.Router != nil {
			for _, rg := range doc.Router.Regions {
				if rg.Registry != nil {
					reg.add(*rg.Registry)
				}
			}
		}
		if reg.IndexedPlans+reg.BrutePlans > 0 {
			prunedPct := 0.0
			if reg.NodesRanked > 0 {
				prunedPct = 100 * float64(reg.NodesPruned) / float64(reg.NodesRanked)
			}
			fmt.Printf("planner  indexed=%d brute=%d  pruned=%d/%d nodes (%.1f%% per-query mean)\n",
				reg.IndexedPlans, reg.BrutePlans, reg.NodesPruned, reg.NodesRanked, prunedPct)
		}
		if reg.DeltaRefreshes > 0 {
			deltaPct := 0.0
			if reg.FullBytes > 0 {
				deltaPct = 100 * float64(reg.DeltaBytes) / float64(reg.FullBytes)
			}
			fmt.Printf("refresh  delta=%d full=%d  bytes delta=%d vs full=%d (%.1f%%)\n",
				reg.DeltaRefreshes, reg.FullRefreshes, reg.DeltaBytes, reg.FullBytes, deltaPct)
		}
		// Push-mode freshness: applied node pushes vs pull refreshes,
		// with the stale/unknown drops that the epoch fencing rejected.
		if reg.PushApplied+reg.PushDroppedStale+reg.PushDroppedUnknown > 0 {
			pulls := reg.DeltaRefreshes + reg.FullRefreshes
			fmt.Printf("push     applied=%d (%d bytes)  dropped stale=%d unknown=%d  pull refreshes=%d\n",
				reg.PushApplied, reg.PushBytes, reg.PushDroppedStale, reg.PushDroppedUnknown, pulls)
		}
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

func pct(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Round(time.Millisecond)
}

// post issues one query; it returns the status code and, for non-200s,
// the server's error string.
func post(c *http.Client, url string, body []byte) (int, string) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var doc struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(raw, &doc)
	return resp.StatusCode, doc.Error
}

// registryBlock is the slice of registry.Stats qensload renders:
// planner index/prune counters and delta-vs-full refresh volume.
type registryBlock struct {
	IndexedPlans   int64 `json:"indexed_plans"`
	BrutePlans     int64 `json:"brute_plans"`
	NodesRanked    int64 `json:"nodes_ranked"`
	NodesPruned    int64 `json:"nodes_pruned"`
	DeltaRefreshes int64 `json:"delta_refreshes"`
	FullRefreshes  int64 `json:"full_refreshes"`
	DeltaBytes     int64 `json:"delta_refresh_bytes"`
	FullBytes      int64 `json:"full_refresh_bytes"`

	PushApplied        int64 `json:"push_applied"`
	PushDroppedStale   int64 `json:"push_dropped_stale"`
	PushDroppedUnknown int64 `json:"push_dropped_unknown"`
	PushBytes          int64 `json:"push_bytes"`
}

// add folds another registry block in (router mode sums per-region
// registries into one fleet view).
func (r *registryBlock) add(o registryBlock) {
	r.IndexedPlans += o.IndexedPlans
	r.BrutePlans += o.BrutePlans
	r.NodesRanked += o.NodesRanked
	r.NodesPruned += o.NodesPruned
	r.DeltaRefreshes += o.DeltaRefreshes
	r.FullRefreshes += o.FullRefreshes
	r.DeltaBytes += o.DeltaBytes
	r.FullBytes += o.FullBytes
	r.PushApplied += o.PushApplied
	r.PushDroppedStale += o.PushDroppedStale
	r.PushDroppedUnknown += o.PushDroppedUnknown
	r.PushBytes += o.PushBytes
}

// statsDoc is the part of /v1/stats qensload consumes.
type statsDoc struct {
	Scheduler struct {
		Admitted     int64 `json:"admitted"`
		Coalesced    int64 `json:"coalesced"`
		RejectedFull int64 `json:"rejected_queue_full"`
	} `json:"scheduler"`
	Reuse *struct {
		Hits       int   `json:"hits"`
		Misses     int   `json:"misses"`
		Evictions  int64 `json:"evictions"`
		Size       int   `json:"size"`
		ApproxOn   bool  `json:"approx_enabled"`
		ApproxHits int64 `json:"approx_hits"`
		Probes     int64 `json:"probes"`
	} `json:"reuse_cache"`
	Registry *registryBlock `json:"registry"`
	Router   *struct {
		Queries       int64 `json:"queries"`
		Spanning      int64 `json:"spanning_fanouts"`
		NoRoute       int64 `json:"no_route_rejects"`
		RegionsPruned int64 `json:"regions_pruned"`
		Regions       []struct {
			RegionID string         `json:"region_id"`
			Nodes    int            `json:"nodes"`
			Routed   int64          `json:"routed"`
			Registry *registryBlock `json:"registry"`
		} `json:"regions"`
	} `json:"router"`
	Latency struct {
		Window struct {
			WindowS float64 `json:"window_s"`
			Count   int64   `json:"count"`
			P50MS   float64 `json:"p50_ms"`
			P95MS   float64 `json:"p95_ms"`
			P99MS   float64 `json:"p99_ms"`
			MaxMS   float64 `json:"max_ms"`
		} `json:"window"`
	} `json:"latency"`
	Space *geometry.Rect `json:"space"`
}

// fetchSpace polls /v1/stats until the gateway is reachable and
// returns the advertised global data space.
func fetchSpace(baseURL string, wait time.Duration) (geometry.Rect, error) {
	deadline := time.Now().Add(wait)
	var lastErr error
	for {
		doc, err := getStats(baseURL)
		if err == nil {
			if doc.Space == nil {
				return geometry.Rect{}, fmt.Errorf("gateway %s advertises no data space", baseURL)
			}
			return *doc.Space, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return geometry.Rect{}, fmt.Errorf("gateway %s not reachable after %v: %w", baseURL, wait, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func getStats(baseURL string) (*statsDoc, error) {
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats status %d", resp.StatusCode)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qensload: "+format+"\n", args...)
	os.Exit(1)
}
