// Command benchgate runs one micro-benchmark gate from the repository
// root: the gate's `go test -bench` runs, then every check of its table
// against the parsed rows. It writes rows and verdicts to
// BENCH_<gate>.json and exits non-zero when a check fails.
//
//	BENCHTIME=100ms go run ./scripts/benchgate wire
//
// BENCHTIME overrides the per-case budget (default 1s; reuse 5x).
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// A run is one `go test -bench` invocation; a set benchtime ignores BENCHTIME.
type run struct{ bench, pkg, benchtime string }

// A check compares one metric of the gate's rows against a bound. Each
// entry of rows names one sample: a row name, several joined by "+"
// (their values summed), or a prefix ending in "*" (one sample per row
// under it). With over, sample i is rows[i] / over[i]. The metric
// "rows" counts the rows a prefix matches. A check fails when any row
// it names is missing.
type check struct {
	Rows     []string `json:"rows"`
	Over     []string `json:"over,omitempty"`
	Metric   string   `json:"metric"`
	Op       string   `json:"op"`
	Bound    float64  `json:"bound"`
	Contract string   `json:"contract"`
}

type gate struct {
	benchtime string
	runs      []run
	checks    []check
}

var gates = map[string]gate{
	"plan": {"1s", []run{{`^BenchmarkPlan`, "./internal/plan/", ""}}, []check{
		{[]string{"BenchmarkPlan/*"}, nil, "allocs/op", "==", 0, "the query-driven plan path is allocation-free at steady state"},
		{[]string{"BenchmarkPlan/N=10000/d=16"}, nil, "ns/op", "<", 1e6, "the R-tree-pruned fast path plans 10k nodes in under a millisecond"},
	}},
	"train": {"1s", []run{{`^BenchmarkNodeTrain`, "./internal/engine/", ""}}, []check{
		{[]string{"BenchmarkNodeTrainClusterAccess"}, nil, "allocs/op", "==", 0, "the LR per-cluster data plane is allocation-free"},
		{[]string{"BenchmarkNodeTrain/path=view/model=lr/*"}, nil, "allocs/op", "<=", 4, "a warm LR train job allocates its returned Params and little else"},
		{[]string{"BenchmarkNodeTrain/path=view/model=nn/*"}, nil, "allocs/op", "<=", 4, "a warm NN train job allocates its returned Params and little else: no per-mini-batch matrix headers"},
		{[]string{"BenchmarkNodeTrain/path=copy/model=lr/epochs=1/clusters=4/samples=10000", "BenchmarkNodeTrain/path=copy/model=lr/epochs=1/clusters=16/samples=10000"},
			[]string{"BenchmarkNodeTrain/path=view/model=lr/epochs=1/clusters=4/samples=10000", "BenchmarkNodeTrain/path=view/model=lr/epochs=1/clusters=16/samples=10000"},
			"ns/op", ">=", 2, "the engine (view) path is >=2x the copy path on LR at 10k samples"},
	}},
	"wire": {"1s", []run{{`^BenchmarkWire(Encode|Decode|RPC|TrainRPC)$`, "./internal/transport/", ""}}, []check{
		{[]string{"BenchmarkWireEncode/codec=v2"}, nil, "allocs/op", "==", 0, "v2 encode is allocation-free (pooled buffers)"},
		{[]string{"BenchmarkWireDecode/codec=v2"}, nil, "allocs/op", "==", 0, "v2 decode of a traced train frame is allocation-free"},
		{[]string{"BenchmarkWireEncode/codec=json"}, []string{"BenchmarkWireEncode/codec=v2"}, "ns/op", ">=", 2, "v2 encodes >=2x faster than JSON"},
		{[]string{"BenchmarkWireEncode/codec=json+BenchmarkWireDecode/codec=json"}, []string{"BenchmarkWireEncode/codec=v2+BenchmarkWireDecode/codec=v2"}, "ns/op", ">=", 3, "v2 encode+decode is >=3x faster than JSON"},
		{[]string{"BenchmarkWireEncode/codec=json"}, []string{"BenchmarkWireEncode/codec=v2"}, "frame_bytes", ">=", 2, "the v2 frame is >=2x smaller than JSON"},
		{[]string{"BenchmarkWireRPC/concurrency=1"}, []string{"BenchmarkWireRPC/concurrency=8"}, "ns/op", ">=", 1.8, "8 pipelined callers on one connection get >=1.8x the throughput of 1"},
		{[]string{"BenchmarkWireTrainRPC"}, nil, "allocs/op", "<=", 13, "a warm LR train RPC under a deadline allocates at most 13 objects, client and server together: no deadline timer, a pooled reply channel, shared dims and node ids"},
	}},
	"telemetry": {"1s", []run{{`^Benchmark(Rolling(Observe|Stats)|TraceQuery)$`, "./internal/telemetry/", ""}}, []check{
		{[]string{"BenchmarkRollingObserve"}, nil, "allocs/op", "==", 0, "the rolling write path is allocation-free"},
		{[]string{"BenchmarkRollingStats"}, nil, "ns/op", "<=", 200, "the memoized merged read stays one atomic load"},
		{[]string{"BenchmarkTraceQuery"}, nil, "allocs/op", "<=", 6, "a traced query allocates its 6 span handles and nothing else"},
	}},
	"shard": {"1s", []run{{`^BenchmarkShardServe$`, "./internal/region/", ""}}, []check{
		{[]string{"BenchmarkShardServe/topology=single"}, []string{"BenchmarkShardServe/topology=2region"}, "ns/op", ">=", 1.6, "2 regions serve >=1.6x the single-leader throughput"},
	}},
	"ingest": {"1s", []run{{`^BenchmarkRequantize10k$`, "./internal/cluster/", ""}, {`^BenchmarkSummaryFreshnessBytes$`, "./internal/transport/", ""}}, []check{
		{[]string{"BenchmarkRequantize10k/mode=full"}, []string{"BenchmarkRequantize10k/mode=incremental"}, "ns/op", ">=", 3, "incremental requantization is >=3x faster than full Lloyd"},
		{[]string{"BenchmarkSummaryFreshnessBytes/mode=push"}, []string{"BenchmarkSummaryFreshnessBytes/mode=pull"}, "wire_bytes", "<", 1, "a pushed epoch bump costs fewer wire bytes than a pull"},
	}},
	// A cache hit takes microseconds, so the lookup rows run a fixed count.
	"reuse": {"5x", []run{{`^BenchmarkReuseReplay$`, "./internal/federation/", ""}, {`^BenchmarkReuseLookup$`, "./internal/federation/", "20000x"}}, []check{
		{[]string{"BenchmarkReuseLookup/*"}, nil, "allocs/op", "==", 0, "a cache hit is allocation-free at either tier and capacity"},
		{[]string{"BenchmarkReuseLookup/*"}, nil, "rows", "==", 4, "all four lookup rows ran"},
		{[]string{"BenchmarkReuseReplay/mode=seed"}, nil, "trained_queries", ">", 0, "the exact-only replay trains"},
		{[]string{"BenchmarkReuseReplay/mode=approx"}, []string{"BenchmarkReuseReplay/mode=seed"}, "trained_queries", "<=", 0.70, "the approx tier cuts training executions by >=30%"},
		{[]string{"BenchmarkReuseReplay/mode=approx"}, []string{"BenchmarkReuseReplay/mode=seed"}, "mse", "<=", 2, "approx answers keep MSE within 2x of exact-only"},
	}},
}

// A result is one parsed benchmark line: its name without the
// GOMAXPROCS suffix, b.N, and every "value unit" pair it reports.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// A verdict is one check's outcome; Value is its worst sample.
type verdict struct {
	check
	Value float64 `json:"value"`
	Pass  bool    `json:"pass"`
	Error string  `json:"error,omitempty"`
}

type report struct {
	Gate      string    `json:"gate"`
	Benchtime string    `json:"benchtime"`
	Results   []result  `json:"results"`
	Checks    []verdict `json:"checks"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts the result rows from `go test -bench` output.
func parse(out string) []result {
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		r := result{Name: procSuffix.ReplaceAllString(f[0], ""), Iterations: n, Metrics: map[string]float64{}}
		for i := 2; i < len(f) && err == nil; i += 2 {
			r.Metrics[f[i+1]], err = strconv.ParseFloat(f[i], 64)
		}
		if err == nil {
			rs = append(rs, r)
		}
	}
	return rs
}

// samples resolves one table entry to its values.
func samples(rs []result, entry, metric string) ([]float64, error) {
	if prefix, ok := strings.CutSuffix(entry, "*"); ok {
		var vs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; strings.HasPrefix(r.Name, prefix) {
				if !ok && metric != "rows" {
					return nil, fmt.Errorf("%s reports no %s", r.Name, metric)
				}
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return nil, fmt.Errorf("no %s rows", entry)
		}
		if metric == "rows" {
			return []float64{float64(len(vs))}, nil
		}
		return vs, nil
	}
	sum := 0.0
	for _, name := range strings.Split(entry, "+") {
		v, ok := 0.0, false
		for _, r := range rs {
			if r.Name == name {
				v, ok = r.Metrics[metric]
			}
		}
		if !ok {
			return nil, fmt.Errorf("no %s row reporting %s", name, metric)
		}
		sum += v
	}
	return []float64{sum}, nil
}

// holds reports whether v op bound, for op one of < <= == >= >.
func holds(v float64, op string, bound float64) bool {
	return v < bound && strings.Contains(op, "<") || v == bound && strings.Contains(op, "=") || v > bound && strings.Contains(op, ">")
}

func (c check) eval(rs []result) verdict {
	v := verdict{check: c, Pass: true}
	lower := strings.HasPrefix(c.Op, ">")
	for i, entry := range c.Rows {
		vs, err := samples(rs, entry, c.Metric)
		if err == nil && c.Over != nil {
			var den []float64
			if den, err = samples(rs, c.Over[i], c.Metric); err == nil && den[0] == 0 {
				err = fmt.Errorf("%s %s is 0", c.Over[i], c.Metric)
			} else if err == nil {
				vs = []float64{vs[0] / den[0]}
			}
		}
		if err != nil {
			v.Pass, v.Error = false, err.Error()
			return v
		}
		for j, x := range vs {
			if (i == 0 && j == 0) || (lower && x < v.Value) || (!lower && x > v.Value) {
				v.Value = x
			}
			v.Pass = v.Pass && holds(x, c.Op, c.Bound)
		}
	}
	return v
}

func main() {
	name := strings.Join(os.Args[1:], " ")
	g, ok := gates[name]
	if !ok {
		die(2, "usage: benchgate plan|train|wire|telemetry|shard|ingest|reuse")
	}
	benchtime := cmp.Or(os.Getenv("BENCHTIME"), g.benchtime)
	var out bytes.Buffer
	for _, r := range g.runs {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", r.bench, "-benchmem", "-benchtime", cmp.Or(r.benchtime, benchtime), r.pkg)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			die(1, "%s: %v", strings.Join(cmd.Args, " "), err)
		}
	}
	rep := report{Gate: name, Benchtime: benchtime, Results: parse(out.String())}
	failed := 0
	for _, c := range g.checks {
		v := c.eval(rep.Results)
		rep.Checks = append(rep.Checks, v)
		if !v.Pass {
			failed++
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %s (%s %g %s %g) %s\n", name, v.Contract, v.Metric, v.Value, v.Op, v.Bound, v.Error)
		}
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	if err == nil {
		err = os.WriteFile("BENCH_"+name+".json", body.Bytes(), 0o644)
	}
	if err != nil {
		die(1, "%v", err)
	}
	fmt.Printf("benchgate: wrote BENCH_%s.json (%d results, %d/%d checks pass, benchtime %s)\n",
		name, len(rep.Results), len(g.checks)-failed, len(g.checks), benchtime)
	if failed > 0 {
		os.Exit(1)
	}
}

func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(code)
}
