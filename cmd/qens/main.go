// Command qens is the experiment runner: it regenerates every table
// and figure of the paper plus the ablation sweeps, on the synthetic
// air-quality corpus.
//
// Usage:
//
//	qens [flags] <experiment>
//
// Run qens with no experiment to list the experiments.
//
// Flags scale the run; the defaults are the paper's setting (10 nodes,
// 2000 samples per node, K=5, 200 queries). Use -quick for a reduced
// sanity-check run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qens/internal/experiments"
	"qens/internal/telemetry"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 1, "experiment seed")
		nodes       = flag.Int("nodes", 0, "edge nodes (default 10)")
		samples     = flag.Int("samples", 0, "samples per node (default 2000)")
		queries     = flag.Int("queries", 0, "workload size (default 200; figs 8-9 cap at 20)")
		clusterK    = flag.Int("k", 0, "clusters per node (default 5)")
		epsilon     = flag.Float64("eps", 0, "support threshold ε (default 0.6)")
		topL        = flag.Int("l", 0, "top-ℓ participants (default 3)")
		localEpochs = flag.Int("epochs", 0, "local epochs E per cluster (default 5)")
		model       = flag.String("model", "", "model: linear or nn (default linear)")
		quick       = flag.Bool("quick", false, "reduced scale for a fast sanity run")
		metricsAddr = flag.String("metrics-addr", "", "observability sidecar address serving /metrics, /healthz and /debug/pprof (e.g. :9091; empty disables)")
		tracePath   = flag.String("trace", "", "write a JSONL span trace of every executed query to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
	}
	var exp experiments.Experiment
	for _, e := range experiments.Experiments() {
		if e.Name == flag.Arg(0) {
			exp = e
		}
	}
	if exp.Run == nil {
		usage()
	}

	if *metricsAddr != "" {
		obs, err := telemetry.ServeHTTP(*metricsAddr, telemetry.Default(), func() map[string]any {
			return map[string]any{"role": "leader", "experiment": flag.Arg(0)}
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "qens: %v\n", err)
			os.Exit(1)
		}
		defer obs.Close()
		fmt.Printf("observability on http://%s (/metrics /healthz /debug/pprof)\n", obs.Addr())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qens: trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer := telemetry.NewTracer(f)
		tracer.SetRetention(100_000)
		telemetry.SetDefaultTracer(tracer)
		defer func() {
			if err := tracer.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "qens: trace flush: %v\n", err)
			}
			if sum, err := experiments.SummarizeTraceSpans(tracer.Spans()); err == nil {
				fmt.Printf("\ntrace written to %s\n%s", *tracePath, sum)
			}
		}()
	}

	opts := experiments.Options{
		Seed:           *seed,
		Nodes:          *nodes,
		SamplesPerNode: *samples,
		Queries:        *queries,
		ClusterK:       *clusterK,
		Epsilon:        *epsilon,
		TopL:           *topL,
		LocalEpochs:    *localEpochs,
		Model:          *model,
	}
	if *quick {
		opts = opts.Quick()
	}

	start := time.Now()
	res, err := exp.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qens: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
	fmt.Printf("\n[%s completed in %s]\n", exp.Name, time.Since(start).Round(time.Millisecond))
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: qens [flags] <experiment>\n\nexperiments:\n")
	for _, e := range experiments.Experiments() {
		fmt.Fprintf(os.Stderr, "  %-18s %s\n", e.Name, e.Usage)
	}
	fmt.Fprint(os.Stderr, "\nrun 'qens -h' for flags\n")
	os.Exit(2)
}
