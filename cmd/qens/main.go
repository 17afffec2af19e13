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
	"qens/internal/selection"
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
		if opts.Nodes == 0 {
			opts.Nodes = 6
		}
		if opts.SamplesPerNode == 0 {
			opts.SamplesPerNode = 500
		}
		if opts.Queries == 0 {
			opts.Queries = 20
		}
	}

	name := flag.Arg(0)
	start := time.Now()
	if err := run(name, opts); err != nil {
		fmt.Fprintf(os.Stderr, "qens: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
}

// command is one subcommand: its name, its usage line and what it
// runs.
type command struct {
	name, help string
	run        func(experiments.Options) error
}

// commands is every subcommand, in usage order.
var commands = []command{
	{"table1", "Table I  — all-node vs random loss, homogeneous nodes",
		func(o experiments.Options) error { return show(experiments.TableI(o)) }},
	{"table2", "Table II — all-node vs random loss, heterogeneous nodes",
		func(o experiments.Options) error { return show(experiments.TableII(o)) }},
	{"fig6", "Fig. 6   — query space vs node data spaces",
		func(o experiments.Options) error { return show(experiments.Figure6(o)) }},
	{"fig7", "Fig. 7   — average loss: GT, Random, Averaging, Weighted",
		func(o experiments.Options) error { return show(experiments.Figure7(o)) }},
	{"fig8", "Fig. 8   — training time w/ and w/o the query-driven mechanism",
		func(o experiments.Options) error { return show(experiments.Figure8(o)) }},
	{"fig9", "Fig. 9   — % of data needed per query w/ and w/o the mechanism",
		func(o experiments.Options) error { return show(experiments.Figure9(o)) }},
	{"pretest", "§II heterogeneity pre-test on both corpus regimes", runPreTest},
	{"drift", "model forgetting under sequential training, query-driven vs naive path",
		func(o experiments.Options) error {
			if o.Heterogeneity == 0 {
				o.Heterogeneity = 1
			}
			if o.FlipFraction == 0 {
				o.FlipFraction = 0.3
			}
			return show(experiments.Drift(o))
		}},
	{"ablation-k", "sweep clusters per node K",
		func(o experiments.Options) error { return show(experiments.AblationK(o, nil)) }},
	{"ablation-eps", "sweep support threshold ε",
		func(o experiments.Options) error { return show(experiments.AblationEpsilon(o, nil)) }},
	{"ablation-l", "sweep participant budget ℓ",
		func(o experiments.Options) error { return show(experiments.AblationTopL(o, nil)) }},
	{"ablation-psi", "sweep rank threshold ψ (Eq. 5)",
		func(o experiments.Options) error { return show(experiments.AblationPsi(o, nil)) }},
	{"ablation-agg", "prediction averaging vs weighted vs parameter FedAvg",
		func(o experiments.Options) error { return show(experiments.AblationAggregation(o)) }},
	{"sweep", "loss advantage of the mechanism as heterogeneity rises",
		func(o experiments.Options) error { return show(experiments.HeterogeneitySweep(o, nil)) }},
	{"comm", "per-query communication bytes vs GT and centralized shipping",
		func(o experiments.Options) error { return show(experiments.CommunicationCost(o)) }},
	{"multifeature", "full pipeline over a 4-dimensional feature space",
		func(o experiments.Options) error { return show(experiments.MultiFeature(o, nil)) }},
	{"reuse", "query-result caching under a focused workload ([5]-style)",
		func(o experiments.Options) error { return show(experiments.Reuse(o)) }},
	{"temporal", "train-on-past / test-on-future prequential evaluation",
		func(o experiments.Options) error { return show(experiments.Temporal(o)) }},
	{"explain", "print the full Eq. 2-4 ranking for one query", runExplain},
	{"report", "run everything and emit one markdown report", runReport},
	{"robustness", "behaviour under corrupted-label (broken-sensor) nodes",
		func(o experiments.Options) error { return show(experiments.NoiseRobustness(o, nil)) }},
	{"ablation-quantizer", "k-means vs equi-width grid synopses",
		func(o experiments.Options) error { return show(experiments.QuantizerAblation(o)) }},
}

func run(name string, opts experiments.Options) error {
	for _, c := range commands {
		if c.name == name {
			return c.run(opts)
		}
	}
	usage()
	return nil
}

// show prints any experiment result that knows how to render itself.
func show[T fmt.Stringer](res T, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	return nil
}

// runExplain prints the leader's ranking view for the first workload
// query.
func runExplain(opts experiments.Options) error {
	env, err := experiments.NewEnvironment(opts)
	if err != nil {
		return err
	}
	summaries, err := env.Fleet.Leader.Summaries()
	if err != nil {
		return err
	}
	out, err := selection.Explain(env.Queries[0], summaries, opts.WithDefaults().Epsilon)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// runPreTest runs the §II heterogeneity pre-test on both corpus
// regimes.
func runPreTest(opts experiments.Options) error {
	for _, regime := range []struct {
		name          string
		heterogeneity float64
		flip          float64
	}{
		{"homogeneous", 0.02, -1},
		{"heterogeneous", 1, 0.3},
	} {
		o := opts
		o.Heterogeneity = regime.heterogeneity
		o.FlipFraction = regime.flip
		if o.FlipFraction < 0 {
			o.FlipFraction = 0
		}
		env, err := experiments.NewEnvironment(o)
		if err != nil {
			return err
		}
		res, err := env.Fleet.Leader.PreTest(0)
		if err != nil {
			return err
		}
		fmt.Printf("%s corpus -> classified %s (loss dispersion %.2fx)\n",
			regime.name, res.Regime, res.Dispersion)
	}
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: qens [flags] <experiment>\n\nexperiments:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", c.name, c.help)
	}
	fmt.Fprint(os.Stderr, "\nrun 'qens -h' for flags\n")
	os.Exit(2)
}
