// Command qens is the experiment runner: it regenerates every table
// and figure of the paper plus the ablation sweeps, on the synthetic
// air-quality corpus.
//
// Usage:
//
//	qens [flags] <experiment>
//
// Experiments: table1 table2 fig6 fig7 fig8 fig9 pretest
// ablation-k ablation-eps ablation-l ablation-psi ablation-agg report
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

func run(name string, opts experiments.Options) error {
	switch name {
	case "table1":
		return show(experiments.TableI(opts))
	case "table2":
		return show(experiments.TableII(opts))
	case "fig6":
		return show(experiments.Figure6(opts))
	case "fig7":
		return show(experiments.Figure7(opts))
	case "fig8":
		return show(experiments.Figure8(opts))
	case "fig9":
		return show(experiments.Figure9(opts))
	case "pretest":
		return runPreTest(opts)
	case "drift":
		o := opts
		if o.Heterogeneity == 0 {
			o.Heterogeneity = 1
		}
		if o.FlipFraction == 0 {
			o.FlipFraction = 0.3
		}
		return show(experiments.Drift(o))
	case "ablation-k":
		return show(experiments.AblationK(opts, nil))
	case "ablation-eps":
		return show(experiments.AblationEpsilon(opts, nil))
	case "ablation-l":
		return show(experiments.AblationTopL(opts, nil))
	case "ablation-psi":
		return show(experiments.AblationPsi(opts, nil))
	case "ablation-agg":
		return show(experiments.AblationAggregation(opts))
	case "sweep":
		return show(experiments.HeterogeneitySweep(opts, nil))
	case "comm":
		return show(experiments.CommunicationCost(opts))
	case "multifeature":
		return show(experiments.MultiFeature(opts, nil))
	case "reuse":
		return show(experiments.Reuse(opts))
	case "temporal":
		return show(experiments.Temporal(opts))
	case "explain":
		return runExplain(opts)
	case "report":
		return runReport(opts)
	case "robustness":
		return show(experiments.NoiseRobustness(opts, nil))
	case "ablation-quantizer":
		return show(experiments.QuantizerAblation(opts))
	case "adaptive":
		return show(experiments.Adaptive(opts))
	default:
		usage()
		return nil
	}
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
	fmt.Fprintln(os.Stderr, `usage: qens [flags] <experiment>

experiments:
  table1        Table I  — all-node vs random loss, homogeneous nodes
  table2        Table II — all-node vs random loss, heterogeneous nodes
  fig6          Fig. 6   — query space vs node data spaces
  fig7          Fig. 7   — average loss: GT, Random, Averaging, Weighted
  fig8          Fig. 8   — training time w/ and w/o the query-driven mechanism
  fig9          Fig. 9   — % of data needed per query w/ and w/o the mechanism
  pretest       §II heterogeneity pre-test on both corpus regimes
  drift         model forgetting under sequential training, query-driven vs naive path
  ablation-k    sweep clusters per node K
  ablation-eps  sweep support threshold ε
  ablation-l    sweep participant budget ℓ
  ablation-psi  sweep rank threshold ψ (Eq. 5)
  ablation-agg  prediction averaging vs weighted vs parameter FedAvg
  sweep         loss advantage of the mechanism as heterogeneity rises
  comm          per-query communication bytes vs GT and centralized shipping
  multifeature  full pipeline over a 4-dimensional feature space
  reuse         query-result caching under a focused workload ([5]-style)
  temporal      train-on-past / test-on-future prequential evaluation
  explain       print the full Eq. 2-4 ranking for one query
  report        run everything and emit one markdown report
  robustness    behaviour under corrupted-label (broken-sensor) nodes
  ablation-quantizer  k-means vs equi-width grid synopses
  adaptive      the §II decision procedure (pre-test -> mechanism) end-to-end

run 'qens -h' for flags`)
	os.Exit(2)
}
