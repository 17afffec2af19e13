package experiments

import (
	"fmt"
	"strings"
	"time"

	"qens/internal/selection"
)

// Experiment is one qens subcommand: its name, its usage line, the
// title of its section in Report ("" keeps it out of the report) and
// what it runs.
type Experiment struct {
	Name, Usage, Title string
	Run                func(Options) (fmt.Stringer, error)
}

// Text is a result that is only its rendering.
type Text string

func (t Text) String() string { return string(t) }

// Experiments is every qens subcommand, in usage order; Report runs
// the ones with a title in this order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I  — all-node vs random loss, homogeneous nodes", "Table I — homogeneous participants",
			func(o Options) (fmt.Stringer, error) { return TableI(o) }},
		{"table2", "Table II — all-node vs random loss, heterogeneous nodes", "Table II — heterogeneous participants",
			func(o Options) (fmt.Stringer, error) { return TableII(o) }},
		{"fig6", "Fig. 6   — query space vs node data spaces", "Figure 6 — query vs node data spaces",
			func(o Options) (fmt.Stringer, error) { return Figure6(o) }},
		{"fig7", "Fig. 7   — average loss: GT, Random, Averaging, Weighted", "Figure 7 — mechanism comparison",
			func(o Options) (fmt.Stringer, error) { return Figure7(o) }},
		{"fig8", "Fig. 8   — training time w/ and w/o the query-driven mechanism", "Figure 8 — training time",
			func(o Options) (fmt.Stringer, error) { return Figure8(o) }},
		{"fig9", "Fig. 9   — % of data needed per query w/ and w/o the mechanism", "Figure 9 — data fraction",
			func(o Options) (fmt.Stringer, error) { return Figure9(o) }},
		{"pretest", "§II heterogeneity pre-test on both corpus regimes", "", preTest},
		{"drift", "model forgetting under sequential training, query-driven vs naive path", "Model drift under sequential training",
			func(o Options) (fmt.Stringer, error) {
				o.Heterogeneity, o.FlipFraction = 1, 0.3
				return Drift(o)
			}},
		{"sweep", "loss advantage of the mechanism as heterogeneity rises", "Heterogeneity sweep",
			func(o Options) (fmt.Stringer, error) { return HeterogeneitySweep(o, nil) }},
		{"comm", "per-query communication bytes vs GT and centralized shipping", "Communication cost",
			func(o Options) (fmt.Stringer, error) { return CommunicationCost(o) }},
		{"reuse", "query-result caching under a focused workload ([5]-style)", "Query reuse",
			func(o Options) (fmt.Stringer, error) { return Reuse(o) }},
		{"temporal", "train-on-past / test-on-future prequential evaluation", "Temporal protocol",
			func(o Options) (fmt.Stringer, error) { return Temporal(o) }},
		{"multifeature", "full pipeline over a 4-dimensional feature space", "Multi-feature pipeline",
			func(o Options) (fmt.Stringer, error) { return MultiFeature(o, nil) }},
		{"ablation-k", "sweep clusters per node K", "Ablation: K",
			func(o Options) (fmt.Stringer, error) { return AblationK(o, nil) }},
		{"ablation-eps", "sweep support threshold ε", "Ablation: ε",
			func(o Options) (fmt.Stringer, error) { return AblationEpsilon(o, nil) }},
		{"ablation-l", "sweep participant budget ℓ", "Ablation: ℓ",
			func(o Options) (fmt.Stringer, error) { return AblationTopL(o, nil) }},
		{"ablation-psi", "sweep rank threshold ψ (Eq. 5)", "Ablation: ψ",
			func(o Options) (fmt.Stringer, error) { return AblationPsi(o, nil) }},
		{"ablation-agg", "prediction averaging vs weighted vs parameter FedAvg", "Ablation: aggregation",
			func(o Options) (fmt.Stringer, error) { return AblationAggregation(o) }},
		{"robustness", "behaviour under corrupted-label (broken-sensor) nodes", "Sensor-noise robustness",
			func(o Options) (fmt.Stringer, error) { return NoiseRobustness(o, nil) }},
		{"ablation-quantizer", "k-means vs equi-width grid synopses", "Ablation: quantizer",
			func(o Options) (fmt.Stringer, error) { return QuantizerAblation(o) }},
		{"explain", "print the full Eq. 2-4 ranking for one query", "", explain},
		{"report", "run everything and emit one markdown report", "",
			func(o Options) (fmt.Stringer, error) { return Report(o) }},
	}
}

// preTest runs the leader's §II heterogeneity pre-test on both corpus
// regimes.
func preTest(opts Options) (fmt.Stringer, error) {
	var b strings.Builder
	for _, regime := range []struct {
		name                string
		heterogeneity, flip float64
	}{
		{"homogeneous", 0.02, 0},
		{"heterogeneous", 1, 0.3},
	} {
		o := opts
		o.Heterogeneity, o.FlipFraction = regime.heterogeneity, regime.flip
		env, err := NewEnvironment(o)
		if err != nil {
			return nil, err
		}
		res, err := env.Fleet.Leader.PreTest(0)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s corpus -> classified %s (loss dispersion %.2fx)\n",
			regime.name, res.Regime, res.Dispersion)
	}
	return Text(b.String()), nil
}

// explain renders the leader's Eq. 2-4 ranking for the first workload
// query.
func explain(opts Options) (fmt.Stringer, error) {
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	summaries, err := env.Fleet.Leader.Summaries()
	if err != nil {
		return nil, err
	}
	out, err := selection.Explain(env.Queries[0], summaries, env.Opts.Epsilon)
	return Text(out), err
}

// Report runs every experiment with a section title, in table order,
// and assembles one markdown document, so a single command regenerates
// the evidence behind EXPERIMENTS.md at any scale.
func Report(opts Options) (Text, error) {
	opts = opts.WithDefaults()
	var b strings.Builder
	start := time.Now()
	fmt.Fprintf(&b, "# QENS reproduction report\n\n")
	fmt.Fprintf(&b, "Configuration: %d nodes x %d samples, %d queries, K=%d, ε=%.2f, ℓ=%d, E=%d, model=%s, seed=%d.\n\n",
		opts.Nodes, opts.SamplesPerNode, opts.Queries, opts.ClusterK,
		opts.Epsilon, opts.TopL, opts.LocalEpochs, opts.Model, opts.Seed)
	for _, e := range Experiments() {
		if e.Title == "" {
			continue
		}
		res, err := e.Run(opts)
		if err != nil {
			return "", fmt.Errorf("experiments: report section %q: %w", e.Title, err)
		}
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n", e.Title, res.String())
	}
	fmt.Fprintf(&b, "Generated in %s.\n", time.Since(start).Round(time.Millisecond))
	return Text(b.String()), nil
}
