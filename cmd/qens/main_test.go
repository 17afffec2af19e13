package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"qens/internal/experiments"
)

// tinyOpts keeps CLI-path integration runs fast.
func tinyOpts() experiments.Options {
	return experiments.Options{
		Seed: 3, Nodes: 4, SamplesPerNode: 200, Queries: 6,
		ClusterK: 4, Epsilon: 0.6, TopL: 2, LocalEpochs: 2,
	}
}

// TestRunExperiments runs every entry of the experiment table end to
// end and renders its result.
func TestRunExperiments(t *testing.T) {
	for _, e := range experiments.Experiments() {
		res, err := e.Run(tinyOpts())
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if res.String() == "" {
			t.Errorf("%s: empty rendering", e.Name)
		}
	}
}

// TestEverySubcommandRegenerates holds the experiment table and
// EXPERIMENTS.md's regeneration index to the same names: a subcommand
// without a row backs no reported claim, and a row naming no
// subcommand cannot be regenerated.
func TestEverySubcommandRegenerates(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "## Regeneration index\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no regeneration index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("`qens ([a-z0-9-]+)(?:\\{([a-z0-9,]+)\\})?").FindAllStringSubmatch(index, -1) {
		if m[2] == "" {
			rows[m[1]] = true
			continue
		}
		for _, suffix := range strings.Split(m[2], ",") {
			rows[m[1]+suffix] = true
		}
	}
	table := map[string]bool{}
	for _, e := range experiments.Experiments() {
		table[e.Name] = true
		if !rows[e.Name] {
			t.Errorf("subcommand %q has no row in EXPERIMENTS.md's regeneration index", e.Name)
		}
	}
	for name := range rows {
		if !table[name] {
			t.Errorf("regeneration index names %q, which is no subcommand", name)
		}
	}
}
