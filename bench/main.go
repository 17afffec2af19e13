// Command bench is the repository benchmark: it boots one workload's
// whole serving stack in this process over real loopback TCP (nodes →
// transport → leader or regions+router → gateway → HTTP), drives
// POST /v1/query against it, checks every answer and prints the
// metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload miss_train --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json at the root of the checkout: the one
// place metric names, units, directions and bounds are written down.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// emit prints the result line: exactly the metrics defs lists, each
// with the unit BENCHMARK.json gives it.
func emit(w io.Writer, defs []metricDef, values map[string]float64, chk *checker) error {
	out := output{Correct: chk.correct(), Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("bench: metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		if !finite(v) {
			return fmt.Errorf("bench: metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "traffic seed: rectangles and ingest rows")
		seconds = flag.Float64("seconds", 0, "measured seconds (default run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end run; 1: traced run printing the per-layer metrics")
		file    = flag.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json")
		outDir  = flag.String("out", ".bench_build/out", "directory for span files")
		aa      = flag.Int("aa", 0, "A/A mode: run every workload this many times per side, compare, rewrite the README table")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *file, *outDir, *aa); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, file, outDir string, aa int) error {
	bf, err := readBenchmarkFile(file)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	if aa > 0 {
		return runAA(bf, aa, seed, seconds)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := &runner{w: w, seed: seed, seconds: seconds, size: fullSize, chk: &checker{}}
	var values map[string]float64
	defs := bf.EndToEnd
	if trace == 0 {
		values, err = r.endToEnd()
	} else {
		defs = bf.PerLayer
		values, err = r.traced(outDir)
	}
	if err != nil {
		return err
	}
	if err := emit(os.Stdout, defs, values, r.chk); err != nil {
		return err
	}
	if !r.chk.correct() {
		return fmt.Errorf("%s: output checks failed", w.name)
	}
	return nil
}
