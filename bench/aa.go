package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

const (
	readmePath = "bench/README.md"
	aaBegin    = "<!-- aa:begin (written by --aa, do not edit) -->"
	aaEnd      = "<!-- aa:end -->"
)

// runAA runs every workload n times per side on this one tree, each
// run a fresh process with another seed, exactly as the acceptance
// procedure does: side A's spread (distance between the first and
// third quartile over the median) must stay within each end-to-end
// metric's bound, and side B's median may not be worse than side A's
// by more than the bound. It prints one row per workload and metric,
// rewrites the table in README.md and fails if any row does.
func runAA(bf *benchmarkFile, n int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%d runs per side, %g s each, seeds %d–%d.\n\n", n, seconds, seed, seed+int64(2*n)-1)
	table.WriteString("| workload | metric | median A | spread A | median B | B worse by | bound | |\n|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range bf.Workloads {
		var sides [2]map[string][]float64
		for side := range sides {
			sides[side] = map[string][]float64{}
			for i := 0; i < n; i++ {
				out, err := runOnce(self, w.Name, seed+int64(side*n+i), seconds)
				if err != nil {
					return err
				}
				for name, m := range out.Metrics {
					sides[side][name] = append(sides[side][name], m.Value)
				}
			}
		}
		for _, d := range bf.EndToEnd {
			a, b := sides[0][d.Name], sides[1][d.Name]
			medA, medB := median(a), median(b)
			spread := ratio(quartile(a, 3)-quartile(a, 1), medA)
			worse := ratio(medB-medA, medA)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound || (spread > d.Bound && d.Name != "setup_s") {
				verdict = "FAIL"
				failed++
			}
			row := fmt.Sprintf("| %s | %s | %.5g | %.1f %% | %.5g | %+.1f %% | %.0f %% | %s |\n",
				w.Name, d.Name, medA, 100*spread, medB, 100*worse, 100*d.Bound, verdict)
			fmt.Print(row)
			table.WriteString(row)
		}
	}
	if err := rewriteReadme(table.String()); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d metric rows outside their bound", failed)
	}
	return nil
}

func runOnce(self, workload string, seed int64, seconds float64) (*output, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &out, nil
}

// quartile is statistics.quantiles(vs, n=4)[k-1] of Python (the
// default "exclusive" method), which the acceptance procedure uses.
func quartile(vs []float64, k int) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s)
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

func rewriteReadme(table string) error {
	raw, err := os.ReadFile(readmePath)
	if err != nil {
		return err
	}
	doc := string(raw)
	i, j := strings.Index(doc, aaBegin), strings.Index(doc, aaEnd)
	if i < 0 || j < i {
		return fmt.Errorf("%s: A/A table markers not found", readmePath)
	}
	doc = doc[:i+len(aaBegin)] + "\n" + table + doc[j:]
	return os.WriteFile(readmePath, []byte(doc), 0o644)
}
