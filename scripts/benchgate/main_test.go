package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// committed loads the repository's BENCH_<gate>.json.
func committed(t *testing.T, gate string) report {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+gate+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("BENCH_%s.json: %v", gate, err)
	}
	return rep
}

func clone(rs []result) []result {
	out := make([]result, len(rs))
	for i, r := range rs {
		r.Metrics = maps.Clone(r.Metrics)
		out[i] = r
	}
	return out
}

// matches lists the rows one table entry reads.
func matches(rs []result, entry string) []int {
	var idx []int
	for i, r := range rs {
		prefix, isPrefix := strings.CutSuffix(entry, "*")
		for _, name := range strings.Split(entry, "+") {
			if r.Name == name || isPrefix && strings.HasPrefix(r.Name, prefix) {
				idx = append(idx, i)
			}
		}
	}
	return idx
}

// pastBound is a value just on the failing side of the check's bound.
func pastBound(c check) float64 {
	switch c.Op {
	case "<", ">":
		return c.Bound
	case ">=":
		return c.Bound - math.Max(c.Bound*0.01, 0.01)
	}
	return c.Bound + math.Max(c.Bound*0.01, 0.01)
}

func TestCommittedResultsPass(t *testing.T) {
	for name, g := range gates {
		rep := committed(t, name)
		if rep.Gate != name || len(rep.Checks) != len(g.checks) {
			t.Errorf("BENCH_%s.json: gate %q with %d checks, table has %d: regenerate it", name, rep.Gate, len(rep.Checks), len(g.checks))
			continue
		}
		for i, c := range g.checks {
			if v := c.eval(rep.Results); !v.Pass {
				t.Errorf("%s: %s fails: %s %g %s %g %s", name, c.Contract, c.Metric, v.Value, c.Op, c.Bound, v.Error)
			} else if !reflect.DeepEqual(rep.Checks[i], v) {
				t.Errorf("%s: committed verdict %+v, table evaluates %+v: regenerate it", name, rep.Checks[i], v)
			}
		}
	}
}

// TestChecksFailPastBound moves each sample a check reads, one at a
// time, just past the bound; the check must then fail.
func TestChecksFailPastBound(t *testing.T) {
	for name, g := range gates {
		base := committed(t, name).Results
		for _, c := range g.checks {
			for i, entry := range c.Rows {
				rs := clone(base)
				idx := matches(rs, entry)
				target := pastBound(c)
				switch {
				case c.Metric == "rows":
					for n := len(idx); float64(n) < target; n++ {
						rs = append(rs, result{Name: strings.TrimSuffix(entry, "*") + fmt.Sprint("extra", n), Metrics: map[string]float64{}})
					}
				case strings.HasSuffix(entry, "*"):
					rs[idx[len(idx)-1]].Metrics[c.Metric] = target
				default:
					if c.Over != nil {
						den, _ := samples(rs, c.Over[i], c.Metric)
						target *= den[0]
					}
					num, _ := samples(rs, entry, c.Metric)
					rs[idx[0]].Metrics[c.Metric] += target - num[0]
				}
				if v := c.eval(rs); v.Pass {
					t.Errorf("%s: %s passes with %s moved to %g", name, c.Contract, entry, v.Value)
				}
			}
		}
	}
}

// TestChecksFailOnMissingRow deletes each row a check names (every row
// under a prefix at once); the check must then fail.
func TestChecksFailOnMissingRow(t *testing.T) {
	for name, g := range gates {
		base := committed(t, name).Results
		for _, c := range g.checks {
			var groups [][]int
			for _, entry := range append(append([]string(nil), c.Rows...), c.Over...) {
				if strings.HasSuffix(entry, "*") {
					groups = append(groups, matches(base, entry))
					continue
				}
				for _, i := range matches(base, entry) {
					groups = append(groups, []int{i})
				}
			}
			for _, drop := range groups {
				var rs []result
				for i, r := range base {
					if !slices.Contains(drop, i) {
						rs = append(rs, r)
					}
				}
				if v := c.eval(rs); v.Pass || v.Error == "" {
					t.Errorf("%s: %s passes without %s", name, c.Contract, base[drop[0]].Name)
				}
			}
		}
	}
}

func TestParseCustomMetrics(t *testing.T) {
	out := `goos: linux
BenchmarkReuseReplay/mode=seed-8   	       5	   6819004 ns/op	        39.00 trained_queries	        69.92 mse	 1431054 B/op	    8173 allocs/op
BenchmarkWireEncode/codec=v2       	  174337	      6888 ns/op	     32874 frame_bytes	       0 B/op	       0 allocs/op
BenchmarkReuseReplay
--- FAIL: BenchmarkBroken
PASS
ok  	qens/internal/federation	3.2s
`
	want := []result{
		{"BenchmarkReuseReplay/mode=seed", 5, map[string]float64{"ns/op": 6819004, "trained_queries": 39, "mse": 69.92, "B/op": 1431054, "allocs/op": 8173}},
		{"BenchmarkWireEncode/codec=v2", 174337, map[string]float64{"ns/op": 6888, "frame_bytes": 32874, "B/op": 0, "allocs/op": 0}},
	}
	if got := parse(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %+v\nwant %+v", got, want)
	}
}
