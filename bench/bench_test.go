package main

import (
	"io"
	"net/http"
	"testing"
)

// quick is the -quick pass: a 2-node fleet and 0.6 s of timed phases per
// run, so vet and the race detector cover the whole harness — set-up,
// teardown and goroutine check after every set-up round, every phase, the
// traced run and the result line — in a few seconds.
var quick = size{nodes: 2, samples: 400, rects: 96, quality: 24, margin: 1}

func TestQuickPass(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, named := range bf.Workloads {
		w, ok := findWorkload(named.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", named.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			r := &runner{w: w, seed: 1, seconds: 0.6, size: quick, chk: &checker{}}
			v, err := r.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if err := emit(io.Discard, bf.EndToEnd, v, r.chk); err != nil {
				t.Error(err)
			}
			for _, d := range bf.EndToEnd {
				if v[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v[d.Name])
				}
			}

			v, err = r.traced(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := emit(io.Discard, bf.PerLayer, v, r.chk); err != nil {
				t.Error(err)
			}
			if !r.chk.correct() {
				t.Errorf("output checks failed: %d of %d requests, %d other problems", r.chk.failed, r.chk.attempted, r.chk.problems)
			}
			// The predictions that tell the workloads apart.
			if sharded := w.regions > 0; (v["region.plan_fanout_ms"] > 0) != sharded || (v["region.train_fanout_ms"] > 0) != sharded {
				t.Errorf("region fan-out %.3f/%.3f ms on a workload with %d regions", v["region.plan_fanout_ms"], v["region.train_fanout_ms"], w.regions)
			}
			if (v["cluster.ingest_rows_per_s"] > 0) != w.ingest {
				t.Errorf("cluster.ingest_rows_per_s = %v with ingest=%v", v["cluster.ingest_rows_per_s"], w.ingest)
			}
			if !w.cache && v["federation.trained_frac"] != 1 {
				t.Errorf("federation.trained_frac = %v without a cache, want 1", v["federation.trained_frac"])
			}
			if w.cache && v["federation.cache_hit_frac"] == 0 {
				t.Error("federation.cache_hit_frac = 0 with the cache on")
			}
		})
	}
}

// Pre-validation leaves no rectangle the gateway answers 422 to.
func TestSetUpLeavesNoUnplannableRequest(t *testing.T) {
	w, _ := findWorkload("miss_train")
	r := &runner{w: w, seed: 2, seconds: 0.6, size: quick, chk: &checker{}}
	e, err := r.setUp(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for i, body := range e.reqs.bodies {
		var plan planResponse
		if status, err := e.admin.post("/v1/plan", -1, body, &plan); status != http.StatusOK || err != nil {
			t.Errorf("request %d: POST /v1/plan answered %d: %v", i, status, err)
		}
	}
}
