// Operations scenario: running a QENS federation as a long-lived
// service. This example strings together the operational machinery the
// library adds around the paper's mechanism:
//
//   - the Adaptive selector (§II decision procedure: pre-test once,
//     then commit to random or query-driven selection);
//   - the query-result reuse cache (focused workloads answered from
//     recently built models);
//   - the JSONL audit log (who was selected, what it cost);
//   - ensemble uncertainty (PredictWithSpread) as a serving-time
//     quality signal.
//
// Run: go run ./examples/operations
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

func main() {
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 8, SamplesPerNode: 900, Seed: 31, Heterogeneity: 0.9, FlipFraction: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 5, Seed: 13,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// A focused workload, as a deployed analytics service would see.
	space, err := fleet.Space()
	if err != nil {
		log.Fatal(err)
	}
	workload, err := query.Workload(query.WorkloadConfig{
		Space: space, Count: 12, DriftPeriod: 6, FocusSpread: 0.04,
	}, rng.New(2))
	if err != nil {
		log.Fatal(err)
	}

	adaptive := &selection.Adaptive{Epsilon: 0.6, TopL: 3}
	cache, err := federation.NewReuseCache(0.5, 8)
	if err != nil {
		log.Fatal(err)
	}
	var auditBuf bytes.Buffer
	audit := federation.NewAuditLog(&auditBuf)

	// The reuse cache takes deterministic mechanisms only, and Adaptive
	// is stateful until its pre-test has run: from then on the service
	// selects with the branch the pre-test committed to.
	var sel selection.Selector = adaptive
	hits := 0
	for _, q := range workload {
		res, kind, err := fleet.Leader.Execute(context.Background(), federation.Request{
			Query: q, Selector: sel, Aggregation: federation.WeightedAveraging, Cache: cache,
		})
		if regime, ok := adaptive.Regime(); ok && regime == selection.RegimeHeterogeneous {
			sel = selection.QueryDriven{Epsilon: adaptive.Epsilon, TopL: adaptive.TopL}
		}
		if err != nil {
			fmt.Printf("%-8s no participants (%v)\n", q.ID, err)
			continue
		}
		reused := kind.Reused()
		if reused {
			hits++
		}
		if !reused {
			if err := audit.Record(res); err != nil {
				log.Fatal(err)
			}
		}
		pred, spread := res.Ensemble.PredictWithSpread(q.Bounds.Center()[:1])
		tag := "fresh "
		if reused {
			tag = "cached"
		}
		fmt.Printf("%-8s %s  PM2.5=%.1f ± %.1f  (%d nodes, %.1f%% of data)\n",
			q.ID, tag, pred, spread, len(res.Participants), 100*res.Stats.DataFraction())
	}

	regime, _ := adaptive.Regime()
	fmt.Printf("\npre-test committed to the %s branch (regime: %s)\n",
		map[selection.Regime]string{
			selection.RegimeHomogeneous:   "random",
			selection.RegimeHeterogeneous: "query-driven",
		}[regime], regime)
	fmt.Printf("cache served %d of %d queries\n", hits, len(workload))

	records, err := federation.ReadAuditLog(&auditBuf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit log holds %d records; replaying the logged workload...\n", len(records))
	ids := make([]string, len(records))
	rects := make([]geometry.Rect, len(records))
	for i, r := range records {
		ids[i] = r.QueryID + "-replay"
		rects[i] = r.Bounds
	}
	replayed, err := query.Replay(ids, rects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay reconstructed %d executable queries from the audit trail\n", len(replayed))
}
