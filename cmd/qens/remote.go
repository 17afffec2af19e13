package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"qens/internal/experiments"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/transport"
)

// runRemote drives a federation of live qensd daemons: it dials every
// address, collects cluster summaries, draws a query workload over the
// advertised space, and compares query-driven selection against random
// selection. Scoring happens on the nodes themselves (the leader holds
// no data): each query trains a two-round FedAvg global model
// and every node reports its in-query loss, pooled by sample count.
func runRemote(addrs []string, opts experiments.Options) error {
	opts = opts.WithDefaults()
	if len(addrs) == 0 {
		return fmt.Errorf("qens: remote mode needs -addrs")
	}
	var clients []federation.Client
	for _, addr := range addrs {
		c, err := transport.Dial(strings.TrimSpace(addr), transport.DialOptions{Timeout: 2 * time.Minute})
		if err != nil {
			return fmt.Errorf("qens: dial %s: %w", addr, err)
		}
		defer c.Close()
		fmt.Printf("connected to %s (%s)\n", c.ID(), addr)
		clients = append(clients, c)
	}

	spec := ml.PaperLR(1)
	if opts.Model == ml.KindNN {
		spec = ml.PaperNN(1)
	}
	leader, err := federation.NewLeader(federation.Config{
		Spec:        spec,
		ClusterK:    opts.ClusterK,
		LocalEpochs: opts.LocalEpochs,
		Seed:        opts.Seed,
	}, nil, clients)
	if err != nil {
		return err
	}
	summaries, err := leader.Summaries()
	if err != nil {
		return err
	}
	var space geometry.Rect
	first := true
	for _, s := range summaries {
		for _, c := range s.Clusters {
			if first {
				space = c.Bounds.Clone()
				first = false
				continue
			}
			space = space.Union(c.Bounds)
		}
	}
	nq := opts.Queries
	if nq > 20 {
		nq = 20
	}
	workload, err := query.Workload(query.WorkloadConfig{Space: space, Count: nq}, rng.New(opts.Seed+2))
	if err != nil {
		return err
	}

	arms := []struct {
		name string
		sel  selection.Selector
	}{
		{"query-driven", selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}},
		{"random", selection.Random{L: opts.TopL}},
	}
	fmt.Printf("\nrunning %d queries against %d remote nodes:\n", nq, len(clients))
	for _, arm := range arms {
		total, samples, executed := 0.0, 0, 0
		for _, q := range workload {
			res, _, err := leader.Execute(context.Background(), federation.Request{Query: q, Selector: arm.sel, Rounds: 2})
			if err != nil {
				continue
			}
			mse, n, err := leader.EvaluateGlobal(res.GlobalParams, q.Bounds)
			if err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			total += mse
			samples += n
			executed++
		}
		if executed == 0 {
			fmt.Printf("  %-14s (no evaluable queries)\n", arm.name)
			continue
		}
		fmt.Printf("  %-14s loss=%-12.2f (%d queries, %d scored samples)\n",
			arm.name, total/float64(executed), executed, samples)
	}
	return nil
}
