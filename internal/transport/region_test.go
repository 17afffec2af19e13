package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/rng"
	"qens/internal/selection"
)

// regionFleet builds a 4-node fleet as two spatial shards under
// regional leaders. Node seeds depend only on the index, so repeated
// builds are bit-identical (the remote-vs-local equivalence below
// depends on it).
func regionFleet(t *testing.T) []*region.Leader {
	t.Helper()
	slabs := [][2]float64{{0, 10}, {12, 22}, {40, 50}, {52, 62}}
	cfg := federation.Config{Spec: ml.PaperLR(1), ClusterK: 3, LocalEpochs: 2, Seed: 42}
	nodes := make([]*federation.Node, len(slabs))
	summaries := make([]cluster.NodeSummary, len(slabs))
	rosterIndex := make(map[string]int, len(slabs))
	for i, s := range slabs {
		n, err := federation.NewNode(fmt.Sprintf("node-%d", i),
			lineDataset(150, 2, 1, s[0], s[1], 10+uint64(i)), 3, rng.New(1000+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		summaries[i] = n.Summary()
		rosterIndex[n.ID()] = i
	}
	shards, err := region.Partition(summaries, 2)
	if err != nil {
		t.Fatal(err)
	}
	leaders := make([]*region.Leader, 0, len(shards))
	for r, shard := range shards {
		clients := make([]federation.Client, 0, len(shard))
		for _, idx := range shard {
			clients = append(clients, federation.LocalClient{Node: nodes[idx]})
		}
		fed, err := federation.NewLeader(cfg, nil, clients)
		if err != nil {
			t.Fatal(err)
		}
		lead, err := region.NewLeader(fmt.Sprintf("region-%d", r), fed, rosterIndex)
		if err != nil {
			t.Fatal(err)
		}
		leaders = append(leaders, lead)
	}
	return leaders
}

func serveRegions(t *testing.T, leaders []*region.Leader) []region.Service {
	t.Helper()
	remotes := make([]region.Service, 0, len(leaders))
	for _, lead := range leaders {
		srv, err := ServeRegion(lead, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(silent)
		t.Cleanup(func() { srv.Close() })
		rc, err := DialRegion(context.Background(), srv.Addr(), DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		if rc.ID() != lead.ID() {
			t.Fatalf("dialed region id %q, want %q", rc.ID(), lead.ID())
		}
		remotes = append(remotes, rc)
	}
	return remotes
}

// TestRegionRPCEquivalentToLocal runs the full region RPC surface over
// the wire and requires every response — info, rankings, training
// params, stats — to match the in-process leader bit for bit (the "v2"
// subtest name survives from when the retired JSON codec had a leg).
func TestRegionRPCEquivalentToLocal(t *testing.T) {
	rcfg := region.Config{Spec: ml.PaperLR(1), LocalEpochs: 2, Seed: 42}
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}
	q, err := query.New("remote-q", geometry.MustRect([]float64{1, -500}, []float64{60, 500}))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("v2", func(t *testing.T) {
		localLeaders := regionFleet(t)
		locals := make([]region.Service, len(localLeaders))
		for i, l := range localLeaders {
			locals[i] = l
		}
		remotes := serveRegions(t, regionFleet(t))

		localRouter, err := region.NewRouter(rcfg, locals)
		if err != nil {
			t.Fatal(err)
		}
		remoteRouter, err := region.NewRouter(rcfg, remotes)
		if err != nil {
			t.Fatal(err)
		}

		ctx := context.Background()
		want, _, err := localRouter.Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: federation.WeightedAveraging})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := remoteRouter.Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: federation.WeightedAveraging})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Participants) != len(got.Participants) {
			t.Fatalf("%d vs %d participants", len(want.Participants), len(got.Participants))
		}
		for i := range want.Participants {
			if want.Participants[i].NodeID != got.Participants[i].NodeID ||
				want.Participants[i].Rank != got.Participants[i].Rank {
				t.Fatalf("participant %d: %+v vs %+v", i, want.Participants[i], got.Participants[i])
			}
		}
		for i := range want.LocalParams {
			for j, v := range want.LocalParams[i].Values {
				if got.LocalParams[i].Values[j] != v {
					t.Fatalf("params %d value %d: %v vs %v (not bit-exact over the wire)",
						i, j, v, got.LocalParams[i].Values[j])
				}
			}
		}
		for _, x := range []float64{0, 15, 45, 61} {
			if a, b := want.Ensemble.Predict([]float64{x}), got.Ensemble.Predict([]float64{x}); a != b {
				t.Fatalf("ensemble(%v): %v vs %v", x, a, b)
			}
		}

		// The service surface itself: each RegionClient answer equals the
		// in-process leader's field by field, timing fields zeroed. The
		// Execute above drove both fleets through the same rounds, so
		// their nodes' RNG streams are still in step.
		for i, local := range locals {
			for _, queryDriven := range []bool{false, true} {
				preq := region.PlanRequest{Query: q, Epsilon: 0.05, QueryDriven: queryDriven}
				want, err := local.Plan(ctx, preq)
				if err != nil {
					t.Fatal(err)
				}
				got, err := remotes[i].Plan(ctx, preq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("region %d plan (query-driven %v):\nlocal:  %+v\nremote: %+v", i, queryDriven, want, got)
				}
			}
			info, err := local.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			treq := region.TrainRequest{
				QueryID: "remote-q", Spec: rcfg.Spec, LocalEpochs: 2,
				Participants: []selection.Participant{
					{NodeID: info.Nodes[0].NodeID, Rank: 0.75, Clusters: []int{0, 1}},
					{NodeID: info.Nodes[1].NodeID}, // whole local dataset
				},
				TraceID: 0xe1, SpanID: 0xe2,
			}
			want, err := local.Train(ctx, treq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := remotes[i].Train(ctx, treq)
			if err != nil {
				t.Fatal(err)
			}
			zeroRoundTiming(&want)
			zeroRoundTiming(&got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("region %d train:\nlocal:  %+v\nremote: %+v", i, want, got)
			}
			if len(got.Spans) != 1 || len(got.Results[0].Spans) == 0 {
				t.Fatalf("region %d train: traced round returned no spans: %+v", i, got)
			}
		}

		// Stats and fleet reports cross the wire intact.
		report, err := remoteRouter.Fleet(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Regions) != 2 {
			t.Fatalf("fleet report has %d regions, want 2", len(report.Regions))
		}
		for _, rep := range report.Regions {
			if rep.RegistryEpoch == 0 || len(rep.NodeIDs) != 2 || len(rep.Nodes) != 2 {
				t.Fatalf("region report %+v incomplete", rep)
			}
		}
	})
}

// zeroRoundTiming clears the wall-clock fields of a region round, which
// differ between any two runs of it.
func zeroRoundTiming(r *region.TrainResponse) {
	zero := func(spans []federation.NodeSpan) {
		for i := range spans {
			spans[i].StartUnixNS, spans[i].DurationNS = 0, 0
		}
	}
	for i := range r.Results {
		r.Results[i].TrainTime, r.Results[i].ElapsedNS = 0, 0
		zero(r.Results[i].Spans)
	}
	zero(r.Spans)
}

// jsonEraFrame hand-builds a v2 frame the way a peer predating binary
// region bodies would: the plan (body kind 0) or train (1) body as
// JSON text inside section tag 13 (request) or 14 (response).
func jsonEraFrame(frameKind byte, id uint64, typ string, tag, bodyKind byte, body string) []byte {
	e, hdr := beginWireFrame(nil, frameKind, id)
	if typ != "" {
		m := e.beginSection(secType)
		e.str(typ)
		e.endSection(m)
	}
	m := e.beginSection(tag)
	e.u8(bodyKind)
	e.b = append(e.b, body...)
	e.endSection(m)
	frame, _ := finishWireFrame(e.b, hdr) // a few hundred bytes, far below the cap
	return frame
}

// TestRegionJSONEraBodiesRefused: a peer still sending plan/train
// bodies as JSON under tags 13/14 gets the structured missing-body
// errors in both directions — never a misparse.
func TestRegionJSONEraBodiesRefused(t *testing.T) {
	const (
		planReq   = `{"query":{"id":"q","bounds":{"min":[0],"max":[60]}},"epsilon":0.05,"query_driven":true}`
		trainReq  = `{"query_id":"q","spec":{"Kind":"linear","InputDim":1},"participants":[{"NodeID":"node-0"}],"local_epochs":1}`
		planResp  = `{"region_id":"region-0","epoch":1,"ranks":[{"NodeID":"node-0","Rank":0.5}]}`
		trainResp = `{"region_id":"region-0","results":[{"node_id":"node-0"}],"epoch":1}`
	)
	t.Run("server", func(t *testing.T) {
		srv, err := ServeRegion(regionFleet(t)[0], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLogger(silent)
		t.Cleanup(func() { srv.Close() })
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(conn, request{Type: typePing, WireProto: WireProtoV2}); err != nil {
			t.Fatal(err)
		}
		var hello response
		if err := readFrame(conn, &hello); err != nil || hello.WireProto != WireProtoV2 {
			t.Fatalf("hello: %+v, %v", hello, err)
		}
		for i, tc := range []struct{ typ, body, want string }{
			{typeRegionPlan, planReq, "region plan request missing body"},
			{typeRegionTrain, trainReq, "region train request missing body"},
		} {
			if _, err := conn.Write(jsonEraFrame(frameRequest, uint64(i+1), tc.typ, 13, byte(i), tc.body)); err != nil {
				t.Fatal(err)
			}
			buf, err := readFrameBody(conn)
			if err != nil {
				t.Fatal(err)
			}
			id, resp, err := decodeWireResponse(*buf)
			putFrameBuf(buf)
			if err != nil {
				t.Fatal(err)
			}
			if id != uint64(i+1) || resp.Code != CodeBadRequest || resp.Error != tc.want {
				t.Fatalf("%s with a JSON body: id %d code %q error %q, want %q / %q",
					tc.typ, id, resp.Code, resp.Error, CodeBadRequest, tc.want)
			}
		}
	})
	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		t.Cleanup(func() { ln.Close(); <-done })
		go func() { // a region daemon that still answers in JSON
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var hello request
			if readFrame(conn, &hello) != nil ||
				writeFrame(conn, response{NodeID: "region-0", WireProto: WireProtoV2}) != nil {
				return
			}
			for {
				buf, err := readFrameBody(conn)
				if err != nil {
					return
				}
				var req request
				id, err := decodeWireRequest(*buf, &req)
				putFrameBuf(buf)
				if err != nil {
					return
				}
				kind, body := byte(0), planResp
				if req.Type == typeRegionTrain {
					kind, body = 1, trainResp
				}
				if _, err := conn.Write(jsonEraFrame(frameResponse, id, "", 14, kind, body)); err != nil {
					return
				}
			}
		}()
		c, err := Dial(ln.Addr().String(), DialOptions{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rc := &RegionClient{c: c}
		ctx := context.Background()
		q, err := query.New("q", geometry.MustRect([]float64{0}, []float64{60}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Plan(ctx, region.PlanRequest{Query: q, Epsilon: 0.05}); err == nil ||
			err.Error() != "transport: daemon returned no region plan" {
			t.Fatalf("plan against a JSON-era daemon: %v", err)
		}
		if _, err := rc.Train(ctx, region.TrainRequest{QueryID: "q",
			Participants: []selection.Participant{{NodeID: "node-0"}}}); err == nil ||
			err.Error() != "transport: daemon returned no region train response" {
			t.Fatalf("train against a JSON-era daemon: %v", err)
		}
	})
}

// TestDialRegionRejectsParticipantDaemon: pointing a root at a node
// daemon must fail at dial time with the unknown-type error, not on
// the first live query.
func TestDialRegionRejectsParticipantDaemon(t *testing.T) {
	srv, _ := startServer(t, 7, 2, 0, 50)
	_, err := DialRegion(context.Background(), srv.Addr(), DialOptions{Timeout: 10 * time.Second})
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("dial region against participant daemon: err %v, want ErrUnknownType", err)
	}
}

// TestRegionServerRejectsNodeRPCs: the inverse mismatch — a leader
// treating a region daemon as a participant — also fails loudly.
func TestRegionServerRejectsNodeRPCs(t *testing.T) {
	leaders := regionFleet(t)
	srv, err := ServeRegion(leaders[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogger(silent)
	t.Cleanup(func() { srv.Close() })
	if srv.NodeID() != leaders[0].ID() {
		t.Fatalf("region server id %q, want %q", srv.NodeID(), leaders[0].ID())
	}
	if srv.SummaryEpoch() != 0 || srv.TrainSlots() != 0 || srv.TrainInflight() != 0 {
		t.Fatal("region server leaked node-backed introspection values")
	}
	if err := srv.Requantize(); err == nil {
		t.Fatal("requantize on a region server should fail")
	}
	client, err := Dial(srv.Addr(), DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Summary(context.Background()); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("summary against region daemon: err %v, want ErrUnknownType", err)
	}
}
