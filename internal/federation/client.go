package federation

import (
	"context"

	"qens/internal/cluster"
)

// Client is the leader's view of a participant node. The in-process
// implementation below wraps *Node directly; internal/transport
// provides a TCP-backed implementation with the same semantics, so the
// leader's orchestration is agnostic to where participants run.
//
// Every method takes a context.Context carrying the originating
// query's deadline and cancellation: the serving path
// (internal/gateway) threads a per-request context from the HTTP
// handler through Leader.Execute down to the wire, so an
// expired query stops consuming node compute as early as possible.
// Implementations must return promptly with ctx.Err() (or an error
// wrapping it) once the context is done.
type Client interface {
	// ID returns the participant's node id.
	ID() string
	// SummaryIfChanged is the epoch-conditional advertisement probe
	// every registry refresh makes: unchanged=true (no summary body)
	// when the node's advertisement still carries epoch known, the one
	// the leader already holds; known=0 always fetches the summary.
	SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error)
	// SubscribeSummaries inverts the freshness flow: the node pushes
	// its fresh advertisement whenever its epoch bumps (ingest drift,
	// requantization). It returns ok=false (nil error) when the peer
	// cannot push, which leaves the node to the registry's
	// anti-entropy pull. Handlers may be invoked from the participant's
	// own goroutines and must hand off quickly.
	SubscribeSummaries(ctx context.Context, handler func(cluster.NodeSummary)) (bool, error)
	// Train runs a local training round.
	Train(ctx context.Context, req TrainRequest) (TrainResponse, error)
}

// LocalClient adapts an in-process Node to the Client interface.
type LocalClient struct {
	Node *Node
}

// ID implements Client.
func (c LocalClient) ID() string { return c.Node.ID() }

// SummaryIfChanged implements Client. The epoch check and the
// summary read race benignly with a concurrent requantize: a stale
// "unchanged" answer is impossible because the node bumps its epoch
// before publishing the new summary, so at worst the probe returns the
// fresh summary for an epoch that was current a moment ago.
func (c LocalClient) SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error) {
	if err := ctx.Err(); err != nil {
		return cluster.NodeSummary{}, false, err
	}
	if known != 0 && known == c.Node.SummaryEpoch() {
		return cluster.NodeSummary{}, true, nil
	}
	return c.Node.Summary(), false, nil
}

// SubscribeSummaries implements Client for an in-process node: the
// handler hangs off the node engine's epoch-bump watcher list, so every
// material advertisement change (incremental ingest or full
// requantize) is delivered push-style, exactly like a remote daemon's
// push frame.
func (c LocalClient) SubscribeSummaries(ctx context.Context, handler func(cluster.NodeSummary)) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	c.Node.OnAdvertise(handler)
	return true, nil
}

// Train implements Client. Training is CPU-bound and in-process, so
// cancellation is checked between supporting clusters rather than
// mid-epoch (see Node.TrainContext).
func (c LocalClient) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	return c.Node.TrainContext(ctx, req)
}
