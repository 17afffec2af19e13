package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"qens/internal/cluster"
)

// Push subscription state hangs off the Leader but lives in its own
// file: it is the node-push half of summary freshness
// (registry.ApplyPush is the other half). StartPush walks the roster
// and subscribes every participant; from then on material
// advertisement changes arrive push-style and the registry's
// conditional pull is anti-entropy. StopPush gates delivery off again
// (gateway Drain) — late frames from participants are dropped at the
// leader, not applied mid-teardown.
//
// Delivery is two-stage: subscription handlers run on the transport
// connection's reader goroutine (or an in-process node's mutating
// goroutine) and must hand off quickly, so handlePush only coalesces
// the summary into a per-node queue; a dedicated applier goroutine —
// started by StartPush, stopped by StopPush — drains the queue through
// the registry's fenced ApplyPush. That keeps a push from ever
// blocking a reader on the registry's refresh lock: an in-flight
// refresh awaiting a summary RPC on the same connection would
// otherwise deadlock with the reader wedged in the handler.
type leaderPush struct {
	mu         sync.Mutex // guards the subscribe walk and applier lifecycle
	active     atomic.Bool
	subscribed int

	// queue coalesces pushed advertisements per node between applier
	// wakeups — newest epoch wins, so the queue is bounded by roster
	// size no matter how fast a node pushes. wake (cap 1) is the
	// applier's doorbell.
	queueMu sync.Mutex
	queue   map[string]cluster.NodeSummary
	wake    chan struct{}

	stop chan struct{} // applier lifetime, recreated per StartPush
	done chan struct{}
}

// StartPush subscribes the leader to summary pushes from every
// participant, feeding each pushed advertisement through the
// registry's fenced ApplyPush path. It returns how many participants
// accepted a subscription; a participant that declines (a peer that
// cannot push) keeps being pulled. Subscription errors are joined but
// do not stop the walk — a partly-push fleet is still strictly fresher
// than a pull-only one. Idempotent: a second call re-arms subscriptions
// (client implementations tolerate duplicate subscribes). Callers must
// pair it with StopPush (gateway Drain/Close does) or the applier
// goroutine outlives the leader's serving phase.
func (l *Leader) StartPush(ctx context.Context) (int, error) {
	l.push.mu.Lock()
	defer l.push.mu.Unlock()
	l.push.queueMu.Lock()
	l.push.queue = make(map[string]cluster.NodeSummary, len(l.clients))
	if l.push.wake == nil {
		l.push.wake = make(chan struct{}, 1)
	}
	l.push.queueMu.Unlock()
	if l.push.stop == nil {
		l.push.stop = make(chan struct{})
		l.push.done = make(chan struct{})
		go l.runPushApplier(l.push.stop, l.push.done)
	}
	l.push.active.Store(true)
	var errs []error
	n := 0
	for _, c := range l.clients {
		accepted, err := c.SubscribeSummaries(ctx, l.handlePush)
		if err != nil {
			errs = append(errs, fmt.Errorf("federation: subscribe %s: %w", c.ID(), err))
			continue
		}
		if accepted {
			n++
		}
	}
	l.push.subscribed = n
	return n, errors.Join(errs...)
}

// StopPush gates push delivery off and stops the applier goroutine,
// waiting for any in-progress apply to finish: frames still in flight
// are dropped at the leader instead of mutating the registry during
// drain. Subscriptions on the wire are left to die with their
// connections. Idempotent.
func (l *Leader) StopPush() {
	l.push.mu.Lock()
	defer l.push.mu.Unlock()
	l.push.active.Store(false)
	if l.push.stop != nil {
		close(l.push.stop)
		<-l.push.done
		l.push.stop, l.push.done = nil, nil
	}
	l.push.queueMu.Lock()
	l.push.queue = nil
	l.push.queueMu.Unlock()
}

// PushSubscribed reports how many participants accepted a summary
// push subscription on the last StartPush.
func (l *Leader) PushSubscribed() int {
	l.push.mu.Lock()
	defer l.push.mu.Unlock()
	return l.push.subscribed
}

// handlePush is the shared subscription handler. It runs on the
// pushing connection's reader goroutine, so it must never block on
// registry state: it coalesces the advertisement into the per-node
// queue (newest epoch wins) and rings the applier's doorbell. The
// applier's ApplyPush fences stale or duplicate pushes and swallows
// validation failures — a malformed push must not take down the
// participant's delivery path, and the anti-entropy pull re-validates
// the node on its next pass.
func (l *Leader) handlePush(sum cluster.NodeSummary) {
	if !l.push.active.Load() {
		return
	}
	l.push.queueMu.Lock()
	if l.push.queue == nil {
		l.push.queueMu.Unlock()
		return
	}
	if cur, ok := l.push.queue[sum.NodeID]; !ok || sum.Epoch >= cur.Epoch {
		l.push.queue[sum.NodeID] = sum
	}
	wake := l.push.wake
	l.push.queueMu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

// runPushApplier is the dedicated push-ingestion goroutine: it drains
// the coalesced queue through the registry's ApplyPush until StopPush
// fires. Applying off the delivery goroutines means a push can wait on
// the registry's refresh lock without wedging any connection reader.
func (l *Leader) runPushApplier(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-l.push.wake:
		}
		for {
			l.push.queueMu.Lock()
			batch := l.push.queue
			if len(batch) == 0 {
				l.push.queueMu.Unlock()
				break
			}
			l.push.queue = make(map[string]cluster.NodeSummary, len(batch))
			l.push.queueMu.Unlock()
			for _, sum := range batch {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = l.reg.ApplyPush(sum)
			}
		}
	}
}
