package transport

import (
	"context"
	"errors"
	"fmt"

	"qens/internal/region"
)

// RegionClient is the root coordinator's handle on a remote regional
// leader (a ServeRegion daemon): a Client speaking the region.* RPC
// family as a region.Service, so the root Router drives remote regions
// exactly like in-process ones. The calls ride the same multiplexed
// connection as the node family, so a root fanning one query out to N
// regions overlaps their plan and train rounds on one socket each.
type RegionClient struct{ c *Client }

var _ region.Service = (*RegionClient)(nil)

// DialRegion connects to a regional-leader daemon and verifies it
// actually speaks the region RPC family (a participant daemon answers
// the first ping fine but rejects region.info — caught here, at dial
// time, instead of on the first query).
func DialRegion(ctx context.Context, addr string, opts DialOptions) (*RegionClient, error) {
	c, err := DialContext(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	rc := &RegionClient{c: c}
	if _, err := rc.Info(ctx); err != nil {
		c.Close()
		if errors.Is(err, ErrUnknownType) {
			return nil, fmt.Errorf("transport: dial region %s: daemon %s is not a regional leader: %w",
				addr, c.ID(), err)
		}
		return nil, fmt.Errorf("transport: dial region %s: %w", addr, err)
	}
	return rc, nil
}

// Client exposes the underlying transport client (byte accounting).
func (r *RegionClient) Client() *Client { return r.c }

// Close tears down the connection.
func (r *RegionClient) Close() error { return r.c.Close() }

// ID implements region.Service with the region id the connection's
// first ping learned.
func (r *RegionClient) ID() string { return r.c.ID() }

// Info implements region.Service: the region's membership and covering
// rectangle.
func (r *RegionClient) Info(ctx context.Context) (region.Info, error) {
	resp, err := r.c.roundTrip(ctx, request{Type: typeRegionInfo})
	if err != nil {
		return region.Info{}, err
	}
	if resp.RegionInfo == nil {
		return region.Info{}, errors.New("transport: daemon returned no region info")
	}
	return *resp.RegionInfo, nil
}

// Plan implements region.Service: the region ranks its shard for one
// query.
func (r *RegionClient) Plan(ctx context.Context, req region.PlanRequest) (region.PlanResponse, error) {
	resp, err := r.c.roundTrip(ctx, request{Type: typeRegionPlan, RegionPlan: &req})
	if err != nil {
		return region.PlanResponse{}, err
	}
	if resp.RegionPlan == nil {
		return region.PlanResponse{}, errors.New("transport: daemon returned no region plan")
	}
	return *resp.RegionPlan, nil
}

// Train implements region.Service: one training round over shard
// members. The body's trace/span ids are lifted into the envelope so
// the daemon's RPC log attributes the round to the originating root
// query.
func (r *RegionClient) Train(ctx context.Context, req region.TrainRequest) (region.TrainResponse, error) {
	resp, err := r.c.roundTrip(ctx, request{
		Type: typeRegionTrain, TraceID: req.TraceID, SpanID: req.SpanID, RegionTrain: &req})
	if err != nil {
		return region.TrainResponse{}, err
	}
	if resp.RegionTrain == nil {
		return region.TrainResponse{}, errors.New("transport: daemon returned no region train response")
	}
	return *resp.RegionTrain, nil
}

// Stats implements region.Service: the region's registry and
// fleet-health report.
func (r *RegionClient) Stats(ctx context.Context) (region.Stats, error) {
	resp, err := r.c.roundTrip(ctx, request{Type: typeRegionStats})
	if err != nil {
		return region.Stats{}, err
	}
	if resp.RegionStats == nil {
		return region.Stats{}, errors.New("transport: daemon returned no region stats")
	}
	return *resp.RegionStats, nil
}
