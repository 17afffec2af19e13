package federation

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"qens/internal/geometry"
	"qens/internal/query"
)

// Query-result reuse, following the knowledge-reuse idea of Long et
// al. (the paper's reference [5]): analytics workloads are bursty and
// self-similar, so a model trained for one query rectangle often
// answers the next. ReuseCache keeps recently built ensembles keyed by
// their query rectangles and serves two tiers:
//
//   - exact tier: a new query whose IoU with a cached rectangle
//     reaches MinIoU is served verbatim, skipping selection and
//     training entirely (the original behavior);
//   - approximate tier (opt-in, ApproxConfig): a query that misses
//     the exact tier is still served from a cached ensemble when the
//     predicted answer error clears a bound. The predictor combines
//     training-rectangle coverage (a geometry.CoverageProfile of
//     Result.TrainMins/TrainMaxs) with an online per-entry residual
//     learned from probe rounds — every ProbeEvery-th approx-servable
//     query trains for real anyway and scores the cached answer
//     against the fresh one, feeding the residual EWMA and evicting
//     entries whose residual outgrows the bound.
//
// Lookups are lock-free and allocation-free: readers load the immutable
// entry slice through an atomic pointer and scan it. Mutations serialize
// on a mutex and publish a fresh slice.

// ApproxConfig tunes the approximate answering tier. The zero value
// disables it, which keeps the cache's observable behavior bit-exact
// with the original exact-IoU-only implementation.
type ApproxConfig struct {
	// MaxPredictedError is the serve bound: a cached ensemble answers
	// a query only when (1 - coverage) + residual stays at or below
	// it. 0 disables the tier entirely.
	MaxPredictedError float64
	// MinCoverage floors the coverage term: entries whose training
	// rectangles cover less than this fraction of the query rectangle
	// are never considered, whatever their residual. Default 0.5.
	MinCoverage float64
	// ProbeEvery sends every Nth approx-servable query to federated
	// training anyway and scores the cached answer against the fresh
	// one (deterministic modulus, no RNG draw — seeded replays stay
	// bit-exact). Default 8; negative disables probing.
	ProbeEvery int
}

// Enabled reports whether the approximate tier is on.
func (c ApproxConfig) Enabled() bool { return c.MaxPredictedError > 0 }

func (c ApproxConfig) withDefaults() ApproxConfig {
	if c.MinCoverage == 0 {
		c.MinCoverage = 0.5
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 8
	}
	return c
}

func (c ApproxConfig) validate() error {
	if c.MaxPredictedError < 0 {
		return fmt.Errorf("federation: approx max predicted error %v < 0", c.MaxPredictedError)
	}
	if c.MinCoverage < 0 || c.MinCoverage > 1 {
		return fmt.Errorf("federation: approx min coverage %v outside [0,1]", c.MinCoverage)
	}
	return nil
}

// ServeKind says which path answered a query on the adaptive serving
// pipeline.
type ServeKind int

const (
	// ServeFresh: full federated training (cache miss).
	ServeFresh ServeKind = iota
	// ServeExact: exact-IoU reuse hit.
	ServeExact
	// ServeApprox: approximate model-answer — zero training RPCs.
	ServeApprox
	// ServeProbe: approx-servable, but trained anyway to score the
	// cached answer (the ground-truth feedback round).
	ServeProbe
)

// String implements fmt.Stringer for logs and stats.
func (k ServeKind) String() string {
	switch k {
	case ServeFresh:
		return "fresh"
	case ServeExact:
		return "exact"
	case ServeApprox:
		return "approx"
	case ServeProbe:
		return "probe"
	default:
		return fmt.Sprintf("ServeKind(%d)", int(k))
	}
}

// Reused reports whether the answer cost zero training RPCs.
func (k ServeKind) Reused() bool { return k == ServeExact || k == ServeApprox }

// cacheEntry wraps one cached result with its approx-tier bookkeeping.
// The residual is an EWMA of probe-measured relative divergence
// between the cached and freshly trained ensembles, stored as float64
// bits so probes and lookups never contend on a lock.
type cacheEntry struct {
	res *Result
	// stamps is the vector validity basis (nil under the scalar one,
	// where Result.Epoch alone fences the entry).
	stamps []EpochStamp
	// coverage is the approx tier's predictor over the result's
	// training rectangles, merged once at store time. Nil keeps the
	// entry exact-tier only.
	coverage *geometry.CoverageProfile

	residualBits atomic.Uint64
	probes       atomic.Int64
	served       atomic.Int64
}

func (e *cacheEntry) residual() float64 {
	return math.Float64frombits(e.residualBits.Load())
}

// residualAlpha is the EWMA step of the per-entry residual estimate.
const residualAlpha = 0.25

// observeResidual folds one probe measurement into the EWMA and
// returns the updated value.
func (e *cacheEntry) observeResidual(realized float64) float64 {
	for {
		old := e.residualBits.Load()
		cur := math.Float64frombits(old)
		var next float64
		if e.probes.Load() == 0 {
			next = realized
		} else {
			next = cur + residualAlpha*(realized-cur)
		}
		if e.residualBits.CompareAndSwap(old, math.Float64bits(next)) {
			e.probes.Add(1)
			return next
		}
	}
}

// ReuseCache is a bounded cache of query results, safe for concurrent
// use with lock-free lookups. Its counters are per cache and surface
// through CacheStats (/v1/stats' reuse_cache block).
type ReuseCache struct {
	minIoU float64
	cap    int
	approx ApproxConfig

	// entries is the published snapshot, in insertion order (oldest
	// first). The slice it points to is never modified.
	entries atomic.Pointer[[]*cacheEntry]

	mu sync.Mutex // serializes mutation; never held during lookups

	probeTick atomic.Uint64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64 // capacity + residual-driven removals
	pruned     atomic.Int64 // epoch-invalidation removals
	approxHits atomic.Int64
	probes     atomic.Int64
	fallbacks  atomic.Int64 // approx tier consulted, bound not met
}

// NewReuseCache builds a cache serving queries whose rectangle IoU
// with a cached query is at least minIoU (in (0, 1]; higher is
// stricter), holding at most capacity results. The approximate tier is
// off; see NewAdaptiveCache.
func NewReuseCache(minIoU float64, capacity int) (*ReuseCache, error) {
	return NewAdaptiveCache(minIoU, capacity, ApproxConfig{})
}

// NewAdaptiveCache is NewReuseCache plus the approximate answering
// tier configured by approx (zero value = disabled, bit-exact with
// NewReuseCache).
func NewAdaptiveCache(minIoU float64, capacity int, approx ApproxConfig) (*ReuseCache, error) {
	if minIoU <= 0 || minIoU > 1 {
		return nil, fmt.Errorf("federation: reuse IoU threshold %v outside (0,1]", minIoU)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("federation: reuse capacity %d < 1", capacity)
	}
	if err := approx.validate(); err != nil {
		return nil, err
	}
	if approx.Enabled() {
		approx = approx.withDefaults()
	}
	return &ReuseCache{minIoU: minIoU, cap: capacity, approx: approx}, nil
}

// EpochStamp pins a cached result to the epoch one of its sources (a
// region of the sharded topology) reported when the result was planned.
type EpochStamp struct {
	Source int
	Epoch  uint64
}

// Fence is a serving tier's validity basis for cached results. The
// zero Fence accepts every entry.
type Fence struct {
	// Epoch is the scalar basis, a single leader's registry ReuseEpoch:
	// results planned against another advertisement epoch are skipped.
	// Epoch-0 results (built outside the registry pipeline) match any
	// epoch; 0 disables the check.
	Epoch uint64
	// Current is the vector basis, the root router's per-region epochs:
	// a result stored with stamps is valid only while every stamped
	// source still reports the stamped epoch, so a shard that moved
	// kills exactly the entries that routed through it.
	Current func(source int) uint64
}

func (f Fence) valid(e *cacheEntry) bool {
	for _, s := range e.stamps {
		if f.Current == nil || f.Current(s.Source) != s.Epoch {
			return false
		}
	}
	return f.Epoch == 0 || e.res.Epoch == 0 || e.res.Epoch == f.Epoch
}

// reuseKey narrows a lookup to results of the same selection mechanism
// and aggregation. The zero key matches any entry.
type reuseKey struct {
	selector string
	agg      Aggregation
}

func (k reuseKey) matches(r *Result) bool {
	return k.selector == "" || (k.selector == r.Selector && k.agg == r.Aggregation)
}

// snapshot returns the published entries; callers only read them.
func (c *ReuseCache) snapshot() []*cacheEntry {
	if p := c.entries.Load(); p != nil {
		return *p
	}
	return nil
}

// lookup returns the best valid cached result under key whose query
// rectangle matches q at or above the IoU threshold.
func (c *ReuseCache) lookup(q query.Query, key reuseKey, f Fence) (*Result, bool) {
	var best *cacheEntry
	bestIoU := 0.0
	for _, e := range c.snapshot() {
		r := e.res
		if r.Query.Dims() != q.Dims() || !key.matches(r) || !f.valid(e) {
			continue
		}
		iou := geometry.IoU(q.Bounds, r.Query.Bounds)
		// Only a strictly better IoU displaces an earlier entry, so ties
		// go to the older one: the original first-match-wins scan order.
		if iou >= c.minIoU && (best == nil || iou > bestIoU) {
			best, bestIoU = e, iou
		}
	}
	if best == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return best.res, true
}

// lookupApprox finds the cached entry with the lowest predicted error
// for q, returning it only when the prediction clears the configured
// bound. It does not touch hit/miss accounting — callers record the
// outcome once they decide between serving and probing.
func (c *ReuseCache) lookupApprox(q query.Query, key reuseKey, f Fence) (*cacheEntry, bool) {
	if !c.approx.Enabled() {
		return nil, false
	}
	var best *cacheEntry
	bestPred := math.Inf(1)
	for _, e := range c.snapshot() {
		r := e.res
		if e.coverage == nil || r.TrainDims != q.Dims() {
			continue
		}
		// The query must touch the trained bounding box: coverage is a
		// per-dimension mean, so a rectangle disjoint in one dimension
		// could still score — but extrapolating an ensemble to a
		// subspace it never saw is exactly what the error predictor
		// cannot bound.
		if !e.coverage.Bounds().Intersects(q.Bounds) || !key.matches(r) || !f.valid(e) {
			continue
		}
		cov := e.coverage.Coverage(q.Bounds.Min, q.Bounds.Max)
		if cov < c.approx.MinCoverage {
			continue
		}
		// Strictly lower wins, so the older entry keeps a tie.
		if pred := (1 - cov) + e.residual(); best == nil || pred < bestPred {
			best, bestPred = e, pred
		}
	}
	if best == nil || bestPred > c.approx.MaxPredictedError {
		return nil, false
	}
	return best, true
}

// Answer serves q from the cache without any fleet interaction — Serve
// in cache-only mode, unkeyed, fenced by one scalar epoch.
func (c *ReuseCache) Answer(q query.Query, epoch uint64) (*Result, ServeKind, bool) {
	res, kind, err := Serve(Request{Query: q, Cache: c, CacheOnly: true}, Tier{Fence: Fence{Epoch: epoch}})
	return res, kind, err == nil
}

// store records a freshly built result, evicting at capacity. Entries
// the new result proves dead are pruned first: unstamped ones built
// against a strictly older summary epoch — their models were trained on
// cluster advertisements that have since been invalidated — and
// stamped ones with a source that moved. Eviction is FIFO when the
// approximate tier is off (the original contract); with the tier on,
// the entry with the worst probe-measured residual goes first (oldest
// wins residual ties, degrading to FIFO for unprobed entries).
func (c *ReuseCache) store(res *Result, stamps []EpochStamp, f Fence) {
	if res == nil || res.Ensemble == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.entriesLocked()
	kept := entries[:0]
	for _, e := range entries {
		dead := res.Epoch != 0 && e.res.Epoch != 0 && e.res.Epoch < res.Epoch
		if len(e.stamps) > 0 {
			dead = !f.valid(e)
		}
		if dead {
			c.pruned.Add(1)
			continue
		}
		kept = append(kept, e)
	}
	entries = kept
	if len(entries) >= c.cap {
		victim := 0
		if c.approx.Enabled() {
			for i, e := range entries[1:] {
				if e.residual() > entries[victim].residual() {
					victim = i + 1
				}
			}
		}
		entries = append(entries[:victim], entries[victim+1:]...)
		c.evictions.Add(1)
	}
	ent := &cacheEntry{res: res, stamps: stamps}
	if c.approx.Enabled() && res.TrainDims > 0 {
		// A pack the profile rejects (ragged, NaN, inverted) has no
		// predictor: the entry still serves exact-IoU matches.
		ent.coverage, _ = geometry.NewCoverageProfile(res.TrainDims, res.TrainMins, res.TrainMaxs)
	}
	entries = append(entries, ent)
	c.entries.Store(&entries)
}

// evict removes one entry (residual outgrew the bound). No-op if the
// entry is already gone.
func (c *ReuseCache) evict(target *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.entriesLocked()
	for i, e := range entries {
		if e == target {
			entries = append(entries[:i], entries[i+1:]...)
			c.evictions.Add(1)
			c.entries.Store(&entries)
			return
		}
	}
}

// entriesLocked returns a mutable copy of the published entry list.
// Snapshots are immutable, so mutation always works on a fresh slice.
func (c *ReuseCache) entriesLocked() []*cacheEntry {
	cur := c.snapshot()
	return append(make([]*cacheEntry, 0, len(cur)+1), cur...)
}

// probeDue deterministically marks every ProbeEvery-th approx-servable
// query as a ground-truth probe. No RNG involved: seeded replays see
// identical probe schedules.
func (c *ReuseCache) probeDue() bool {
	if c.approx.ProbeEvery <= 0 {
		return false
	}
	return c.probeTick.Add(1)%uint64(c.approx.ProbeEvery) == 0
}

// recordApproxHit books one approximate serve.
func (c *ReuseCache) recordApproxHit(e *cacheEntry) {
	e.served.Add(1)
	c.approxHits.Add(1)
}

// recordProbe folds one probe outcome into the entry's residual;
// entries whose residual alone breaches the serve bound are evicted —
// feedback-driven removal.
func (c *ReuseCache) recordProbe(e *cacheEntry, realized float64) {
	c.probes.Add(1)
	if e.observeResidual(realized) > c.approx.MaxPredictedError {
		c.evict(e)
	}
}

// recordFallback books one approx-tier miss (bound not met).
func (c *ReuseCache) recordFallback() {
	c.fallbacks.Add(1)
}

// Len returns the current number of cached results.
func (c *ReuseCache) Len() int { return len(c.snapshot()) }

// ReuseCacheStats is the full cache scorecard surfaced by /v1/stats.
type ReuseCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Pruned    int64 `json:"pruned"`
	Size      int   `json:"size"`

	ApproxEnabled     bool    `json:"approx_enabled"`
	MaxPredictedError float64 `json:"max_predicted_error,omitempty"`
	ApproxHits        int64   `json:"approx_hits"`
	Probes            int64   `json:"probes"`
	Fallbacks         int64   `json:"fallbacks"`
}

// CacheStats snapshots every counter the cache maintains.
func (c *ReuseCache) CacheStats() ReuseCacheStats {
	return ReuseCacheStats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		Pruned:            c.pruned.Load(),
		Size:              c.Len(),
		ApproxEnabled:     c.approx.Enabled(),
		MaxPredictedError: c.approx.MaxPredictedError,
		ApproxHits:        c.approxHits.Load(),
		Probes:            c.probes.Load(),
		Fallbacks:         c.fallbacks.Load(),
	}
}

// ensembleDivergence scores how differently two ensembles answer the
// query: the RMS gap between their predictions over a deterministic
// low-discrepancy sample of the query rectangle's feature subspace,
// normalized by the fresh ensemble's RMS magnitude. The feature
// subspace is the first inputDim dimensions of the rectangle — the
// dataset convention puts the target column last (see dataset.XY).
func ensembleDivergence(cached, fresh *Ensemble, q query.Query, inputDim int) float64 {
	if cached == nil || fresh == nil {
		return 1
	}
	d := q.Dims()
	fd := inputDim
	if fd <= 0 || fd > d {
		fd = d
	}
	const samples = 9
	var sumSq, refSq float64
	x := make([]float64, fd)
	for i := 0; i < samples; i++ {
		for j := 0; j < fd; j++ {
			// Kronecker sequence on irrational strides: deterministic,
			// well-spread, no RNG state touched.
			t := math.Mod(0.5+float64(i)*kroneckerAlpha(j), 1)
			x[j] = q.Bounds.Min[j] + t*(q.Bounds.Max[j]-q.Bounds.Min[j])
		}
		a := cached.Predict(x)
		b := fresh.Predict(x)
		sumSq += (a - b) * (a - b)
		refSq += b * b
	}
	div := math.Sqrt(sumSq/samples) / (math.Sqrt(refSq/samples) + 1e-9)
	if div > 1 {
		div = 1
	}
	return div
}

// kroneckerAlpha returns the per-dimension irrational stride for the
// probe sample sequence (square roots of successive primes).
func kroneckerAlpha(j int) float64 {
	primes := [...]float64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
	return math.Sqrt(primes[j%len(primes)])
}
