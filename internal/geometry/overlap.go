package geometry

import (
	"fmt"
	"math"
)

// OverlapCase identifies which of the paper's five per-dimension
// query/cluster configurations applies (§III-C, Figs. 3-4), plus the
// cluster-inside-query configuration the paper leaves implicit.
type OverlapCase int

const (
	// CaseQueryInside: both query bounds lie inside the cluster
	// bounds (Fig. 3a). h = (qmax-qmin)/(kmax-kmin).
	CaseQueryInside OverlapCase = iota
	// CaseMinInside: only the query minimum lies inside the cluster
	// (Fig. 3b). h = (kmax-qmin)/(qmax-kmin).
	CaseMinInside
	// CaseMaxInside: only the query maximum lies inside the cluster
	// (Fig. 3c). h = (qmax-kmin)/(kmax-qmin).
	CaseMaxInside
	// CaseZeroRight: the query lies entirely above the cluster
	// (Fig. 4a, qmin > kmax). h = 0.
	CaseZeroRight
	// CaseZeroLeft: the query lies entirely below the cluster
	// (Fig. 4b, qmax < kmin). h = 0.
	CaseZeroLeft
	// CaseClusterInside: the cluster lies entirely inside the query.
	// The paper's five cases do not name this configuration; every
	// cluster point is requested, so we take h = 1 (the whole
	// cluster supports the query). See DESIGN.md.
	CaseClusterInside
)

// String implements fmt.Stringer for diagnostics.
func (c OverlapCase) String() string {
	switch c {
	case CaseQueryInside:
		return "query-inside-cluster"
	case CaseMinInside:
		return "query-min-inside"
	case CaseMaxInside:
		return "query-max-inside"
	case CaseZeroRight:
		return "zero-overlap-right"
	case CaseZeroLeft:
		return "zero-overlap-left"
	case CaseClusterInside:
		return "cluster-inside-query"
	default:
		return fmt.Sprintf("OverlapCase(%d)", int(c))
	}
}

// IntervalOverlap classifies and scores the overlap between the query
// interval [qmin,qmax] and the cluster interval [kmin,kmax] along one
// dimension, following the paper exactly:
//
//	Fig. 3a  kmin < qmin && qmax < kmax   h = (qmax-qmin)/(kmax-kmin)
//	Fig. 3b  kmin <= qmin <= kmax <= qmax h = (kmax-qmin)/(qmax-kmin)
//	Fig. 3c  qmin <= kmin <= qmax <= kmax h = (qmax-kmin)/(kmax-qmin)
//	Fig. 4a  qmin > kmax                  h = 0
//	Fig. 4b  qmax < kmin                  h = 0
//
// plus the cluster-inside-query configuration scored h = 1. Degenerate
// intervals (zero width) are handled by treating a touching pair as
// fully overlapping (h = 1) and a disjoint pair as h = 0, and the
// result is always clamped to [0, 1] so that a ratio whose denominator
// is a wider span can never exceed full support.
func IntervalOverlap(qmin, qmax, kmin, kmax float64) (h float64, c OverlapCase) {
	switch {
	case qmin > kmax:
		return 0, CaseZeroRight
	case qmax < kmin:
		return 0, CaseZeroLeft
	case qmin >= kmin && qmax <= kmax:
		// Query inside cluster (Fig. 3a, with touching bounds folded in).
		h = safeRatio(qmax-qmin, kmax-kmin)
		return clamp01(h), CaseQueryInside
	case kmin >= qmin && kmax <= qmax:
		// Cluster inside query: every cluster point is requested.
		return 1, CaseClusterInside
	case qmin >= kmin: // then qmax > kmax: only the query min is inside.
		h = safeRatio(kmax-qmin, qmax-kmin)
		return clamp01(h), CaseMinInside
	default: // qmin < kmin && qmax <= kmax: only the query max is inside.
		h = safeRatio(qmax-kmin, kmax-qmin)
		return clamp01(h), CaseMaxInside
	}
}

// safeRatio returns num/den, treating a zero or negative denominator
// as full overlap of a degenerate interval.
func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// OverlapRate computes the paper's Eq. 2: the mean of the
// per-dimension overlap rates between query rectangle q and cluster
// rectangle k. It panics if dimensionalities differ (a programming
// error: all nodes share the feature schema by assumption, §III-B).
func OverlapRate(q, k Rect) float64 {
	if q.Dims() != k.Dims() {
		panic(fmt.Sprintf("geometry: query has %d dims, cluster has %d", q.Dims(), k.Dims()))
	}
	if q.Dims() == 0 {
		return 0
	}
	sum := 0.0
	for d := range q.Min {
		h, _ := IntervalOverlap(q.Min[d], q.Max[d], k.Min[d], k.Max[d])
		sum += h
	}
	return sum / float64(q.Dims())
}

// IoU returns the intersection-over-union of two rectangles by volume:
// 1 for identical rectangles, 0 for disjoint ones. Degenerate
// rectangles (zero volume) score 1 against themselves-by-containment
// and 0 otherwise. Used by the query-reuse cache to judge whether a
// cached model answers a new query.
func IoU(a, b Rect) float64 {
	iv, ok := intersectionVolume(a, b)
	if !ok {
		return 0
	}
	union := a.Volume() + b.Volume() - iv
	if union <= 0 {
		// Both degenerate: equal iff they intersect at all.
		return 1
	}
	return clamp01(iv / union)
}

// CoveredFraction returns |q ∩ k| / |k| by volume: the fraction of the
// cluster's region the query requests. It is used by the data
// selectivity accounting (Fig. 9) and differs from OverlapRate, which
// is the paper's per-dimension average ratio.
func CoveredFraction(q, k Rect) float64 {
	iv, ok := intersectionVolume(q, k)
	if !ok {
		return 0
	}
	kv := k.Volume()
	if kv <= 0 {
		// Degenerate cluster rectangle: it is covered iff it
		// intersects the query at all.
		return 1
	}
	return clamp01(iv / kv)
}

// intersectionVolume is the test reference a.Intersection(b) followed
// by Volume() without materializing the rectangle: the same max/min per
// dimension and the same left-to-right product, so the result is
// bit-identical.
func intersectionVolume(a, b Rect) (float64, bool) {
	if !a.Intersects(b) {
		return 0, false
	}
	v := 1.0
	for d := range a.Min {
		v *= math.Min(a.Max[d], b.Max[d]) - math.Max(a.Min[d], b.Min[d])
	}
	return v, true
}
