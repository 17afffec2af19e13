package geometry

import (
	"cmp"
	"fmt"
	"slices"
)

// QueryCoverageFlat measures how much of the query rectangle
// [qmin,qmax] is covered by the union of a set of rectangles packed
// rect-major into mins/maxs (rect k occupies [k*d, (k+1)*d), the same
// layout registry.NodeGeom and OverlapRatesFlat use). The score is the
// mean over dimensions of the fraction of the query interval covered
// by the union of the rectangles' intervals along that dimension —
// overlapping rectangles are merged, never double-counted, so the
// result is always in [0,1].
//
// The model-answer cache uses this as its error predictor: a cached
// ensemble whose training rectangles blanket the query rectangle is
// expected to extrapolate little, so 1-coverage bounds the surprise.
// A per-dimension union is deliberately optimistic relative to the
// d-dimensional union volume (which is exponential to compute); the
// online residual estimate learned from probe rounds absorbs the gap.
//
// This is the reference form: it clamps every rectangle to the query
// and merges per call. A cache entry's rectangles never change, so the
// serving path merges them once into a CoverageProfile instead, which
// the tests hold bit-equal to this function.
//
// Degenerate query intervals (width 0) count as covered when any
// rectangle's interval contains the point. Panics if the slices
// disagree on dimensionality, mirroring OverlapRatesFlat.
func QueryCoverageFlat(qmin, qmax, mins, maxs []float64) float64 {
	d := len(qmin)
	if len(qmax) != d {
		panic(fmt.Sprintf("geometry: query min/max dims %d vs %d", d, len(qmax)))
	}
	if len(mins) != len(maxs) {
		panic(fmt.Sprintf("geometry: mins/maxs length %d vs %d", len(mins), len(maxs)))
	}
	if d == 0 || len(mins) == 0 {
		return 0
	}
	if len(mins)%d != 0 {
		panic(fmt.Sprintf("geometry: flat rects length %d not a multiple of dims %d", len(mins), d))
	}
	n := len(mins) / d

	// Scratch for one dimension's clamped intervals; n is the number
	// of training rectangles backing one cache entry (at most ℓ·K), so
	// it normally fits the stack buffer.
	var buf [32]span1d
	spans := buf[:0]
	if n > len(buf) {
		spans = make([]span1d, 0, n)
	}

	total := 0.0
	for dim := 0; dim < d; dim++ {
		qlo, qhi := qmin[dim], qmax[dim]
		spans = spans[:0]
		for k := 0; k < n; k++ {
			lo, hi := mins[k*d+dim], maxs[k*d+dim]
			if hi < qlo || lo > qhi {
				continue
			}
			if lo < qlo {
				lo = qlo
			}
			if hi > qhi {
				hi = qhi
			}
			spans = append(spans, span1d{lo, hi})
		}
		if qhi <= qlo {
			// Point (or inverted) query interval: covered iff any
			// rectangle interval touches it.
			if len(spans) > 0 {
				total += 1
			}
			continue
		}
		if len(spans) == 0 {
			continue
		}
		sortSpans(spans)
		covered := 0.0
		curLo, curHi := spans[0].lo, spans[0].hi
		for _, s := range spans[1:] {
			if s.lo <= curHi {
				if s.hi > curHi {
					curHi = s.hi
				}
				continue
			}
			covered += curHi - curLo
			curLo, curHi = s.lo, s.hi
		}
		covered += curHi - curLo
		total += clamp01(covered / (qhi - qlo))
	}
	return total / float64(d)
}

type span1d struct{ lo, hi float64 }

// sortSpans orders spans by lo. Unlike sort.Slice it builds no
// reflective swapper, so it allocates nothing.
func sortSpans(spans []span1d) {
	slices.SortFunc(spans, func(a, b span1d) int { return cmp.Compare(a.lo, b.lo) })
}

// CoverageProfile is QueryCoverageFlat precomputed for one fixed set of
// rectangles: per dimension, their intervals sorted and merged into
// disjoint ascending spans. Clamping to a query never joins two spans
// or splits one, so clamping the merged spans and summing them in order
// performs exactly the additions QueryCoverageFlat performs after its
// own clamp-sort-merge — the scores are bit-identical, without the
// per-call sort or scratch. Immutable once built.
type CoverageProfile struct {
	spans []span1d // every dimension's merged spans, dimension-major
	end   []int    // dimension d owns spans[end[d-1]:end[d]] (from 0 for d = 0)
	box   Rect
}

// NewCoverageProfile builds the profile of the rectangles packed
// rect-major into mins/maxs (QueryCoverageFlat's layout). It fails on
// what QueryCoverageFlat would panic on — a pack that is ragged or not
// a whole number of dims-wide rectangles — and on an empty or invalid
// (NaN, min > max) one.
func NewCoverageProfile(dims int, mins, maxs []float64) (*CoverageProfile, error) {
	if dims <= 0 || len(mins) == 0 || len(mins)%dims != 0 {
		return nil, fmt.Errorf("%w: %d flat bounds are not rectangles of %d dims", ErrInvalidRect, len(mins), dims)
	}
	if err := checkBounds(mins, maxs); err != nil {
		return nil, fmt.Errorf("flat rectangles: %w", err)
	}
	n := len(mins) / dims
	p := &CoverageProfile{
		spans: make([]span1d, 0, len(mins)),
		end:   make([]int, dims),
		box:   Rect{Min: make([]float64, dims), Max: make([]float64, dims)},
	}
	for dim := 0; dim < dims; dim++ {
		start := len(p.spans)
		for k := 0; k < n; k++ {
			p.spans = append(p.spans, span1d{mins[k*dims+dim], maxs[k*dims+dim]})
		}
		sortSpans(p.spans[start:])
		// Merge in place: cur is the last span kept.
		cur := start
		for _, s := range p.spans[start+1:] {
			if s.lo <= p.spans[cur].hi {
				if s.hi > p.spans[cur].hi {
					p.spans[cur].hi = s.hi
				}
				continue
			}
			cur++
			p.spans[cur] = s
		}
		p.spans = p.spans[:cur+1]
		p.end[dim] = len(p.spans)
		p.box.Min[dim], p.box.Max[dim] = p.spans[start].lo, p.spans[cur].hi
	}
	return p, nil
}

// Bounds returns the bounding box of the profiled rectangles. The
// caller must not modify it.
func (p *CoverageProfile) Bounds() Rect { return p.box }

// Coverage returns QueryCoverageFlat(qmin, qmax, mins, maxs) for the
// rectangles the profile was built from, for a valid query rectangle
// (qmin[i] <= qmax[i]) of the profile's dimensionality. It allocates
// nothing.
func (p *CoverageProfile) Coverage(qmin, qmax []float64) float64 {
	d := len(p.end)
	if len(qmin) != d || len(qmax) != d {
		panic(fmt.Sprintf("geometry: query dims %d/%d vs profile dims %d", len(qmin), len(qmax), d))
	}
	total := 0.0
	start := 0
	for dim, end := range p.end {
		qlo, qhi := qmin[dim], qmax[dim]
		covered, touched := 0.0, false
		for _, s := range p.spans[start:end] {
			if s.hi < qlo {
				continue
			}
			if s.lo > qhi {
				break
			}
			touched = true
			lo, hi := s.lo, s.hi
			if lo < qlo {
				lo = qlo
			}
			if hi > qhi {
				hi = qhi
			}
			covered += hi - lo
		}
		start = end
		switch {
		case !touched:
		case qhi <= qlo:
			total += 1
		default:
			total += clamp01(covered / (qhi - qlo))
		}
	}
	return total / float64(d)
}
