// Package query models analytics queries and generates dynamic query
// workloads. A query (paper §III-C) is a hyper-rectangle over the
// joint data space — the range of data the application requests — plus
// an identifier; the experiment section issues 200 of them "randomly
// created over the whole data space based on the dynamic query
// workload method" of Savva et al. [18], which we reproduce as
// center+width sampling with controllable width distribution and
// drifting focus regions.
package query

import (
	"errors"
	"fmt"

	"qens/internal/geometry"
	"qens/internal/rng"
)

// Query is one analytics task: build a model over the data falling
// inside Bounds.
type Query struct {
	ID     string        `json:"id"`
	Bounds geometry.Rect `json:"bounds"`
}

// New constructs a validated query.
func New(id string, bounds geometry.Rect) (Query, error) {
	if id == "" {
		return Query{}, errors.New("query: empty id")
	}
	if err := bounds.Validate(); err != nil {
		return Query{}, fmt.Errorf("query %s: %w", id, err)
	}
	return Query{ID: id, Bounds: bounds}, nil
}

// Dims returns the dimensionality of the query space.
func (q Query) Dims() int { return q.Bounds.Dims() }

// WorkloadConfig controls the dynamic query workload generator.
type WorkloadConfig struct {
	// Space is the global data space the queries are drawn over
	// (typically the union of all node bounds).
	Space geometry.Rect
	// Count is the number of queries (the paper issues 200).
	Count int
	// MinWidthFraction and MaxWidthFraction bound each query's
	// per-dimension width as a fraction of the space width
	// (defaults 0.1 and 0.5). Narrow queries overlap few clusters,
	// wide queries overlap many — the paper notes both kinds occur.
	MinWidthFraction float64
	MaxWidthFraction float64
	// DriftPeriod, when positive, makes query centers orbit through
	// the space in phases instead of being drawn independently —
	// the "dynamic workload" of [18] where the query focus region
	// shifts over time. Each period the focus moves to a new
	// random region of the space.
	DriftPeriod int
	// FocusSpread is the standard deviation of query centers around
	// the current focus, as a fraction of the space width
	// (default 0.15; only used when DriftPeriod > 0).
	FocusSpread float64
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.MinWidthFraction == 0 {
		c.MinWidthFraction = 0.1
	}
	if c.MaxWidthFraction == 0 {
		c.MaxWidthFraction = 0.5
	}
	if c.FocusSpread == 0 {
		c.FocusSpread = 0.15
	}
	return c
}

// Validate checks the configuration.
func (c WorkloadConfig) Validate() error {
	c = c.withDefaults()
	if err := c.Space.Validate(); err != nil {
		return fmt.Errorf("query: workload space: %w", err)
	}
	if c.Space.Dims() == 0 {
		return errors.New("query: workload space has no dimensions")
	}
	if c.Count < 1 {
		return fmt.Errorf("query: workload count %d < 1", c.Count)
	}
	if c.MinWidthFraction <= 0 || c.MaxWidthFraction > 1 || c.MinWidthFraction > c.MaxWidthFraction {
		return fmt.Errorf("query: width fractions [%v,%v] invalid", c.MinWidthFraction, c.MaxWidthFraction)
	}
	if c.DriftPeriod < 0 {
		return fmt.Errorf("query: negative drift period %d", c.DriftPeriod)
	}
	return nil
}

// Workload generates a deterministic query stream.
func Workload(cfg WorkloadConfig, src *rng.Source) ([]Query, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dims := cfg.Space.Dims()
	queries := make([]Query, 0, cfg.Count)
	focus := cfg.Space.Center()
	for i := 0; i < cfg.Count; i++ {
		if cfg.DriftPeriod > 0 && i%cfg.DriftPeriod == 0 {
			// Move the workload focus to a new region.
			for d := 0; d < dims; d++ {
				focus[d] = src.Uniform(cfg.Space.Min[d], cfg.Space.Max[d])
			}
		}
		min := make([]float64, dims)
		max := make([]float64, dims)
		for d := 0; d < dims; d++ {
			span := cfg.Space.Width(d)
			width := span * src.Uniform(cfg.MinWidthFraction, cfg.MaxWidthFraction)
			var center float64
			if cfg.DriftPeriod > 0 {
				center = src.Normal(focus[d], cfg.FocusSpread*span)
			} else {
				center = src.Uniform(cfg.Space.Min[d], cfg.Space.Max[d])
			}
			min[d] = center - width/2
			max[d] = center + width/2
			// Clamp into the space while preserving the width when
			// possible.
			if min[d] < cfg.Space.Min[d] {
				max[d] += cfg.Space.Min[d] - min[d]
				min[d] = cfg.Space.Min[d]
			}
			if max[d] > cfg.Space.Max[d] {
				min[d] -= max[d] - cfg.Space.Max[d]
				max[d] = cfg.Space.Max[d]
				if min[d] < cfg.Space.Min[d] {
					min[d] = cfg.Space.Min[d]
				}
			}
		}
		rect, err := geometry.NewRect(min, max)
		if err != nil {
			return nil, fmt.Errorf("query: generated invalid rect: %w", err)
		}
		q, err := New(fmt.Sprintf("q-%03d", i), rect)
		if err != nil {
			return nil, err
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// GlobalSpace computes the union of all node bounding rectangles — the
// "whole data space" the paper draws queries from.
func GlobalSpace(bounds []geometry.Rect) (geometry.Rect, error) {
	if len(bounds) == 0 {
		return geometry.Rect{}, errors.New("query: no bounds")
	}
	space := bounds[0].Clone()
	for _, b := range bounds[1:] {
		if b.Dims() != space.Dims() {
			return geometry.Rect{}, fmt.Errorf("query: bound dims %d != %d", b.Dims(), space.Dims())
		}
		space = space.Union(b)
	}
	return space, nil
}
