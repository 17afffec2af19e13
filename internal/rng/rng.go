// Package rng provides deterministic, splittable pseudo-random number
// streams used throughout the repository.
//
// Every experiment, dataset generator and stochastic algorithm in this
// reproduction takes an explicit *rng.Source so that a run is fully
// determined by its seed. Streams can be split hierarchically
// (dataset -> node -> feature), which keeps results stable when one
// component draws a different number of variates than before.
//
// Seeding is lazy: New and Split only record the seed, and the
// math/rand state (a ~4.9 KB table) is built on the first draw, so a
// stream that is split but never drawn from costs one small struct.
// Reseed re-seeds a stream in place, reusing that state — the model
// pool's per-job reset (ml.Model.Reinit) goes through it. Neither
// changes a single variate: a stream yields exactly the sequence an
// eagerly seeded New(seed) would.
package rng

import (
	"math"
	"math/rand"
	"sync"
)

// Source is a deterministic random stream. It wraps math/rand with a
// fixed 64-bit state seeded via SplitMix64 so that derived streams are
// decorrelated even for adjacent seeds.
//
// A Source is safe for concurrent use: every draw and split takes a
// short internal mutex. Sequential programs observe exactly the same
// variate sequence as before the lock existed; concurrent callers
// interleave draws nondeterministically but never race. This is what
// lets one leader serve parallel queries (internal/gateway) over the
// same seeded stream without a data race.
type Source struct {
	mu sync.Mutex
	r  *rand.Rand // nil until the first draw (see gen)
	// seed is the original seed, retained so the stream can be split.
	seed uint64
	// splits counts how many child streams have been derived.
	splits uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// Reseed resets s in place to the state New(seed) would return: the
// same draws follow and the same children split off. The generator
// state is reused rather than reallocated. It must not race with
// other uses of s that expect the old stream.
func (s *Source) Reseed(seed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed, s.splits = seed, 0
	if s.r != nil {
		s.r.Seed(int64(splitMix64(seed)))
	}
}

// gen returns the generator, seeding it on first use. Callers hold mu.
func (s *Source) gen() *rand.Rand {
	if s.r == nil {
		s.r = rand.New(rand.NewSource(int64(splitMix64(s.seed))))
	}
	return s.r
}

// splitMix64 is the finalizer of the SplitMix64 generator; it is used
// to decorrelate nearby seeds before handing them to math/rand.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives an independent child stream. Children derived from the
// same parent in the same order are identical across runs.
func (s *Source) Split() *Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.splits++
	child := splitMix64(s.seed ^ splitMix64(s.splits*0x2545f4914f6cdd1d+1))
	return New(child)
}

// SplitN derives n independent child streams.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen().Float64()
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen().Intn(n)
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen().Int63()
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mean + stddev*s.gen().NormFloat64()
}

// Exponential returns an exponential variate with the given rate
// parameter lambda (> 0).
func (s *Source) Exponential(lambda float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen().ExpFloat64() / lambda
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen().Perm(n)
}

// PermInto writes a random permutation of [0, len(buf)) into buf and
// returns it, drawing exactly the same variates as Perm(len(buf)) —
// a caller that switches between the two observes identical
// permutations and leaves the stream in an identical state. This is
// the allocation-free variant used by the training hot path
// (internal/ml flat-batch epochs).
func (s *Source) PermInto(buf []int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Mirror math/rand's Perm: an inside-out Fisher–Yates that calls
	// Intn(i+1) once per element.
	r := s.gen()
	for i := range buf {
		j := r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Choice returns a uniformly chosen index weighted by weights, which
// must be non-negative and not all zero; it falls back to uniform
// choice if they are.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 || math.IsNaN(total) {
		return s.Intn(len(weights))
	}
	t := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if t < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n). It panics if k > n.
func (s *Source) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: sample size exceeds population")
	}
	perm := s.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}
