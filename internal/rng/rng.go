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
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// src is the generator r wraps; PermInto draws from it directly.
	src rand.Source64
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
		s.src = rand.NewSource(int64(splitMix64(s.seed))).(rand.Source64)
		s.r = rand.New(s.src)
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
	return s.PermInto(make([]int, n))
}

// PermInto writes a random permutation of [0, len(buf)) into buf and
// returns it, allocation-free once any stream has shuffled a buffer
// this long (see multipliers). It is math/rand's Perm, an inside-out Fisher–Yates that
// draws Intn(i+1) for element i, and yields the same permutation and
// leaves the same stream state; it just reaches Intn's result without
// a division.
//
// For a bound n < 2³¹, Intn(n) is Int31n(n): it draws v = Int63()>>32
// until v ≤ 2³¹−1−2³¹%n, then returns v%n. PermInto draws v from the
// generator directly and takes v%n with Lemire's fastmod (reduce31),
// which is exact for 32-bit operands; the acceptance test needs no
// second remainder, because v ≤ 2³¹−1−2³¹%n holds exactly when the
// multiple of n at or below v, v−v%n, is at most 2³¹−n (the one
// multiple of n in (2³¹−n, 2³¹) is 2³¹−2³¹%n, when that remainder is
// nonzero). A power-of-two n, where Int31n masks instead, gets the
// same value from both: v%n is the mask and no v is rejected.
func (s *Source) PermInto(buf []int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.gen()
	if len(buf) > math.MaxInt32 {
		// Intn draws Int63n past 2³¹−1; stay on math/rand's path.
		for i := range buf {
			j := r.Intn(i + 1)
			buf[i] = buf[j]
			buf[j] = i
		}
		return buf
	}
	mul, src := multipliers(len(buf)), s.src
	for i := range buf {
		n := uint32(i + 1)
		var j uint32
		for ok := false; !ok; {
			j, ok = reduce31(uint32(src.Int63()>>32), n, mul[n])
		}
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// fastmod holds Lemire's remainder multipliers, fastmodMul(d) at
// index d ≥ 1. They depend on d alone, so every Source shares one
// table (a model pool's streams would otherwise each hold a copy) and
// Reseed keeps it. It only grows, copy-on-write under fastmodMu, so
// PermInto reads it with one atomic load.
var (
	fastmodMu sync.Mutex
	fastmod   atomic.Pointer[[]uint64]
)

// multipliers returns the multiplier table covering every d in [1, n],
// growing it (doubling, at least to n+1 entries) on demand.
func multipliers(n int) []uint64 {
	if t := fastmod.Load(); t != nil && len(*t) > n {
		return *t
	}
	fastmodMu.Lock()
	defer fastmodMu.Unlock()
	var old []uint64
	if t := fastmod.Load(); t != nil {
		if len(*t) > n {
			return *t
		}
		old = *t
	}
	m := make([]uint64, max(n+1, 2*len(old)))
	copy(m, old)
	for d := max(1, len(old)); d < len(m); d++ {
		m[d] = fastmodMul(uint32(d))
	}
	fastmod.Store(&m)
	return m
}

// fastmodMul is ⌈2⁶⁴/d⌉ modulo 2⁶⁴ for d ≥ 1: ⌊(2⁶⁴−1)/d⌋+1 is that
// ceiling for every such d, and it wraps to 0 at d = 1, where 0 is
// also the multiplier reduce31 needs.
func fastmodMul(d uint32) uint64 { return ^uint64(0)/uint64(d) + 1 }

// reduce31 is Int31n's step for one 31-bit draw v and a bound
// 1 ≤ n < 2³¹ with multiplier mul = ⌈2⁶⁴/n⌉: it returns v%n and
// whether Int31n accepts v (see PermInto). The remainder is the high
// word of (mul·v mod 2⁶⁴)·n, Lemire, Kaser and Kurz's direct
// remainder, exact for numerators and divisors below 2³².
func reduce31(v, n uint32, mul uint64) (uint32, bool) {
	rem, _ := bits.Mul64(mul*uint64(v), uint64(n))
	return uint32(rem), v-uint32(rem) <= 1<<31-n
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
