package rng

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agreed on %d/100 draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	mk := func() []float64 {
		s := New(7)
		c1, c2 := s.Split(), s.Split()
		return []float64{c1.Float64(), c2.Float64(), c1.Float64(), c2.Float64()}
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split streams not reproducible at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(9)
	c1, c2 := s.Split(), s.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling split streams agreed on %d/100 draws", same)
	}
}

func TestSplitN(t *testing.T) {
	s := New(11)
	kids := s.SplitN(5)
	if len(kids) != 5 {
		t.Fatalf("SplitN returned %d streams", len(kids))
	}
	seen := map[float64]bool{}
	for _, k := range kids {
		v := k.Float64()
		if seen[v] {
			t.Fatalf("duplicate first draw %v across split streams", v)
		}
		seen[v] = true
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) returned %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(4)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("sample mean %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("sample variance %v, want ~4", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(5)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(2)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.05 {
		t.Errorf("exponential(2) mean %v, want ~0.5", mean)
	}
}

func TestChoiceWeighted(t *testing.T) {
	s := New(6)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[s.Choice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("weighted choice counts not ordered: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("weight-7 option drawn %.3f of the time, want ~0.7", frac)
	}
}

func TestChoiceDegenerateWeights(t *testing.T) {
	s := New(8)
	for _, weights := range [][]float64{{0, 0, 0}, {-1, -2, -3}} {
		counts := make([]int, 3)
		for i := 0; i < 3000; i++ {
			idx := s.Choice(weights)
			if idx < 0 || idx >= 3 {
				t.Fatalf("Choice out of range: %d", idx)
			}
			counts[idx]++
		}
		for i, c := range counts {
			if c == 0 {
				t.Errorf("degenerate weights %v: option %d never drawn", weights, i)
			}
		}
	}
}

func TestChoiceIgnoresNegative(t *testing.T) {
	s := New(12)
	for i := 0; i < 1000; i++ {
		if idx := s.Choice([]float64{-5, 1, 0}); idx != 1 {
			t.Fatalf("Choice with single positive weight returned %d", idx)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	s := New(10)
	got := s.SampleWithoutReplacement(10, 4)
	if len(got) != 4 {
		t.Fatalf("got %d samples, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	hits := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / 10000; math.Abs(frac-0.25) > 0.02 {
		t.Errorf("Bool(0.25) hit rate %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(14)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestConcurrentDraws exercises every draw kind plus Split from many
// goroutines; under -race this verifies the Source's internal locking
// (the gateway serves parallel queries over one seeded stream).
func TestConcurrentDraws(t *testing.T) {
	s := New(99)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Float64()
				_ = s.Intn(10)
				_ = s.Int63()
				_ = s.Normal(0, 1)
				_ = s.Perm(4)
				_ = s.Bool(0.5)
				_ = s.Split().Float64()
				_ = s.Choice([]float64{1, 2, 3})
			}
		}()
	}
	wg.Wait()
}

// TestDeterminismWithLocking pins the sequential draw sequence: adding
// the internal mutex must not change what a single-threaded caller
// observes for a given seed.
func TestDeterminismWithLocking(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() || a.Int63() != b.Int63() {
			t.Fatal("same-seed sources diverged")
		}
	}
	if a.Split().Int63() != b.Split().Int63() {
		t.Fatal("split children diverged")
	}
}

// TestPermIntoMatchesPerm verifies the allocation-free permutation is
// draw-for-draw identical to Perm — the property the flat training
// path's bit-exactness rests on — and leaves the stream in the same
// state.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 33, 256} {
		a, b := New(11), New(11)
		want := a.Perm(n)
		buf := make([]int, n)
		got := b.PermInto(buf)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d] = %d, Perm = %d", n, i, got[i], want[i])
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: stream state diverged after permutation", n)
		}
	}
}

// TestPermIntoZeroAlloc pins the allocation-free contract.
func TestPermIntoZeroAlloc(t *testing.T) {
	src := New(3)
	buf := make([]int, 128)
	allocs := testing.AllocsPerRun(100, func() { src.PermInto(buf) })
	if allocs != 0 {
		t.Fatalf("PermInto allocates %v per run", allocs)
	}
}

// TestReduce31MatchesInt31n checks PermInto's division-free step
// against math/rand's Int31n formula on the draws where the two could
// part: the largest accepted draw, the smallest rejected one, 0 and
// 2³¹−1, for bounds at and around every power of two and at 2³¹−1.
// Rejection has probability about n/2³¹, so the Perm lengths a shuffle
// reaches would almost never exercise it.
func TestReduce31MatchesInt31n(t *testing.T) {
	bounds := []uint32{3, math.MaxInt32}
	for k := 1; k <= 31; k++ {
		p := uint32(1) << k
		bounds = append(bounds, p-1)
		if k < 31 {
			bounds = append(bounds, p, p+1)
		}
	}
	for _, n := range bounds {
		// Int31n: a power of two masks; otherwise draws above max are
		// rejected and an accepted draw is reduced with %.
		max := uint32(math.MaxInt32)
		if n&(n-1) != 0 {
			max = uint32((1<<31)-1) - uint32(1<<31)%n
		}
		m := fastmodMul(n)
		for _, v := range []uint32{0, max, max + 1, math.MaxInt32} {
			if v > math.MaxInt32 {
				continue // not a 31-bit draw
			}
			want, wantOK := v%n, v <= max
			if n&(n-1) == 0 {
				want = v & (n - 1)
			}
			got, ok := reduce31(v, n, m)
			if got != want || ok != wantOK {
				t.Fatalf("reduce31(%d, %d) = %d, %v; Int31n gives %d, %v", v, n, got, ok, want, wantOK)
			}
		}
	}
}

// FuzzPermInto checks PermInto against math/rand's Perm over the same
// seeded generator: the same permutation, twice in a row (the second
// one shorter, so the multiplier table is reused), and the same next
// Int63 after them.
func FuzzPermInto(f *testing.F) {
	for _, c := range []struct {
		seed uint64
		n    uint16
	}{{0, 0}, {1, 1}, {42, 33}, {7, 1000}, {1 << 63, 4096}} {
		f.Add(c.seed, c.n)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		size := int(n) % 4097
		s := New(seed)
		ref := rand.New(rand.NewSource(int64(splitMix64(seed))))
		for _, l := range []int{size, size / 2} {
			want := ref.Perm(l)
			got := s.PermInto(make([]int, l))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, n %d: PermInto[%d] = %d, Perm %d", seed, l, i, got[i], want[i])
				}
			}
		}
		if a, b := s.Int63(), ref.Int63(); a != b {
			t.Fatalf("seed %d, n %d: next Int63 %d after PermInto, %d after Perm", seed, size, a, b)
		}
	})
}

// trace draws from every method in a fixed order and returns what it
// saw, so two sources can be compared variate for variate.
func trace(s *Source) []float64 {
	var out []float64
	for i := 0; i < 5; i++ {
		out = append(out, s.Float64(), float64(s.Intn(97)), float64(s.Int63()),
			s.Normal(1, 2), s.Exponential(3))
	}
	for _, v := range s.Perm(9) {
		out = append(out, float64(v))
	}
	for _, v := range s.PermInto(make([]int, 7)) {
		out = append(out, float64(v))
	}
	for _, child := range s.SplitN(2) {
		out = append(out, child.Float64(), float64(child.Int63()))
	}
	return append(out, s.Float64())
}

// TestReseedMatchesNew pins Reseed: a source reseeded after arbitrary
// draws and splits continues exactly as a fresh New with that seed,
// from every method and through its Split children.
func TestReseedMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		s := New(seed + 5)
		trace(s)
		s.Split()
		s.Reseed(seed)
		got, want := trace(s), trace(New(seed))
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d variates vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: variate %d = %v after Reseed, %v from New", seed, i, got[i], want[i])
			}
		}
		// Reseeding a source that never drew is the same as New too.
		fresh := New(seed + 9)
		fresh.Reseed(seed)
		if a, b := fresh.Float64(), New(seed).Float64(); a != b {
			t.Fatalf("seed %d: never-drawn Reseed gives %v, New %v", seed, a, b)
		}
	}
}

// TestLazySeedingKeepsStream pins that deferring the generator's
// seeding to the first draw changed no variate: the literals are what
// the eagerly seeded Source produced, and a source that has never
// drawn splits exactly as one that has.
func TestLazySeedingKeepsStream(t *testing.T) {
	a := New(42)
	if f, n, c := a.Float64(), a.Int63(), a.Split().Int63(); f != 0.7652101070519493 || n != 3886379789183912854 || c != 7077701637087532738 {
		t.Fatalf("New(42) drew %v, %v, child %v", f, n, c)
	}
	if v := New(42).Split().Float64(); v != 0.7673659491134515 {
		t.Fatalf("never-drawn New(42)'s first child drew %v", v)
	}
	idle, drawn := New(8), New(8)
	drawn.Float64()
	for i := 0; i < 3; i++ {
		if a, b := idle.Split().Int63(), drawn.Split().Int63(); a != b {
			t.Fatalf("split %d: never-drawn child %d, drawn parent's child %d", i, a, b)
		}
	}
}
