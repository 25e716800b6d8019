package stats

import (
	"math"
	"math/rand"
	"testing"
)

// stdRNG is the reference: the same RNG methods running on math/rand's own
// source.
func stdRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// edgeSeeds cover seed normalization: zero (math/rand substitutes a fixed
// seed), signs, both sides of the modulus 2³¹−1 and its multiples, and the
// int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2,
	int32max - 1, int32max, int32max + 1,
	-int32max + 1, -int32max, -int32max - 1,
	2 * int32max, -2 * int32max, 2*int32max + 1,
	zeroSeed, -zeroSeed,
	math.MaxInt32, math.MinInt32,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// testSeeds returns the edge seeds followed by n seeds drawn from a fixed
// stream over the whole int64 range.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20100913))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// matchStream draws n values from s and ref, alternating Uint64 and Int63
// (which have separate bodies), and fails at the first one that differs.
func matchStream(t testing.TB, s *source, ref rand.Source64, seed int64, n int, what string) {
	t.Helper()
	for k := 1; k <= n; k++ {
		var got, want uint64
		if k%2 == 0 {
			got, want = uint64(s.Int63()), uint64(ref.Int63())
		} else {
			got, want = s.Uint64(), ref.Uint64()
		}
		if got != want {
			t.Fatalf("seed %d %s: draw %d = %#x, math/rand %#x", seed, what, k, got, want)
		}
	}
}

func newStdSource(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

func TestSourceMatchesStdlib(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	for _, seed := range testSeeds(n) {
		var s source
		s.Seed(seed)
		matchStream(t, &s, newStdSource(seed), seed, 2*rngLen+100, "stream")
	}
}

// TestSourceReseedAtEveryDrawCount seeds, draws k values and re-seeds, for
// every k from 0 to 1300. The range crosses the first tap wrap (273), the
// last lazily materialized draw (334) and a full register cycle (607), so
// a re-seed must rebuild every word whatever the previous draws touched.
func TestSourceReseedAtEveryDrawCount(t *testing.T) {
	const first, second = 42, -987654321
	for k := 0; k <= 1300; k++ {
		var s source
		s.Seed(first)
		matchStream(t, &s, newStdSource(first), first, k, "before re-seed")
		s.Seed(second)
		matchStream(t, &s, newStdSource(second), second, rngLen+1, "after re-seed")
	}
}

// TestRNGMethodsMatchStdlib runs every RNG method, interleaved, on NewRNG
// and on the math/rand-backed reference, and requires bit-identical
// results, including down chains of Forks.
func TestRNGMethodsMatchStdlib(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	for _, seed := range testSeeds(n) {
		got, want := NewRNG(seed), stdRNG(seed)
		for depth := 0; depth < 3; depth++ {
			compareMethods(t, seed, depth, got, want)
			got, want = got.Fork(), stdForkOf(want)
		}
	}
}

// stdForkOf mirrors RNG.Fork for the reference: the child's seed is the
// parent's next Int63, and the child runs on math/rand's source.
func stdForkOf(g *RNG) *RNG { return stdRNG(g.r.Int63()) }

func compareMethods(t *testing.T, seed int64, depth int, got, want *RNG) {
	t.Helper()
	check := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d fork depth %d: %s = %v, math/rand %v", seed, depth, name, a, b)
		}
	}
	for round := 0; round < 8; round++ {
		check("Float64", got.Float64(), want.Float64())
		check("Intn", float64(got.Intn(1000+round)), float64(want.Intn(1000+round)))
		check("Intn(2^40)", float64(got.Intn(1<<40)), float64(want.Intn(1<<40)))
		check("Uniform", got.Uniform(-3, 7), want.Uniform(-3, 7))
		check("Exponential", got.Exponential(4), want.Exponential(4))
		check("Normal", got.Normal(10, 2), want.Normal(10, 2))
		check("Poisson(small)", float64(got.Poisson(15)), float64(want.Poisson(15)))
		check("Poisson(large)", float64(got.Poisson(200)), float64(want.Poisson(200)))
		check("TruncNormal", got.TruncNormal(5, 3, 0, 8), want.TruncNormal(5, 3, 0, 8))
		check("LogNormalMeanCV", got.LogNormalMeanCV(250, 0.3), want.LogNormalMeanCV(250, 0.3))
		check("BoundedPareto", got.BoundedPareto(1.1, 1e6, 3e8), want.BoundedPareto(1.1, 1e6, 3e8))
		pg, pw := got.Perm(20+round), want.Perm(20+round)
		for i := range pg {
			check("Perm", float64(pg[i]), float64(pw[i]))
		}
		sg, sw := make([]int, 40), make([]int, 40)
		for i := range sg {
			sg[i], sw[i] = i, i
		}
		got.Shuffle(len(sg), func(i, j int) { sg[i], sg[j] = sg[j], sg[i] })
		want.Shuffle(len(sw), func(i, j int) { sw[i], sw[j] = sw[j], sw[i] })
		for i := range sg {
			check("Shuffle", float64(sg[i]), float64(sw[i]))
		}
	}
}

// TestRecycledRNGMatchesFresh dirties a generator with k draws and a
// partial Read, releases it, and requires the generator NewRNG hands out
// next to reproduce math/rand's stream for a new seed. The draw counts
// straddle the last lazily materialized draw (334) and a full register
// cycle (607), and the partial Read leaves bytes buffered in rand.Rand.
func TestRecycledRNGMatchesFresh(t *testing.T) {
	const first, second = 42, -987654321
	for _, k := range []int{0, 1, rngLen - rngTap - 1, rngLen - rngTap, rngLen - rngTap + 1, 1300} {
		g := NewRNG(first)
		for i := 0; i < k; i++ {
			g.Float64()
		}
		var buf [3]byte
		g.r.Read(buf[:])
		g.Release()

		got := NewRNG(second)
		if got != g {
			// The free list may drop an item (the race detector does so
			// on purpose); recycle g the way NewRNG would have.
			got = g
			got.reseed(second)
		}
		want := stdRNG(second)
		var gb, wb [5]byte
		got.r.Read(gb[:])
		want.r.Read(wb[:])
		if gb != wb {
			t.Fatalf("k=%d: Read after recycling = %x, math/rand %x", k, gb, wb)
		}
		for depth := 0; depth < 3; depth++ {
			compareMethods(t, second, depth, got, want)
			got, want = got.Fork(), stdForkOf(want)
		}
	}
}

var rngSink *RNG

// TestNewRNGAllocations pins both paths: a generator from the free list
// costs nothing, and a cold one at most the RNG and its rand.Rand.
func TestNewRNGAllocations(t *testing.T) {
	NewRNG(7).Release()
	warm := testing.AllocsPerRun(100, func() {
		rngSink = NewRNG(7)
		rngSink.Release()
	})
	if warm != 0 {
		t.Fatalf("NewRNG on a warm free list made %v allocations, want 0", warm)
	}
	cold := testing.AllocsPerRun(100, func() { rngSink = NewRNG(7) })
	if cold > 2 {
		t.Fatalf("NewRNG made %v allocations, want at most 2", cold)
	}
}

func TestRNGDoubleReleasePanics(t *testing.T) {
	g := NewRNG(1)
	g.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	g.Release()
}
