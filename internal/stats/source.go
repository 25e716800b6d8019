package stats

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the one
// rand.NewSource returns), reimplemented so that seeding is O(1).
//
// Its output stream equals rand.NewSource(seed)'s for every seed. What
// differs is when the 607 state words are computed: math/rand's Seed runs
// 1841 serial Lehmer steps to fill them all up front, while this source
// computes each word from a closed form the first time a draw reads it.
// Every word has been read once the first 334 draws are done. See
// DESIGN.md §8 "RNG seeding".
type source struct {
	tap   int // index into vec
	feed  int // index into vec
	fresh int // draws left that still read unmaterialized words
	seed  uint64
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime

	// lehmerSkip is the number of Lehmer steps Seed discards before it
	// builds word 0; word i uses steps lehmerSkip+3i+1..lehmerSkip+3i+3.
	lehmerSkip = 20
	lehmerMul  = 48271
	zeroSeed   = 89482311 // math/rand's substitute for a zero seed
)

var (
	// lehmerPow[3i+j] is lehmerMul^(lehmerSkip+1+3i+j) mod int32max: the
	// multiplier that takes a normalized seed to the Lehmer step that
	// supplies part j of state word i.
	lehmerPow [3 * rngLen]uint64

	// rngCooked is math/rand's table of the same name, recovered from the
	// standard library at init by cookedTable.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 0; n < lehmerSkip; n++ {
		p = mulMod(p, lehmerMul)
	}
	for n := range lehmerPow {
		p = mulMod(p, lehmerMul)
		lehmerPow[n] = p
	}
	rngCooked = cookedTable()
}

// mulMod returns a·b mod int32max for a, b < 2³¹. Two Mersenne folds bring
// the 62-bit product into [0, int32max]; the result is int32max only if
// a·b ≡ 0, which never happens for the nonzero operands used here.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	return t&int32max + t>>31
}

// lehmerWord is the Lehmer part of state word i for a normalized seed:
// what math/rand's Seed XORs with rngCooked[i].
func lehmerWord(seed uint64, i int) int64 {
	pw := lehmerPow[3*i : 3*i+3 : 3*i+3]
	return int64(mulMod(seed, pw[0]))<<40 ^
		int64(mulMod(seed, pw[1]))<<20 ^
		int64(mulMod(seed, pw[2]))
}

// cookedTable recovers math/rand's rngCooked. After rngLen draws from
// rand.NewSource(1) every state word has been overwritten exactly once by
// a draw's output, and tap and feed are back where Seed put them. Undoing
// the draws in reverse yields the seeded state, and XORing off the Lehmer
// part of each word leaves the cooked value.
func cookedTable() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]int64
	feed := rngLen - rngTap
	for n := 0; n < rngLen; n++ {
		feed--
		if feed < 0 {
			feed += rngLen
		}
		vec[feed] = int64(src.Uint64())
	}
	tap, feed := 0, rngLen-rngTap
	for n := 0; n < rngLen; n++ {
		vec[feed] -= vec[tap]
		if tap++; tap == rngLen {
			tap = 0
		}
		if feed++; feed == rngLen {
			feed = 0
		}
	}
	for i := range vec {
		vec[i] ^= lehmerWord(seed, i)
	}
	return vec
}

// Seed normalizes seed exactly as math/rand does and defers computing the
// state words to the draws that first read them.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.fresh = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
// It repeats Uint64's body instead of calling it: rand.Rand draws nearly
// every variate through Int63, and Uint64 is too large to inline, so the
// extra call would slow every draw.
func (s *source) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.materialize()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.materialize()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// materialize computes the words the current draw reads for the first
// time. Draw k ≤ 334 reads feed = 334−k, first touched now, and
// tap = 607−k, first touched now while it is ≥ 334; taps below 334 were
// materialized as an earlier draw's feed.
func (s *source) materialize() {
	s.fresh--
	s.vec[s.feed] = lehmerWord(s.seed, s.feed) ^ rngCooked[s.feed]
	if s.tap >= rngLen-rngTap {
		s.vec[s.tap] = lehmerWord(s.seed, s.tap) ^ rngCooked[s.tap]
	}
}
