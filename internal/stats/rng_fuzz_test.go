package stats

// Fuzz coverage for the O(1)-seeded source: for any seed and draw count,
// NewRNG's stream must equal math/rand's rand.New(rand.NewSource(seed)).

import (
	"math"
	"math/rand"
	"testing"
)

func FuzzRNGMatchesStdlib(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(2*rngLen))
	}
	f.Add(int64(1), uint16(0))
	f.Add(int64(7), uint16(rngTap))
	f.Add(int64(-7), uint16(rngLen-rngTap))
	f.Add(int64(math.MaxInt64), uint16(math.MaxUint16))

	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := NewRNG(seed).r, rand.New(rand.NewSource(seed))
		for k := 1; k <= int(draws); k++ {
			// Int63 and Uint64 have separate bodies, so draws alternate
			// between them; the parity of draws picks which goes first.
			var g, w uint64
			if (k+int(draws))%2 == 0 {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			} else {
				g, w = got.Uint64(), want.Uint64()
			}
			if g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, k, g, w)
			}
		}
	})
}
