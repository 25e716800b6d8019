// Package stats provides the statistical substrate used across the
// reproduction: seeded random variate generation, streaming summaries,
// exponentially weighted moving averages, histograms, and time-series
// sampling.
//
// All randomness flows through RNG so that every experiment is reproducible
// from an explicit seed.
package stats

import (
	"math"
	"math/rand"
)

// RNG draws the distributions needed by the workload and network models
// from an in-package copy of math/rand's default source that seeds in O(1).
// The stream for a seed is bit-identical to rand.New(rand.NewSource(seed)),
// and every method draws through *rand.Rand, so every variate matches
// math/rand's too. It is not safe for concurrent use; give each
// replication its own RNG.
type RNG struct {
	r   *rand.Rand
	src source
}

// NewRNG returns a generator seeded deterministically.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform variate in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns an exponential variate with the given mean (not rate).
// A non-positive mean returns 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Poisson returns a Poisson variate with mean lambda. For small lambda it
// uses Knuth's product method; for large lambda it uses the PTRS
// transformed-rejection method of Hörmann (1993), which stays O(1).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		// Knuth: multiply uniforms until the product drops below e^-lambda.
		limit := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= g.r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	return g.poissonPTRS(lambda)
}

// poissonPTRS implements Hörmann's PTRS rejection sampler (valid for
// lambda >= 10).
func (g *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := g.r.Float64() - 0.5
		v := g.r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(lambda)-lambda-lg {
			return int(k)
		}
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// TruncNormal returns a normal variate clamped to [lo,hi] by resampling
// (up to 64 attempts, then clamping). It is used for feature synthesis
// where hard physical bounds exist (e.g. resolution).
func (g *RNG) TruncNormal(mean, std, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 64; i++ {
		v := g.Normal(mean, std)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a lognormal variate where mu and sigma are the mean and
// standard deviation of the underlying normal.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// LogNormalMeanCV returns a lognormal variate parameterized by its own mean
// and coefficient of variation — the natural way to express "bandwidth
// jitters around 250 kB/s with CV 0.3".
func (g *RNG) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return g.LogNormal(mu, math.Sqrt(sigma2))
}

// BoundedPareto returns a Pareto variate with shape alpha truncated to
// [lo,hi]. Heavy-tailed job sizes ("long-tailed workload" in the paper) are
// drawn from this family.
func (g *RNG) BoundedPareto(alpha, lo, hi float64) float64 {
	if lo >= hi {
		return lo
	}
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork derives an independent child generator from this one. Forking lets a
// run hand distinct deterministic streams to its components (workload,
// network, processing noise) so that changing one component's draw count
// does not perturb the others.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}
