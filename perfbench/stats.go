package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks, together with the sample count
// it was taken from. An empty sample gives NaN.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), n
}

// growth divides the median step cost in the last quarter of steps by
// the median in the first quarter: 1.0 means the cost per step stays flat
// as the sequence goes on, above 1 that later steps cost more. Medians
// keep one slow step from reading as growth. Fewer than four steps, or a
// zero first quarter, give NaN.
func growth(steps []float64) float64 {
	q := len(steps) / 4
	if q == 0 {
		return math.NaN()
	}
	first := median(steps[:q])
	if first == 0 {
		return math.NaN()
	}
	return median(steps[len(steps)-q:]) / first
}

// mean is the arithmetic mean of xs; an empty sample gives NaN.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 {
	m, _ := percentile(xs, 50)
	return m
}

// digest hashes the canonical text of values with FNV-64a. Values are
// rendered with %+v, which prints floats in their shortest exact form, so
// two digests agree only when every field agrees bit for bit.
func digest(values ...any) string {
	h := fnv.New64a()
	for _, v := range values {
		fmt.Fprintf(h, "%+v\x00", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// combineDigests folds an ordered list of digests into one.
func combineDigests(ds []string) string {
	return digest(strings.Join(ds, ","))
}
