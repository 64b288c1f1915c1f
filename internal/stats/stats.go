// Package stats provides the small statistical toolkit used across the
// LLMPrism pipeline: summary statistics, mode estimation (used to classify
// communication pairs), percentiles, and the online Welford accumulator
// used by the continuous monitors.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, or 0 for an empty slice.
// xs is not modified.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mode returns the most frequent value in xs and its count. Ties are broken
// toward the smallest value so the result is deterministic. For an empty
// slice it returns (0, 0).
//
// Algorithm 2 of the paper takes the mode of per-step distinct-size counts
// to suppress noisy steps.
func Mode(xs []int) (value, count int) {
	if len(xs) == 0 {
		return 0, 0
	}
	freq := make(map[int]int, len(xs))
	for _, x := range xs {
		freq[x]++
	}
	first := true
	for v, c := range freq {
		if first || c > count || (c == count && v < value) {
			value, count = v, c
			first = false
		}
	}
	return value, count
}

// DistinctCount returns the number of distinct values in xs.
func DistinctCount(xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	seen := make(map[int64]struct{}, len(xs))
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

// Welford accumulates mean and variance online in a numerically stable way.
// The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
