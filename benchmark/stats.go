package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile (p in (0,100]) of xs: the
// smallest sample with at least p% of the samples at or below it. It never
// interpolates, so the result is always a latency that was really observed.
// An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two middle samples for an even
// count). An empty input yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// segmentPercentile splits xs, in arrival order, into at most segs
// consecutive segments of near-equal size, takes the nearest-rank percentile
// of each and returns the median of those. A single-shot p99 over one run
// swung 2.5× between identical runs on this box; the median of segment p99s
// trades a slightly lower tail for a number that repeats. With fewer
// samples than segments every sample is its own segment, so the result
// degrades to the plain median.
func segmentPercentile(xs []float64, segs int, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	segs = min(segs, len(xs))
	per := make([]float64, 0, segs)
	for i := 0; i < segs; i++ {
		per = append(per, percentile(xs[i*len(xs)/segs:(i+1)*len(xs)/segs], p))
	}
	return median(per)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does,
// because that is the rule the acceptance driver applies to repeat runs.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Like Python, delta is taken after clamping j, so very small
		// inputs extrapolate past the end samples.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrSpread is (Q3 − Q1) / median: the run-to-run spread the driver holds
// against each metric's bound.
func iqrSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
