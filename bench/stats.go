package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps decimal percentiles exact (99.9% of 10000 is rank 9990,
// not 9991 by a rounding error).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond is the number of samples above the nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the candidates tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten samples beyond it among n samples, or 0 when none has: a tail
// estimate resting on fewer samples than that is mostly noise.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// geomean returns the geometric mean of the positive values in xs (0 when
// there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match those computed from
// the same numbers in Python. One sample yields that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count; 0 for none).
func median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
