package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTail is the number of samples a reported percentile needs beyond it:
// a p90 over fewer than 100 samples rests on fewer than ten observations.
const minTail = 10

// percentile is a latency percentile with the sample count behind it.
// OK is false when fewer than minTail samples lie beyond the percentile,
// in which case Value must not be reported as that percentile.
type percentile struct {
	Value float64
	N     int
	OK    bool
}

// tailPercentile computes the q-quantile of xs and whether it has at
// least minTail samples beyond it.
func tailPercentile(xs []float64, q float64) percentile {
	n := len(xs)
	return percentile{Value: quantile(xs, q), N: n, OK: float64(n)*(1-q) >= minTail}
}
