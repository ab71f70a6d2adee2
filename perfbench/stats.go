package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that leaves at
// least ten of n samples beyond it (nearest-rank), or 0 when n < 11.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error from pushing an exact rank up by one.
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
