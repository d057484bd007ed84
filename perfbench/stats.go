package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// a p99 needs at least 1000 samples. A median needs one.
const minTail = 10

// samples is a set of operation latencies.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile of s and whether s holds
// enough samples to report it: for q above the median, at least minTail
// samples must lie beyond it.
func (s samples) quantile(q float64) (time.Duration, bool) {
	n := len(s)
	if n == 0 || q > 0.5 && float64(n)*(1-q) < minTail-1e-9 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], true
}

// median of a list of plain values (0 for an empty list).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
