// Package stats provides the summary-statistics helpers of the experiment
// harness (internal/experiments, internal/bench) and of the HTTP load
// generator's latency report (internal/bench): mean, sum, max, nearest-rank
// percentiles over duration samples, running cumulative series, and the
// speedup ratios the QUASII paper reports. All helpers tolerate empty
// inputs (returning zero) so report generation never branches on sample
// counts.
package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of ds, or 0 for an empty slice.
func Mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Sum returns the total of ds.
func Sum(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// Percentile returns the p-th percentile (0-100) of ds using nearest-rank on
// a sorted copy. It returns 0 for an empty slice.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// Nearest rank: the smallest sample with at least p % of the samples at
	// or below it, the ceil(p·n/100)-th in sorted order.
	rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Cumulative returns the running sum of ds.
func Cumulative(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	var sum time.Duration
	for i, d := range ds {
		sum += d
		out[i] = sum
	}
	return out
}

// Max returns the largest element, or 0 for an empty slice.
func Max(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	m := ds[0]
	for _, d := range ds[1:] {
		if d > m {
			m = d
		}
	}
	return m
}

// Ratio returns a/b as a float, or 0 when b is 0.
func Ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
