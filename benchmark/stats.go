package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so the
// spreads this program prints are the ones the driver computes. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median: the
// run-to-run noise figure every bound is judged against. With fewer than two
// values there is no spread to speak of and it returns NaN.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentileOf returns the p-th percentile (0 < p < 100) of an ascending
// slice by nearest rank.
func percentileOf(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the nearest rank of percentile p among n samples. The small
// tolerance keeps 99.9 % of 10 000 at rank 9990 although the product is
// 9990.000000000002 in floating point.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentiles are the candidates of the percentile rule, lowest first.
var tailPercentiles = []float64{90, 99, 99.9, 99.99, 99.999}

// highestPercentile is the percentile rule: the highest candidate percentile
// that still has at least ten samples beyond it, or 0 when even p90 has not
// (fewer than 100 samples).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// timing summarises one latency distribution: the median, p99, and the
// highest percentile the sample count supports.
type timing struct {
	Samples int     `json:"samples"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	HiPct   float64 `json:"hi_percentile"`
	HiUs    float64 `json:"hi_us"`
	MaxUs   float64 `json:"max_us"`
}

// summarise sorts ns in place and reports its timing. The median averages
// the two middle samples of an even count, so it carries sub-nanosecond
// digits instead of snapping to one clock reading.
func summarise(ns []int64) timing {
	if len(ns) == 0 {
		return timing{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	n := len(ns)
	mid := float64(ns[n/2])
	if n%2 == 0 {
		mid = (float64(ns[n/2-1]) + float64(ns[n/2])) / 2
	}
	t := timing{
		Samples: n,
		P50us:   mid / 1e3,
		P99us:   float64(percentileOf(ns, 99)) / 1e3,
		MaxUs:   float64(ns[n-1]) / 1e3,
	}
	if hp := highestPercentile(n); hp > 0 {
		t.HiPct = hp
		t.HiUs = float64(percentileOf(ns, hp)) / 1e3
	}
	return t
}
