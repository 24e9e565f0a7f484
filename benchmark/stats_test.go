package main

import (
	"math"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	// The rule: the highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, // p90 of 99 samples has 9 beyond
		{100, 90}, {999, 90}, // p99 of 999 has 9 beyond
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {100000, 99.99}, {1000000, 99.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarise(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000-i) * 1000 // 1000 µs down to 1 µs, unsorted
	}
	s := summarise(ns)
	if s.Samples != 1000 || s.P50us != 500.5 || s.P99us != 990 || s.HiPct != 99 || s.HiUs != 990 || s.MaxUs != 1000 {
		t.Errorf("summarise = %+v", s)
	}
	if z := summarise(nil); z.Samples != 0 || z.P50us != 0 {
		t.Errorf("summarise(nil) = %+v", z)
	}
}

// The reference values are what Python prints for
// statistics.quantiles(xs, n=4), the function the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.3, 2.7, 3.0, 2.8, 3.2, 2.6, 3.4, 9.9}, 2.7, 3.3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if sp := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(sp-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", sp)
	}
	if !math.IsNaN(spread([]float64{3})) {
		t.Error("spread of one value should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}
