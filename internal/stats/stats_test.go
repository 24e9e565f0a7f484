package stats

import (
	"testing"
	"time"
)

func ds(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v)
	}
	return out
}

func TestMean(t *testing.T) {
	if got := Mean(ds(1, 2, 3)); got != 2 {
		t.Errorf("Mean = %d, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %d, want 0", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum(ds(1, 2, 3, 4)); got != 10 {
		t.Errorf("Sum = %d, want 10", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %d", got)
	}
}

func TestPercentile(t *testing.T) {
	data := ds(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	if got := Percentile(data, 0); got != 10 {
		t.Errorf("p0 = %d, want 10", got)
	}
	if got := Percentile(data, 100); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if got := Percentile(data, 50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	if got := Percentile(ds(hundred...), 99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
	// Unsorted input must not be mutated.
	unsorted := ds(5, 1, 3)
	Percentile(unsorted, 50)
	if unsorted[0] != 5 || unsorted[1] != 1 || unsorted[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestCumulative(t *testing.T) {
	got := Cumulative(ds(1, 2, 3))
	want := ds(1, 3, 6)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Cumulative = %v, want %v", got, want)
		}
	}
	if got := Cumulative(nil); len(got) != 0 {
		t.Errorf("Cumulative(nil) = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if got := Max(ds(5, 1, 9, 3)); got != 9 {
		t.Errorf("Max = %d", got)
	}
	if Max(nil) != 0 {
		t.Error("empty Max should be 0")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(10, 4); got != 2.5 {
		t.Errorf("Ratio = %g, want 2.5", got)
	}
	if got := Ratio(10, 0); got != 0 {
		t.Errorf("Ratio by zero = %g, want 0", got)
	}
}
