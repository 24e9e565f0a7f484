package experiments

import (
	"io"
	"strings"
	"testing"
)

// tiny is a minimal scale so experiment drivers run inside go test.
var tiny = Scale{
	Name: "tiny", UniformN: 4000, NeuroN: 4000,
	ClusteredQueries: 50, UniformQueries: 80, Seed: 1,
	PrintEvery: 10, GridUniform: 12, GridNeuro: 24,
}

func TestAllFiguresRunAndValidate(t *testing.T) {
	for _, name := range Order {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := Registry[name](io.Discard, tiny)
			if err != nil {
				t.Fatalf("%s failed: %v", name, err)
			}
			if len(r.Series) == 0 {
				t.Fatalf("%s produced no series", name)
			}
		})
	}
}

func TestPatternsRuns(t *testing.T) {
	r, err := Patterns(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 6 {
		t.Fatalf("patterns produced %d series, want 6", len(r.Series))
	}
}

// TestGapWordsTheSign: fig 10's tail note names the direction of the gap
// and never prints a negative "slower".
func TestGapWordsTheSign(t *testing.T) {
	for ratio, want := range map[float64]string{0.566: "43.4% faster", 1.12: "12.0% slower", 1: "0.0% slower"} {
		if got := gap(ratio); got != want {
			t.Errorf("gap(%v) = %q, want %q", ratio, got, want)
		}
	}
}

// TestRatio: a zero baseline reports no speedup instead of dividing by zero.
func TestRatio(t *testing.T) {
	if got := ratio(10, 4); got != 2.5 {
		t.Errorf("ratio(10, 4) = %g, want 2.5", got)
	}
	if got := ratio(10, 0); got != 0 {
		t.Errorf("ratio(10, 0) = %g, want 0", got)
	}
}

func TestGridSweepRuns(t *testing.T) {
	r, err := GridSweep(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 16 {
		t.Fatalf("sweep produced %d series, want 16", len(r.Series))
	}
}

func TestFig9HeadlineShapes(t *testing.T) {
	// The qualitative claims of the paper that must hold at any scale:
	// QUASII's first query beats the static indexes' build+first-query.
	r, err := Fig9(io.Discard, tiny)
	if err != nil {
		t.Fatal(err)
	}
	q := r.Get("QUASII")
	rt := r.Get("R-Tree")
	if q == nil || rt == nil {
		t.Fatal("missing series")
	}
	if q.FirstQuery() >= rt.FirstQuery() {
		t.Errorf("data-to-insight: QUASII %v not faster than R-Tree %v", q.FirstQuery(), rt.FirstQuery())
	}
	sfc := r.Get("SFCracker")
	if q.FirstQuery() >= sfc.FirstQuery() {
		t.Errorf("first query: QUASII %v not faster than SFCracker %v", q.FirstQuery(), sfc.FirstQuery())
	}
}

func TestFigOutputContainsTables(t *testing.T) {
	var sb strings.Builder
	if _, err := Fig7(&sb, tiny); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 7", "QUASII", "SFCracker", "Mosaic", "query"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q", want)
		}
	}
}

func TestScalesRegistered(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		if _, ok := Scales[name]; !ok {
			t.Errorf("scale %q not registered", name)
		}
	}
}
