package telemetry

import (
	"strings"
	"testing"
)

// ownExposition renders a registry holding one of each family kind WriteText
// emits: a counter, a gauge labelled shard=value and a histogram.
func ownExposition(tb testing.TB, value string) string {
	tb.Helper()
	r := NewRegistry()
	r.Counter("quasii_fuzz_requests_total", "requests").Add(42)
	r.Gauge("quasii_fuzz_live_objects", "live", L("shard", value)).Set(-7)
	h := r.Histogram("quasii_fuzz_wait_seconds", "wait", DurationBuckets)
	h.Observe(30e-6)
	h.Observe(0.25)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// FuzzParseText feeds arbitrary text to the /metrics parser, which must
// never panic, and renders our own exposition with an arbitrary label value,
// which must parse and read back exactly the values and the label value the
// registry held.
func FuzzParseText(f *testing.F) {
	own := ownExposition(f, "3")
	f.Add(own, "3")
	f.Add("", "")
	f.Add(`quasii_x{l="a\"b\\c\nd",m=""} 1e-3`, "a\"b\\c\nd")
	f.Add("", "}\t\x00\x1b\r{\"=,} 1")
	for _, line := range strings.Split(own, "\n") {
		f.Add(line, line)
		f.Add(line[:len(line)/2], "") // cut mid-line: inside a name, label set or value
	}

	f.Fuzz(func(t *testing.T, text, value string) {
		ParseText(text)
		own := ownExposition(t, value)
		sc, err := ParseText(own)
		if err != nil {
			t.Fatalf("our own exposition failed to parse: %v\n%s", err, own)
		}
		for _, c := range []struct {
			name   string
			labels map[string]string
			want   float64
		}{
			{"quasii_fuzz_requests_total", nil, 42},
			{"quasii_fuzz_live_objects", map[string]string{"shard": value}, -7},
			{"quasii_fuzz_wait_seconds_bucket", map[string]string{"le": "+Inf"}, 2},
			{"quasii_fuzz_wait_seconds_sum", nil, 30e-6 + 0.25},
			{"quasii_fuzz_wait_seconds_count", nil, 2},
		} {
			if v, ok := sc.Value(c.name, c.labels); !ok || v != c.want {
				t.Errorf("%s%q = %v,%v want %v", c.name, c.labels, v, ok, c.want)
			}
		}
		for name, kind := range map[string]string{
			"quasii_fuzz_requests_total": "counter",
			"quasii_fuzz_live_objects":   "gauge",
			"quasii_fuzz_wait_seconds":   "histogram",
		} {
			if sc.Types[name] != kind {
				t.Errorf("TYPE %s = %q, want %q", name, sc.Types[name], kind)
			}
		}
	})
}
