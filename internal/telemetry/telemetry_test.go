package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("quasii_test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("quasii_test_depth_objects", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("quasii_test_x_total", "x")
	g := r.Gauge("quasii_test_x_objects", "x")
	h := r.Histogram("quasii_test_x_seconds", "x", DurationBuckets)
	r.CounterFunc("quasii_test_y_total", "y", func() float64 { return 1 })
	r.GaugeFunc("quasii_test_y_objects", "y", func() float64 { return 1 })
	r.OnScrape(func() {})
	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	h.ObserveDuration(time.Millisecond)
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}
	var tr *Tracer
	tp := tr.Begin("query")
	tp.AddStage(StageShared, time.Millisecond)
	tr.Finish(tp)
	if tr.Slowlog() != nil {
		t.Fatal("nil tracer slowlog should be nil")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("quasii_test_hits_total", "hits", L("endpoint", "/query"))
	b := r.Counter("quasii_test_hits_total", "hits", L("endpoint", "/query"))
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	other := r.Counter("quasii_test_hits_total", "hits", L("endpoint", "/stats"))
	if a == other {
		t.Fatal("different labels should return a different child")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("quasii_test_thing_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("quasii_test_thing_total", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("quasii_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum = %g, want 5.605", h.Sum())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`quasii_test_latency_seconds_bucket{le="0.01"} 1`,
		`quasii_test_latency_seconds_bucket{le="0.1"} 3`,
		`quasii_test_latency_seconds_bucket{le="1"} 4`,
		`quasii_test_latency_seconds_bucket{le="+Inf"} 5`,
		`quasii_test_latency_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRenderParseRoundtrip drives the renderer's output straight into the
// strict parser the loadgen cross-check and smoke script use.
func TestRenderParseRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("quasii_test_requests_total", "requests", L("endpoint", "/query")).Add(42)
	r.Counter("quasii_test_requests_total", "requests", L("endpoint", "/stats")).Add(7)
	r.Gauge("quasii_test_live_objects", "live").Set(123456)
	r.GaugeFunc("quasii_test_ratio", "ratio", func() float64 { return 0.75 })
	h := r.Histogram("quasii_test_wait_seconds", "wait", DurationBuckets)
	h.Observe(30e-6)
	h.Observe(0.2)
	hooked := false
	r.OnScrape(func() { hooked = true })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("OnScrape hook did not run")
	}
	sc, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("our own exposition failed to parse: %v\n%s", err, b.String())
	}
	if sc.Types["quasii_test_requests_total"] != "counter" {
		t.Fatalf("TYPE = %q, want counter", sc.Types["quasii_test_requests_total"])
	}
	if sc.Types["quasii_test_wait_seconds"] != "histogram" {
		t.Fatalf("TYPE = %q, want histogram", sc.Types["quasii_test_wait_seconds"])
	}
	if v, ok := sc.Value("quasii_test_requests_total", map[string]string{"endpoint": "/query"}); !ok || v != 42 {
		t.Fatalf("requests{/query} = %v,%v want 42", v, ok)
	}
	if v, ok := sc.Value("quasii_test_ratio", nil); !ok || v != 0.75 {
		t.Fatalf("ratio = %v,%v want 0.75", v, ok)
	}
	if v, ok := sc.Value("quasii_test_wait_seconds_count", nil); !ok || v != 2 {
		t.Fatalf("wait count = %v,%v want 2", v, ok)
	}
}

func TestParserRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"quasii x",                // non-numeric value
		`quasii{l="v} 1`,          // unterminated label value
		`quasii{l=v} 1`,           // unquoted label value
		"1name 2",                 // bad metric name
		"# TYPE quasii_x wibble",  // unknown type
		"quasii_x 1 1700000000",   // timestamps not in our grammar
		`quasii_x{l="a" m="b"} 1`, // missing comma
		`quasii_x{l="\q"} 1`,      // unknown escape
	} {
		if _, err := ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", bad)
		}
	}
}

func TestParserAcceptsEscapes(t *testing.T) {
	sc, err := ParseText(`quasii_x{l="a\"b\\c\nd"} 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Samples[0].Label("l"); got != "a\"b\\c\nd" {
		t.Fatalf("unescaped = %q", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("quasii_test_q_seconds", "q", []float64{0.01, 0.1, 1})
	// 100 observations: 50 in (0,0.01], 40 in (0.01,0.1], 10 in (0.1,1].
	for i := 0; i < 50; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 40; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	p50, ok := sc.HistogramQuantile("quasii_test_q_seconds", nil, 0.50)
	if !ok {
		t.Fatal("no histogram found")
	}
	// Rank 50 is exactly the top of the first bucket.
	if math.Abs(p50-0.01) > 1e-9 {
		t.Fatalf("p50 = %g, want 0.01", p50)
	}
	p90, ok := sc.HistogramQuantile("quasii_test_q_seconds", nil, 0.90)
	if !ok || p90 < 0.01 || p90 > 0.1 {
		t.Fatalf("p90 = %g, want within (0.01, 0.1]", p90)
	}
	p99, ok := sc.HistogramQuantile("quasii_test_q_seconds", nil, 0.99)
	if !ok || p99 < 0.1 || p99 > 1 {
		t.Fatalf("p99 = %g, want within (0.1, 1]", p99)
	}
	// The live histogram answers with the scrape's estimate, bit for bit —
	// overflow bucket included — and reports empty (and nil) as not ok.
	h.Observe(7)
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if sc, err = ParseText(b.String()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want, _ := sc.HistogramQuantile("quasii_test_q_seconds", nil, q)
		if got, ok := h.Quantile(q); !ok || got != want {
			t.Fatalf("Histogram.Quantile(%g) = %g (ok %v), scrape says %g", q, got, ok, want)
		}
	}
	if _, ok := r.Histogram("quasii_test_empty_seconds", "e", DurationBuckets).Quantile(0.5); ok {
		t.Fatal("empty histogram reported a quantile")
	}
	if _, ok := (*Histogram)(nil).Quantile(0.5); ok {
		t.Fatal("nil histogram reported a quantile")
	}
}

// TestConcurrentHotPath is the -race stress on the registry hot path:
// counters, gauges, and histograms hammered from many goroutines while a
// scraper renders concurrently. Verifies both race-freedom and that no
// increment is lost.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("quasii_test_stress_total", "stress")
	g := r.Gauge("quasii_test_stress_objects", "stress")
	h := r.Histogram("quasii_test_stress_seconds", "stress", DurationBuckets)

	const workers = 8
	const perWorker = 5000
	var workersWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent scraper.
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			if _, err := ParseText(b.String()); err != nil {
				t.Errorf("mid-flight scrape unparsable: %v", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) * 1e-5)
				// Concurrent registration of the same metric must be safe
				// and return the shared instance.
				if i%1000 == 0 {
					r.Counter("quasii_test_stress_total", "stress").Inc()
				}
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	scraperWG.Wait()

	want := int64(workers*perWorker + workers*(perWorker/1000))
	if got := c.Value(); got != want {
		t.Fatalf("counter lost increments: got %d, want %d", got, want)
	}
	if got := g.Value(); got != int64(workers*perWorker) {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != int64(workers*perWorker) {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterMonotonicAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("quasii_test_mono_total", "mono")
	var last float64 = -1
	for i := 0; i < 50; i++ {
		c.Add(int64(i % 3))
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseText(b.String())
		if err != nil {
			t.Fatal(err)
		}
		v, ok := sc.Value("quasii_test_mono_total", nil)
		if !ok {
			t.Fatal("counter missing from scrape")
		}
		if v < last {
			t.Fatalf("counter went backwards: %g after %g", v, last)
		}
		last = v
	}
}
