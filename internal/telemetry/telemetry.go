// Package telemetry is the observability subsystem: a dependency-free
// metrics registry rendered in the Prometheus text exposition format, plus
// sampled per-query stage tracing with a ring-buffered slow-query log (see
// trace.go). It exists so the serving stack can prove — not just claim —
// QUASII's incremental convergence under live load: per-query cost falling
// as the index refines is a time-series, and this package is where that
// series comes from.
//
// # Design constraints
//
// The query hot path the columnar engine fought for is allocation-free, so
// the instrumentation must be too:
//
//   - Counters and gauges are single atomic words; Inc/Add/Set never
//     allocate and never take a lock.
//   - Histograms have fixed buckets chosen at registration; Observe is a
//     linear scan over ≤ ~20 bounds plus two atomic adds.
//   - Every metric method is nil-receiver-safe, so a layer built without a
//     registry carries exactly one nil check per event.
//   - Scrape-time collection (OnScrape hooks + CounterFunc/GaugeFunc) moves
//     the cost of lock-taking engine statistics (shard.Stats walks every
//     shard under its read lock) off the query path entirely: the engine's
//     existing counters are read when /metrics is scraped, not maintained
//     redundantly per query.
//
// # Naming convention
//
// Metric names follow quasii_<subsystem>_<name>_<unit>: the subsystem is
// the emitting layer (http, server, shard, core, wal, store), the unit is
// the final token (total for monotone counters, seconds, bytes, ratio, or
// the counted noun — objects, queries, requests, shards, slices).
// scripts/metrics-lint.sh enforces the convention against a live scrape.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the families a registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotone cumulative count: one atomic word. The zero value
// is ready to use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be ≥ 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value: one atomic word. All methods are
// nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observe performs a linear scan
// over the bounds plus two atomic adds — no locks, no allocation. All
// methods are nil-safe no-ops.
type Histogram struct {
	bounds []float64      // sorted upper bounds, excluding +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates quantile q (0..1) of the observations so far — the
// estimate a scrape of this histogram yields through
// Scrape.HistogramQuantile. ok is false while the histogram is empty.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	buckets := make([]bucket, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		buckets[i] = bucket{le: math.Inf(1), count: float64(run)}
		if i < len(h.bounds) {
			buckets[i].le = h.bounds[i]
		}
	}
	return bucketQuantile(buckets, q)
}

// DurationBuckets is the default latency histogram layout: 10µs to 2.5s in
// a 1-2.5-5 progression, wide enough for a cold crack-heavy query and fine
// enough to resolve a converged sub-100µs one.
var DurationBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
}

// SizeBuckets is the default layout for small-cardinality size metrics
// (batch occupancy, fan-out width): exact powers of two up to 256.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// child is one labeled instance inside a family.
type child struct {
	labels  []Label
	key     string // canonical rendered label set, family-unique
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // CounterFunc/GaugeFunc collection
	hist    *Histogram
}

// family is all instances sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	bounds     []float64 // histogram families only
	children   []*child
	byKey      map[string]*child
}

// Registry holds metric families and renders them as Prometheus text. A nil
// *Registry is valid everywhere: registration returns nil metrics (whose
// methods no-op), so instrumented layers need no enabled/disabled branches.
// Registration is idempotent — asking for an existing name+labels returns
// the existing metric — so layers can be instrumented independently and
// restarts of a sub-system re-attach instead of panicking.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers f to run at the start of every scrape (WriteText),
// before any CounterFunc/GaugeFunc is read. Layers whose statistics are
// expensive to collect (e.g. walking every shard under its lock) register
// one hook that snapshots everything, and cheap funcs that read the cached
// snapshot.
func (r *Registry) OnScrape(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// labelKey renders a sorted, canonical form of labels used both for lookup
// and for the exposition output.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// labelEscaper escapes a label value per the text exposition format:
// backslash, double quote and line feed, and no other byte. ParseText
// undoes exactly these three.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// register returns the child for name+labels, creating family and child as
// needed. kind and bounds must agree with any prior registration of name.
func (r *Registry) register(name, help string, kind metricKind, bounds []float64, labels []Label) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*child)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := labelKey(labels)
	if c := f.byKey[key]; c != nil {
		return c
	}
	c := &child{labels: labels, key: key}
	switch kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		b := f.bounds
		c.hist = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}
	f.byKey[key] = c
	f.children = append(f.children, c)
	return c
}

// Counter registers (or returns the existing) counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, labels).counter
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, labels).gauge
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — for monotone statistics a lower layer already maintains (the
// engine's cumulative work counters), so the hot path is not taxed twice.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	if r == nil || f == nil {
		return
	}
	r.register(name, help, kindCounter, nil, labels).fn = f
}

// GaugeFunc registers a gauge read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	if r == nil || f == nil {
		return
	}
	r.register(name, help, kindGauge, nil, labels).fn = f
}

// Histogram registers (or returns the existing) histogram name{labels} with
// the given bucket upper bounds (sorted ascending, +Inf implied). All
// children of one family share the bounds of the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, buckets, labels).hist
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4), running the OnScrape hooks first.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := append([]*family{}, r.families...)
	r.mu.Unlock()
	// Hooks run outside the registry lock: they may take engine locks and
	// must not block concurrent registration.
	for _, h := range hooks {
		h()
	}
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, c := range f.children {
			if err := writeChild(w, f, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, c *child) error {
	switch f.kind {
	case kindCounter, kindGauge:
		v := 0.0
		switch {
		case c.fn != nil:
			v = c.fn()
		case c.counter != nil:
			v = float64(c.counter.Value())
		case c.gauge != nil:
			v = float64(c.gauge.Value())
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(c.key), formatValue(v))
		return err
	case kindHistogram:
		h := c.hist
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := labelKey([]Label{L("le", formatValue(bound))})
			key := c.key
			if key != "" {
				key += ","
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s%s} %d\n", f.name, key, le, cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		key := c.key
		if key != "" {
			key += ","
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, key, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(c.key), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(c.key), h.Count())
		return err
	}
	return nil
}

func braced(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

// formatValue renders a float the way the exposition format expects:
// integral values without a decimal point, everything else in shortest
// round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler returns an http.Handler serving the scrape output — mount it on
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
