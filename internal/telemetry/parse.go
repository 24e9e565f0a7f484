// A strict parser for the Prometheus text exposition the registry renders.
// It closes the loop on our own output: the e2e tests, the loadgen oracle's
// client-vs-server latency cross-check, and the CI smoke script all scrape
// GET /metrics and refuse to proceed when a line fails to parse — so a
// rendering regression is caught by three independent consumers, not by a
// dashboard going quietly blank.
//
// The grammar accepted is deliberately the subset WriteText emits (plus
// whitespace tolerance): "# HELP"/"# TYPE" comments, then sample lines
// `name{label="value",...} number`. It is not a general Prometheus parser —
// exotic escapes, exemplars, and timestamps are rejected loudly.

package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed metric sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed /metrics payload.
type Scrape struct {
	// Types maps family name to its declared TYPE (counter, gauge,
	// histogram, untyped).
	Types map[string]string
	// Samples holds every sample line in input order. Histogram series
	// appear under their rendered names (name_bucket, name_sum, name_count).
	Samples []Sample
}

// Label returns s's value for key, or "".
func (s Sample) Label(key string) string { return s.Labels[key] }

// ParseText parses a Prometheus text-format payload. Any malformed line is
// an error — consumers of our own exposition treat parse failure as a bug,
// never as data to skip.
func ParseText(text string) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, " \t\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := sc.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		sc.Samples = append(sc.Samples, s)
	}
	return sc, nil
}

// parseComment handles "# HELP name text" and "# TYPE name kind" lines.
// Other comments are tolerated; malformed TYPE lines are not.
func (sc *Scrape) parseComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare "#" comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		sc.Types[fields[2]] = fields[3]
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	}
	return nil
}

// parseSample parses one `name{l="v",...} value` line.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	rest := line
	// Metric name: up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		labels, after, err := parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = after
	}
	rest = strings.TrimLeft(rest, " \t")
	if rest == "" || strings.ContainsAny(rest, " \t") {
		// A trailing field would be a timestamp (or garbage) — WriteText
		// never emits one, so its presence means we are not parsing our
		// own exposition.
		return s, fmt.Errorf("expected single value in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses the label pairs after a sample's '{' up to the '}'
// that closes the set — outside the quoted values, which may hold any byte —
// and returns them with the text after that '}'.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair")
		}
		key := rest[:eq]
		if !validLabelName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("unquoted label value")
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, "", fmt.Errorf("dangling escape")
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c", rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, "", fmt.Errorf("unterminated label value")
		}
		labels[key] = val.String()
		switch {
		case rest != "" && rest[0] == ',':
			rest = rest[1:]
		case rest != "" && rest[0] != '}':
			return nil, "", fmt.Errorf("expected ',' between labels")
		}
	}
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}

func validLabelName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}

// Value returns the single sample for name whose labels match want exactly
// (ignoring any extra labels in the sample when want is nil). ok reports
// whether a match was found.
func (sc *Scrape) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range sc.Samples {
		if s.Name != name {
			continue
		}
		if matchLabels(s.Labels, want) {
			return s.Value, true
		}
	}
	return 0, false
}

func matchLabels(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// bucket is a cumulative histogram bucket: observations at or below le.
type bucket struct{ le, count float64 }

// HistogramQuantile estimates quantile q (0..1) from the rendered
// <name>_bucket series carrying the given non-le labels (see bucketQuantile
// for the estimate). ok is false when the histogram is absent or empty.
func (sc *Scrape) HistogramQuantile(name string, labels map[string]string, q float64) (float64, bool) {
	var buckets []bucket
	for _, s := range sc.Samples {
		if s.Name != name+"_bucket" || !matchLabels(s.Labels, labels) {
			continue
		}
		le, err := parseLE(s.Label("le"))
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: le, count: s.Value})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	return bucketQuantile(buckets, q)
}

// bucketQuantile estimates quantile q (0..1) from cumulative buckets in
// ascending bound order, using linear interpolation within the bucket that
// holds the target rank — the same estimate promql's histogram_quantile
// computes. It is the one estimator behind both a parsed scrape and a live
// Histogram, so the two cannot disagree. ok is false when the histogram is
// empty.
func bucketQuantile(buckets []bucket, q float64) (float64, bool) {
	if len(buckets) == 0 || buckets[len(buckets)-1].count == 0 {
		return 0, false
	}
	rank := q * buckets[len(buckets)-1].count
	for i, b := range buckets {
		if b.count < rank {
			continue
		}
		if i == len(buckets)-1 && math.IsInf(b.le, 1) {
			// Rank lands in the overflow bucket: the best point estimate
			// is the highest finite bound.
			if i == 0 {
				return 0, false
			}
			return buckets[i-1].le, true
		}
		lower, lowerCount := 0.0, 0.0
		if i > 0 {
			lower, lowerCount = buckets[i-1].le, buckets[i-1].count
		}
		width := b.count - lowerCount
		if width <= 0 {
			return b.le, true
		}
		return lower + (b.le-lower)*(rank-lowerCount)/width, true
	}
	return buckets[len(buckets)-1].le, true
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
