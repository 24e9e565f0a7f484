// Server-side cross-check for load-generation runs: scrape GET /metrics
// after the run, parse the exposition strictly, and compare the server's
// own request accounting and latency histograms against what the client
// measured. A server whose /metrics output is malformed, missing expected
// series, or inconsistent with the traffic just driven fails the run — the
// observability layer is validated by the same oracle flow that validates
// query results.

package bench

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// MetricsReport is the server-side view of a finished loadgen run.
type MetricsReport struct {
	// QueryRequests is quasii_http_requests_total{endpoint="query"}.
	QueryRequests float64
	// Server-side latency quantiles, interpolated from the
	// quasii_http_request_duration_seconds{endpoint="query"} buckets.
	ServerP50, ServerP95, ServerP99 time.Duration
	// SlicesRefined and SharedRatio are the convergence observables
	// (quasii_core_slices_refined_total, quasii_core_shared_ratio).
	SlicesRefined float64
	SharedRatio   float64
	// DurableChecked is true when the target runs a durable store (the
	// quasii_durable_degraded gauge is on the scrape); the failure-model
	// series below are then required and cross-checked.
	DurableChecked bool
	// Degraded is quasii_durable_degraded: 1 while the store is in
	// read-only degraded mode, 0 otherwise (any other value is a Problem).
	Degraded float64
	// WALRetries is quasii_wal_retry_total, FaultsInjected is
	// quasii_fault_injected_total (0 on a real filesystem).
	WALRetries     float64
	FaultsInjected float64
	// Problems lists cross-check violations; empty means consistent.
	Problems []string
}

// ScrapeMetrics fetches and strictly parses baseURL/metrics, extracts the
// serving and convergence series, and cross-checks them against res. It
// returns an error when the scrape cannot be fetched or parsed (which a
// caller should treat as a failed run); internal inconsistencies land in
// Problems instead.
func ScrapeMetrics(client *http.Client, baseURL string, res *LoadgenResult) (*MetricsReport, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("fetching /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	sc, err := telemetry.ParseText(string(body))
	if err != nil {
		return nil, fmt.Errorf("unparsable /metrics exposition: %w", err)
	}

	r := &MetricsReport{}
	queryLbl := map[string]string{"endpoint": "query"}
	var ok bool
	if r.QueryRequests, ok = sc.Value("quasii_http_requests_total", queryLbl); !ok {
		r.Problems = append(r.Problems, `quasii_http_requests_total{endpoint="query"} missing`)
	}
	quantile := func(q float64) time.Duration {
		v, ok := sc.HistogramQuantile("quasii_http_request_duration_seconds", queryLbl, q)
		if !ok {
			r.Problems = append(r.Problems,
				fmt.Sprintf("request duration p%g not computable from histogram buckets", q*100))
			return 0
		}
		return seconds(v)
	}
	r.ServerP50 = quantile(0.50)
	r.ServerP95 = quantile(0.95)
	r.ServerP99 = quantile(0.99)
	if r.SlicesRefined, ok = sc.Value("quasii_core_slices_refined_total", nil); !ok {
		r.Problems = append(r.Problems, "quasii_core_slices_refined_total missing")
	}
	if r.SharedRatio, ok = sc.Value("quasii_core_shared_ratio", nil); !ok {
		r.Problems = append(r.Problems, "quasii_core_shared_ratio missing")
	}

	// Failure-model series: present iff the server runs a durable store.
	// The degraded gauge is the sentinel; once it is there, the retry and
	// fault-injection counters must be too — a chaos or fault-injection run
	// that cannot observe them is not validating what it thinks it is.
	if r.Degraded, ok = sc.Value("quasii_durable_degraded", nil); ok {
		r.DurableChecked = true
		if r.Degraded != 0 && r.Degraded != 1 {
			r.Problems = append(r.Problems, fmt.Sprintf(
				"quasii_durable_degraded = %g, want 0 or 1", r.Degraded))
		}
		if r.WALRetries, ok = sc.Value("quasii_wal_retry_total", nil); !ok {
			r.Problems = append(r.Problems, "quasii_wal_retry_total missing from durable server")
		}
		if r.FaultsInjected, ok = sc.Value("quasii_fault_injected_total", nil); !ok {
			r.Problems = append(r.Problems, "quasii_fault_injected_total missing from durable server")
		}
	}

	// Cross-checks against the client-side counters. The server counts every
	// /query request it saw, so its total must cover at least the queries the
	// client got 200s for (retries and other runs only push it higher).
	if res != nil {
		if r.QueryRequests < float64(res.Queries) {
			r.Problems = append(r.Problems, fmt.Sprintf(
				"server counted %.0f /query requests but the client completed %d",
				r.QueryRequests, res.Queries))
		}
		if n, ok := sc.Value("quasii_http_request_duration_seconds_count", queryLbl); ok {
			if n < float64(res.Queries) {
				r.Problems = append(r.Problems, fmt.Sprintf(
					"duration histogram holds %.0f observations, client completed %d queries",
					n, res.Queries))
			}
		} else {
			r.Problems = append(r.Problems, "quasii_http_request_duration_seconds_count missing")
		}
	}
	return r, nil
}

// PrintMetricsReport writes the server-side percentiles (to read next to
// the client-side ones PrintLoadgen printed), the convergence observables,
// and any cross-check problems.
func PrintMetricsReport(w io.Writer, r *MetricsReport) {
	fmt.Fprintf(w, "server /metrics: %.0f /query requests, latency p50 %v  p95 %v  p99 %v (from histogram buckets)\n",
		r.QueryRequests, r.ServerP50, r.ServerP95, r.ServerP99)
	fmt.Fprintf(w, "convergence: %.0f slices refined, shared-path ratio %.3f\n",
		r.SlicesRefined, r.SharedRatio)
	if r.DurableChecked {
		fmt.Fprintf(w, "durable: degraded %.0f, %.0f WAL retries, %.0f faults injected\n",
			r.Degraded, r.WALRetries, r.FaultsInjected)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "metrics cross-check FAILED: %s\n", p)
	}
}
