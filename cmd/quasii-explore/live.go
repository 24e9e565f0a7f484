// Live mode: instead of driving an in-process index, -live polls a running
// quasii-serve instance and renders what its introspection endpoints expose
// — the convergence counters from /stats, the tile×depth heat grid from
// /debug/heat, and the hottest tiles from /debug/index. The text report goes
// to stdout (a heat histogram per sample); -csv appends machine-readable
// rows for EXPERIMENTS.md-style analysis. Every fetch strictly decodes the
// response into the types the server encodes (the engine's own
// shard.IndexReport for /debug/index), so a malformed or drifted payload
// fails the run — scripts/persistence-smoke.sh uses that as its
// JSON validator across the restart cycle.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

type liveOptions struct {
	url      string        // base URL of the running server
	interval time.Duration // pause between samples
	samples  int           // number of polls
	maxDepth int           // ?maxdepth= forwarded to /debug/index
	topK     int           // hottest tiles to list per sample
	csvPath  string        // CSV output file; empty disables
}

// fetchJSON GETs url and strictly decodes the body into v: non-200 status,
// unreadable body, malformed JSON and unknown fields are all errors.
func fetchJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("GET %s: reading body: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, firstLine(body))
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("GET %s: malformed JSON: %w", url, err)
	}
	return nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// waitReady polls /readyz until the server reports ready, so a probe
// launched alongside a warm restart does not race the restore. It fails —
// rather than proceeding — when readiness does not arrive in time, which is
// exactly the premature-readiness check the persistence smoke test wants.
func waitReady(client *http.Client, base string, timeout time.Duration) (server.ReadyResponse, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		var ready server.ReadyResponse
		err := fetchJSON(client, base+"/readyz", &ready)
		if err == nil && ready.Ready {
			return ready, nil
		}
		if err == nil {
			lastErr = fmt.Errorf("server not ready (status %q)", ready.Status)
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return server.ReadyResponse{}, fmt.Errorf("waiting for %s/readyz: %w", base, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// runLive is the -live entry point: wait for readiness, then poll and render
// opt.samples convergence/heat reports.
func runLive(opt liveOptions) error {
	client := &http.Client{Timeout: 15 * time.Second}
	base := strings.TrimSuffix(opt.url, "/")

	ready, err := waitReady(client, base, 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("connected to %s (ready)\n", base)
	if rec := ready.Recovery; rec != nil {
		fmt.Printf("recovery: snapshot seq %d, %d WAL records replayed, bootstrapped=%v, restore %.3fs\n",
			rec.SnapshotSeq, rec.WALRecordsReplayed, rec.Bootstrapped, rec.RestoreSeconds)
	}

	var csv *os.File
	if opt.csvPath != "" {
		csv, err = os.Create(opt.csvPath)
		if err != nil {
			return err
		}
		defer csv.Close()
		fmt.Fprintln(csv, "sample,shard,level,slices,refined,heat")
	}

	for i := 0; i < opt.samples; i++ {
		if i > 0 {
			time.Sleep(opt.interval)
		}
		var stats server.StatsResponse
		if err := fetchJSON(client, base+"/stats", &stats); err != nil {
			return err
		}
		var heat server.DebugHeatResponse
		if err := fetchJSON(client, base+"/debug/heat", &heat); err != nil {
			return err
		}
		var index shard.IndexReport
		if err := fetchJSON(client, fmt.Sprintf("%s/debug/index?maxdepth=%d", base, opt.maxDepth), &index); err != nil {
			return err
		}
		renderSample(i+1, opt, &stats, &heat, &index)
		if csv != nil {
			writeHeatCSV(csv, i+1, &heat)
		}
	}
	return nil
}

// renderSample prints one convergence/heat report.
func renderSample(sample int, opt liveOptions, stats *server.StatsResponse, heat *server.DebugHeatResponse, index *shard.IndexReport) {
	ix := stats.Index
	fmt.Printf("\n=== sample %d/%d  uptime %.1fs ===\n", sample, opt.samples, stats.UptimeSeconds)
	fmt.Printf("convergence: %d slices refined (of %d created), %d exclusive + %d shared queries, converged=%v\n",
		ix.SlicesRefined, ix.Slices, ix.Queries, ix.SharedQueries, index.Converged)
	fmt.Printf("heat: sample-every %d, total %d sampled touches across %d materialized slices\n",
		heat.HeatSampleEvery, heat.TotalHeat, index.Slices)

	// The tile×depth grid: one bar per tile, scaled to the hottest tile.
	maxHeat := int64(1)
	for _, t := range heat.Tiles {
		if t.TotalHeat > maxHeat {
			maxHeat = t.TotalHeat
		}
	}
	fmt.Println("tile heat (per-level slices:refined:heat):")
	for _, t := range heat.Tiles {
		bar := strings.Repeat("#", int(t.TotalHeat*40/maxHeat))
		cells := make([]string, 0, len(t.Levels))
		for _, c := range t.Levels {
			cells = append(cells, fmt.Sprintf("L%d %d:%d:%d", c.Level, c.Slices, c.Refined, c.Heat))
		}
		fmt.Printf("  shard %-8s %8d |%-40s| %s converged=%v\n",
			t.Shard, t.TotalHeat, bar, strings.Join(cells, "  "), t.Converged)
	}

	// The hottest tiles with their hottest slices — the "which tiles did the
	// work behind the plateau" view.
	tiles := append([]shard.TileReport(nil), index.Tiles...)
	sort.Slice(tiles, func(a, b int) bool { return tiles[a].TotalHeat > tiles[b].TotalHeat })
	k := opt.topK
	if k > len(tiles) {
		k = len(tiles)
	}
	fmt.Printf("hottest %d tiles:\n", k)
	for _, t := range tiles[:k] {
		fmt.Printf("  shard %-8s heat %-8d max-slice %-6d slices %d/%d refined, epoch %d, objects %d\n",
			t.Shard, t.TotalHeat, t.MaxHeat, t.SlicesRefined, t.Slices, t.Epoch, t.Objects)
	}
}

// writeHeatCSV appends one sample's grid as CSV rows.
func writeHeatCSV(w io.Writer, sample int, heat *server.DebugHeatResponse) {
	for _, t := range heat.Tiles {
		for _, c := range t.Levels {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", sample, t.Shard, c.Level, c.Slices, c.Refined, c.Heat)
		}
	}
}
