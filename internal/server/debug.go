// The index-introspection debug endpoints:
//
//   - GET /debug/index  the full hierarchy snapshot (shard.IndexReport) as
//     JSON, per-slice heat included; ?maxdepth=N truncates the per-tile
//     slice trees to N levels (aggregates stay exact)
//   - GET /debug/heat   the compact tile×depth heat grid: per shard, per
//     hierarchy level, slice/refined counts and summed heat
//
// Both stay outside admission control next to /debug/slowlog — introspection
// must answer while the server sheds load — but unlike the slowlog they take
// each shard's read lock in turn, so they ride with shared readers and queue
// behind cracking writers exactly like /stats does.
//
// /debug/index is the engine's own report: box coordinates cross the wire
// as strings (geom.StringBox), because unrefined slices carry ±Inf bounds in
// not-yet-sliced dimensions, which JSON numbers cannot represent.

package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/geom"
)

// HeatCellJSON is one (tile, level) cell of the /debug/heat grid.
type HeatCellJSON struct {
	Level   int   `json:"level"`
	Slices  int   `json:"slices"`
	Refined int   `json:"refined"`
	Heat    int64 `json:"heat"`
}

// HeatTileJSON is one grid row: a shard with its per-level cells.
type HeatTileJSON struct {
	Shard     string         `json:"shard"`
	Objects   int            `json:"objects"`
	Converged bool           `json:"converged"`
	TotalHeat int64          `json:"total_heat"`
	Levels    []HeatCellJSON `json:"levels"`
}

// DebugHeatResponse answers GET /debug/heat: the tile×depth heat grid.
type DebugHeatResponse struct {
	// HeatSampleEvery is the engine's sampling period (0 when heat tracking
	// is disabled; counters then stay at zero). Multiply heat by it for an
	// estimate of real slice touches.
	HeatSampleEvery int            `json:"heat_sample_every"`
	TotalHeat       int64          `json:"total_heat"`
	Tiles           []HeatTileJSON `json:"tiles"`
}

// handleDebugIndex renders the hierarchy snapshot. ?maxdepth=N keeps only N
// levels of each tile's slice tree (1 = level-0 slices only); absent, 0 or
// out-of-range values mean the full hierarchy.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	maxDepth := 0
	if v := r.URL.Query().Get("maxdepth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			badRequest(w, fmt.Errorf("maxdepth: %w", err))
			return
		}
		maxDepth = n
	}
	writeJSON(w, http.StatusOK, s.ix.Inspect(maxDepth))
}

// handleDebugHeat renders the tile×depth heat grid: the same census as
// /debug/index, bucketed per hierarchy level and stripped of the slice trees
// — small enough to poll every second.
func (s *Server) handleDebugHeat(w http.ResponseWriter, r *http.Request) {
	rep := s.ix.Inspect(0) // full depth: the grid needs every level
	resp := DebugHeatResponse{Tiles: make([]HeatTileJSON, 0, len(rep.Tiles))}
	for i := range rep.Tiles {
		t := &rep.Tiles[i]
		row := HeatTileJSON{Shard: t.Shard, Objects: t.Objects}
		row.Converged = t.Converged
		row.TotalHeat = t.TotalHeat
		slices, refined, heat := t.HeatByLevel()
		row.Levels = make([]HeatCellJSON, geom.Dims)
		for lvl := 0; lvl < geom.Dims; lvl++ {
			row.Levels[lvl] = HeatCellJSON{
				Level:   lvl,
				Slices:  slices[lvl],
				Refined: refined[lvl],
				Heat:    heat[lvl],
			}
		}
		if t.HeatSampleEvery > resp.HeatSampleEvery {
			resp.HeatSampleEvery = t.HeatSampleEvery
		}
		resp.TotalHeat += t.TotalHeat
		resp.Tiles = append(resp.Tiles, row)
	}
	writeJSON(w, http.StatusOK, resp)
}
