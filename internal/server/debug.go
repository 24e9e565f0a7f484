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
// Box coordinates cross the wire as strings, not JSON numbers: unrefined
// slices carry ±Inf bounds in not-yet-sliced dimensions, which JSON numbers
// cannot represent (the same reason the snapshot manifest strings its boxes).

package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
)

// DebugBoxJSON is a geom.Box on the debug wire: coordinates as strings so
// ±Inf survives JSON. strconv round-trips every finite float64 exactly.
type DebugBoxJSON struct {
	Min [geom.Dims]string `json:"min"`
	Max [geom.Dims]string `json:"max"`
}

func debugBox(b geom.Box) DebugBoxJSON {
	var out DebugBoxJSON
	for d := 0; d < geom.Dims; d++ {
		out.Min[d] = strconv.FormatFloat(b.Min[d], 'g', -1, 64)
		out.Max[d] = strconv.FormatFloat(b.Max[d], 'g', -1, 64)
	}
	return out
}

// DebugSliceJSON is one hierarchy node on the debug wire; fields mirror
// core.SliceReport.
type DebugSliceJSON struct {
	Level       int              `json:"level"`
	Lo          int              `json:"lo"`
	Hi          int              `json:"hi"`
	Count       int              `json:"count"`
	Box         DebugBoxJSON     `json:"box"`
	Refined     bool             `json:"refined"`
	Converged   bool             `json:"converged"`
	Heat        int64            `json:"heat"`
	SubtreeHeat int64            `json:"subtree_heat"`
	ChildSlices int              `json:"child_slices"`
	Children    []DebugSliceJSON `json:"children,omitempty"`
}

func debugSlices(list []core.SliceReport) []DebugSliceJSON {
	if len(list) == 0 {
		return nil
	}
	out := make([]DebugSliceJSON, len(list))
	for i := range list {
		s := &list[i]
		out[i] = DebugSliceJSON{
			Level:       s.Level,
			Lo:          s.Lo,
			Hi:          s.Hi,
			Count:       s.Count,
			Box:         debugBox(s.Box),
			Refined:     s.Refined,
			Converged:   s.Converged,
			Heat:        s.Heat,
			SubtreeHeat: s.SubtreeHeat,
			ChildSlices: s.ChildSlices,
			Children:    debugSlices(s.Children),
		}
	}
	return out
}

// DebugTileJSON is one shard's snapshot on the debug wire: the tile identity
// plus the sub-index report flattened in.
type DebugTileJSON struct {
	Shard   string       `json:"shard"`
	Tile    DebugBoxJSON `json:"tile"`
	Bounds  DebugBoxJSON `json:"bounds"`
	Objects int          `json:"objects"`
	// Supported is always true (every sub-index is a QUASII index); the
	// field stays because strict decoders of this schema carry it.
	Supported bool `json:"supported"`

	Pending         int              `json:"pending"`
	Deleted         int              `json:"deleted"`
	Tau             [geom.Dims]int   `json:"tau"`
	Epoch           uint64           `json:"epoch"`
	Converged       bool             `json:"converged"`
	Slices          int              `json:"slices"`
	SlicesRefined   int              `json:"slices_refined"`
	HeatSampleEvery int              `json:"heat_sample_every"`
	TotalHeat       int64            `json:"total_heat"`
	MaxHeat         int64            `json:"max_heat"`
	Root            []DebugSliceJSON `json:"root,omitempty"`
}

// DebugIndexResponse answers GET /debug/index.
type DebugIndexResponse struct {
	Shards  int          `json:"shards"`
	Workers int          `json:"workers"`
	Objects int          `json:"objects"`
	TileMBB DebugBoxJSON `json:"tile_mbb"`
	// MaxDepth is the effective truncation depth of the per-tile trees
	// (after clamping ?maxdepth= to [1, dims]).
	MaxDepth int `json:"max_depth"`
	// Converged, Slices, SlicesRefined and TotalHeat aggregate over every
	// tile.
	Converged     bool  `json:"converged"`
	Slices        int   `json:"slices"`
	SlicesRefined int   `json:"slices_refined"`
	TotalHeat     int64 `json:"total_heat"`

	Tiles []DebugTileJSON `json:"tiles"`
}

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
	if maxDepth <= 0 || maxDepth > geom.Dims {
		maxDepth = geom.Dims
	}
	rep := s.ix.Inspect(maxDepth)
	resp := DebugIndexResponse{
		Shards:    rep.Shards,
		Workers:   rep.Workers,
		Objects:   rep.Objects,
		TileMBB:   debugBox(rep.TileMBB),
		MaxDepth:  maxDepth,
		Converged: true,
		Tiles:     make([]DebugTileJSON, 0, len(rep.Tiles)),
	}
	for i := range rep.Tiles {
		t := &rep.Tiles[i]
		tile := DebugTileJSON{
			Shard:     t.Shard,
			Tile:      debugBox(t.Tile),
			Bounds:    debugBox(t.Bounds),
			Objects:   t.Objects,
			Supported: true,

			Pending:         t.Index.Pending,
			Deleted:         t.Index.Deleted,
			Tau:             t.Index.Tau,
			Epoch:           t.Index.Epoch,
			Converged:       t.Index.Converged,
			Slices:          t.Index.Slices,
			SlicesRefined:   t.Index.SlicesRefined,
			HeatSampleEvery: t.Index.HeatSampleEvery,
			TotalHeat:       t.Index.TotalHeat,
			MaxHeat:         t.Index.MaxHeat,
			Root:            debugSlices(t.Index.Root),
		}
		resp.Slices += t.Index.Slices
		resp.SlicesRefined += t.Index.SlicesRefined
		resp.TotalHeat += t.Index.TotalHeat
		resp.Converged = resp.Converged && t.Index.Converged
		resp.Tiles = append(resp.Tiles, tile)
	}
	writeJSON(w, http.StatusOK, resp)
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
		row.Converged = t.Index.Converged
		row.TotalHeat = t.Index.TotalHeat
		slices, refined, heat := t.Index.HeatByLevel()
		row.Levels = make([]HeatCellJSON, geom.Dims)
		for lvl := 0; lvl < geom.Dims; lvl++ {
			row.Levels[lvl] = HeatCellJSON{
				Level:   lvl,
				Slices:  slices[lvl],
				Refined: refined[lvl],
				Heat:    heat[lvl],
			}
		}
		if t.Index.HeatSampleEvery > resp.HeatSampleEvery {
			resp.HeatSampleEvery = t.Index.HeatSampleEvery
		}
		resp.TotalHeat += t.Index.TotalHeat
		resp.Tiles = append(resp.Tiles, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

// Inspect exposes the engine snapshot to in-process callers (tests, tools
// embedding the server). The HTTP surface is /debug/index.
func (s *Server) Inspect(maxDepth int) shard.IndexReport { return s.ix.Inspect(maxDepth) }
