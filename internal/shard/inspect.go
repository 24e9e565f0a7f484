// Engine-level introspection: one IndexReport aggregating the per-tile
// hierarchy snapshots of every healthy shard. The serving layer serves it
// as /debug/index and buckets it into /debug/heat; quasii-explore renders
// both.

package shard

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
)

// TileReport is one shard's slice of the engine report. The sub-index
// report is embedded, so its fields sit beside the tile's own in JSON; the
// tile's Objects shadows the embedded one.
type TileReport struct {
	// Shard names the tile by its index in build order, "0".."N-1".
	// Matches the shard label on the per-shard telemetry gauges.
	Shard string `json:"shard"`
	// Tile is the build-time STR tile MBB (immutable; routes inserts);
	// Bounds is the live MBB, which only ever grows.
	Tile   geom.StringBox `json:"tile"`
	Bounds geom.StringBox `json:"bounds"`
	// Objects counts rows in the shard's sub-index.
	Objects int `json:"objects"`
	core.InspectReport
}

// IndexReport is a point-in-time snapshot of the whole sharded engine, and
// the body of the server's GET /debug/index.
type IndexReport struct {
	// Shards counts the spatial shards, quarantined ones included,
	// matching Stats.Shards.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Objects sums the per-tile object counts at snapshot time.
	Objects int `json:"objects"`
	// TileMBB is the union of the build-time tiles.
	TileMBB geom.StringBox `json:"tile_mbb"`
	// MaxDepth is the effective truncation depth of the per-tile slice
	// trees, in [1, geom.Dims].
	MaxDepth int `json:"max_depth"`
	// Converged, Slices, SlicesRefined and TotalHeat aggregate over every
	// tile.
	Converged     bool  `json:"converged"`
	Slices        int   `json:"slices"`
	SlicesRefined int   `json:"slices_refined"`
	TotalHeat     int64 `json:"total_heat"`
	// Tiles holds one report per healthy shard, in build order.
	Tiles []TileReport `json:"tiles"`
}

// Inspect snapshots every healthy shard under its read lock and aggregates the
// per-tile reports. maxDepth is forwarded to each sub-index (see
// core.Index.Inspect); values <= 0 or > geom.Dims mean the full hierarchy.
// The walk rides with shared-path readers, so a concurrent cracking query on
// some shard delays only that shard's entry. Shards are snapshotted in turn,
// not atomically — tiles may disagree by a few in-flight queries, which is
// fine for an observability surface.
func (ix *Index) Inspect(maxDepth int) IndexReport {
	if maxDepth <= 0 || maxDepth > geom.Dims {
		maxDepth = geom.Dims
	}
	rep := IndexReport{
		Shards:    len(ix.shards),
		Workers:   ix.workers,
		TileMBB:   geom.StringBox(ix.tileUnion()),
		MaxDepth:  maxDepth,
		Converged: true,
		Tiles:     make([]TileReport, 0, len(ix.shards)),
	}
	for i, sh := range ix.shards {
		if sh.quarantined.Load() {
			continue
		}
		t := TileReport{Shard: strconv.Itoa(i), Tile: geom.StringBox(sh.tile), Bounds: geom.StringBox(sh.boundsBox())}
		sh.mu.RLock()
		t.Objects = sh.sub.Len()
		t.InspectReport = sh.sub.Inspect(maxDepth)
		sh.mu.RUnlock()
		rep.Objects += t.Objects
		rep.Converged = rep.Converged && t.Converged
		rep.Slices += t.Slices
		rep.SlicesRefined += t.SlicesRefined
		rep.TotalHeat += t.TotalHeat
		rep.Tiles = append(rep.Tiles, t)
	}
	return rep
}
