// Engine-level introspection: one IndexReport aggregating the per-tile
// hierarchy snapshots of every healthy shard. The serving layer
// turns this into /debug/index and /debug/heat; quasii-explore renders it.

package shard

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
)

// TileReport is one shard's slice of the engine report.
type TileReport struct {
	// Shard names the tile by its index in build order, "0".."N-1".
	// Matches the shard label on the per-shard telemetry gauges.
	Shard string `json:"shard"`
	// Tile is the build-time STR tile MBB (immutable; routes inserts);
	// Bounds is the live MBB, which only ever grows.
	Tile   geom.Box `json:"tile"`
	Bounds geom.Box `json:"bounds"`
	// Objects counts rows in the shard's sub-index.
	Objects int `json:"objects"`
	// Index is the sub-index hierarchy snapshot.
	Index core.InspectReport `json:"index"`
}

// IndexReport is a point-in-time snapshot of the whole sharded engine.
type IndexReport struct {
	// Shards counts the spatial shards, quarantined ones included,
	// matching Stats.Shards.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Objects sums the per-tile object counts at snapshot time.
	Objects int `json:"objects"`
	// TileMBB is the union of the build-time tiles.
	TileMBB geom.Box `json:"tile_mbb"`
	// Tiles holds one report per healthy shard, in build order.
	Tiles []TileReport `json:"tiles"`
}

// Inspect snapshots every healthy shard under its read lock and aggregates the
// per-tile reports. maxDepth is forwarded to each sub-index (see
// core.Index.Inspect); the walk rides with shared-path readers, so a
// concurrent cracking query on some shard delays only that shard's entry.
// Shards are snapshotted in turn, not atomically — tiles may disagree by a
// few in-flight queries, which is fine for an observability surface.
func (ix *Index) Inspect(maxDepth int) IndexReport {
	rep := IndexReport{
		Shards:  len(ix.shards),
		Workers: ix.workers,
		TileMBB: ix.tileUnion(),
	}
	for i, sh := range ix.shards {
		if sh.quarantined.Load() {
			continue
		}
		t := TileReport{Shard: strconv.Itoa(i), Tile: sh.tile, Bounds: sh.boundsBox()}
		sh.mu.RLock()
		t.Objects = sh.sub.Len()
		t.Index = sh.sub.Inspect(maxDepth)
		sh.mu.RUnlock()
		rep.Objects += t.Objects
		rep.Tiles = append(rep.Tiles, t)
	}
	return rep
}
