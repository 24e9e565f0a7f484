// Package quasii is a Go implementation of QUASII — the QUery-Aware Spatial
// Incremental Index of Pavlovic, Sidlauskas, Heinis and Ailamaki (EDBT 2018)
// — together with every baseline the paper evaluates it against.
//
// QUASII indexes 3-d boxes in main memory without a pre-processing step:
// the index is built incrementally, as a side effect of executing range
// queries, by partially sorting (cracking) the data array on each query's
// bounds one dimension at a time. The first query is therefore almost as
// cheap as a scan, while frequently queried regions converge to the query
// performance of a bulk-loaded R-tree.
//
// # Quick start
//
//	objects := []quasii.Object{ ... }
//	ix := quasii.NewQUASII(objects, quasii.QUASIIConfig{})
//	hits := ix.Query(quasii.NewBox(
//		quasii.Point{0, 0, 0}, quasii.Point{10, 10, 10}), nil)
//
// NewQUASII takes ownership of the slice and reorganizes it in place; pass a
// copy if the order matters to you.
//
// # Baselines
//
// The package also exposes the paper's comparison systems under the same
// Index interface: a full Scan, a static Z-order curve index (NewSFC) and
// its incremental cracking variant (NewSFCracker), a uniform Grid with both
// replication and query-extension assignment, Mosaic (an incremental
// octree), and an STR bulk-loaded R-tree (NewRTree, which additionally
// offers k-nearest-neighbor search).
package quasii

import (
	"context"
	"io"
	"log/slog"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mosaic"
	"repro/internal/repl"
	"repro/internal/rtree"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/sfc"
	"repro/internal/shard"
	"repro/internal/syncidx"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Geometric primitives, re-exported from the internal geometry package.
type (
	// Point is a point in 3-d space.
	Point = geom.Point
	// Box is an axis-aligned 3-d box with Min and Max corners.
	Box = geom.Box
	// Object is a spatial object: a bounding box plus a stable ID.
	Object = geom.Object
)

// Dims is the dimensionality of the spatial domain (3).
const Dims = geom.Dims

// NewBox returns the box spanning two corner points (normalized).
func NewBox(a, b Point) Box { return geom.NewBox(a, b) }

// BoxAt returns the cube with the given center and side length.
func BoxAt(center Point, side float64) Box { return geom.BoxAt(center, side) }

// MBB returns the minimum bounding box of the given objects.
func MBB(objs []Object) Box { return geom.MBB(objs) }

// Index is the query interface shared by every spatial index in this module.
// Query appends the IDs of all objects whose boxes intersect q to out and
// returns the extended slice. Incremental indexes (QUASII, SFCracker,
// Mosaic) refine themselves as a side effect of Query.
type Index interface {
	Len() int
	Query(q Box, out []int32) []int32
}

// QUASII, the paper's contribution.
type (
	// QUASII is the query-aware spatial incremental index (internal/core).
	QUASII = core.Index
	// QUASIIConfig configures QUASII; the zero value selects the paper's
	// defaults (τ = 60). Objects are always assigned to slices by their
	// lower corner, artificial refinement is always on, and a band an
	// earlier query left over 2·τ₀ rows is halved before the query's cuts.
	QUASIIConfig = core.Config
	// QUASIIStats reports the cumulative indexing work QUASII performed.
	QUASIIStats = core.Stats
	// QUASIIVersion is one immutable MVCC snapshot of a QUASII index's
	// update state, obtained from PinVersion and released with Release.
	// While pinned, its view survives appends, deletes, flushes and
	// checkpoints; SaveVersion serializes exactly that view.
	QUASIIVersion = core.Version
)

// QUASIINeighbor is one kNN result from QUASII.KNN (implemented with
// expanding range queries, refining the index as a side effect).
type QUASIINeighbor = core.Neighbor

// NewQUASII builds a QUASII index over data. The index takes ownership of
// the slice: queries reorganize it in place. Construction is O(n); all
// indexing work happens inside Query.
func NewQUASII(data []Object, cfg QUASIIConfig) *QUASII { return core.New(data, cfg) }

// Static and incremental baselines.
type (
	// RTree is the STR bulk-loaded R-tree (static reference index).
	RTree = rtree.Tree
	// RTreeConfig configures the R-tree (node capacity, default 60).
	RTreeConfig = rtree.Config
	// Neighbor is one k-nearest-neighbor result from RTree.KNN.
	Neighbor = rtree.Neighbor
	// Grid is the uniform grid baseline.
	Grid = grid.Index
	// GridConfig configures the grid (resolution, assignment strategy).
	GridConfig = grid.Config
	// Mosaic is the space-oriented incremental baseline (query-driven octree).
	Mosaic = mosaic.Index
	// MosaicConfig configures Mosaic.
	MosaicConfig = mosaic.Config
	// SFC is the static Z-order curve index.
	SFC = sfc.Index
	// SFCracker is the incremental cracking variant of SFC.
	SFCracker = sfc.Cracker
	// SFCConfig configures both SFC variants: grid bits per dimension (at
	// most 21), the per-query interval cap and the universe. The curve is
	// always Z-order, the paper's.
	SFCConfig = sfc.Config
	// Scan is the full-scan baseline.
	Scan = scan.Index
)

// Grid assignment strategies for GridConfig.Assign.
const (
	// GridQueryExtension assigns objects by center and extends queries.
	GridQueryExtension = grid.QueryExtension
	// GridReplication assigns objects to every overlapping cell.
	GridReplication = grid.Replication
)

// NewRTree bulk-loads an R-tree over a copy of data using STR packing.
func NewRTree(data []Object, cfg RTreeConfig) *RTree { return rtree.New(data, cfg) }

// NewGrid builds a uniform grid over data (referenced, not copied).
func NewGrid(data []Object, cfg GridConfig) *Grid { return grid.New(data, cfg) }

// NewMosaic prepares a Mosaic incremental octree over data.
func NewMosaic(data []Object, cfg MosaicConfig) *Mosaic { return mosaic.New(data, cfg) }

// NewSFC builds the static Z-order index (transform + full sort).
func NewSFC(data []Object, cfg SFCConfig) *SFC { return sfc.New(data, cfg) }

// NewSFCracker prepares an SFCracker; the Z-order transformation is deferred
// to the first query, as in the paper.
func NewSFCracker(data []Object, cfg SFCConfig) *SFCracker { return sfc.NewCracker(data, cfg) }

// NewScan returns the full-scan baseline.
func NewScan(data []Object) *Scan { return scan.New(data) }

// Dataset and workload generators used by the paper's evaluation,
// re-exported for examples and downstream experiments.

// UniverseSide is the side length of the generators' cubic universe.
const UniverseSide = dataset.UniverseSide

// Universe returns the generators' cubic universe box.
func Universe() Box { return dataset.Universe() }

// UniformDataset generates the paper's synthetic dataset: n boxes uniform in
// the universe, 99 % with sides in [1,10] and 1 % in [10,1000].
func UniformDataset(n int, seed int64) []Object { return dataset.Uniform(n, seed) }

// NeuroConfig parameterizes the clustered neuroscience-like dataset.
type NeuroConfig = dataset.NeuroConfig

// NeuroDataset generates a skewed, clustered dataset standing in for the
// paper's rat-brain model (see DESIGN.md for the substitution rationale).
func NeuroDataset(n int, seed int64, cfg NeuroConfig) []Object {
	return dataset.Neuro(n, seed, cfg)
}

// CloneObjects returns a deep copy of objs — use it to share one dataset
// across indexes that reorganize their input in place.
func CloneObjects(objs []Object) []Object { return dataset.Clone(objs) }

// ClusteredQueries generates the paper's exploratory workload: clusters of
// cubic queries whose volume is selectivity × the universe volume, centered
// on the data.
func ClusteredQueries(data []Object, numClusters, perCluster int, selectivity, sigma float64, seed int64) []Box {
	return workload.ClusteredOn(dataset.Universe(), data, numClusters, perCluster, selectivity, sigma, seed)
}

// UniformQueries generates n uniformly placed cubic queries of the given
// selectivity.
func UniformQueries(n int, selectivity float64, seed int64) []Box {
	return workload.Uniform(dataset.Universe(), n, selectivity, seed)
}

// SequentialQueries generates a sweep of n adjacent queries marching across
// the universe along the given dimension — the "sequential" access pattern of
// the adaptive-indexing literature.
func SequentialQueries(n int, selectivity float64, dim int) []Box {
	return workload.Sequential(dataset.Universe(), n, selectivity, dim)
}

// ZipfQueries generates n queries whose centers follow a Zipfian hotspot
// distribution over cells of the universe — a heavily skewed exploratory
// pattern.
func ZipfQueries(n int, selectivity, skew float64, seed int64) []Box {
	return workload.Zipf(dataset.Universe(), n, selectivity, skew, seed)
}

// Synchronized wraps any index so it is safe for concurrent use. Incremental
// indexes mutate during Query, so even concurrent read-only workloads need
// this (or external locking). Static indexes (RTree, Grid, SFC, Scan) do
// not: their Query mutates nothing and may be called concurrently as is.
type Synchronized = syncidx.Index

// Synchronize returns a concurrency-safe view of ix. All access must go
// through the returned wrapper from then on.
func Synchronize(ix Index) *Synchronized { return syncidx.Wrap(ix) }

// The sharded parallel engine (internal/shard): spatial partitioning into P
// independently locked sub-indexes, giving both inter-query parallelism
// (queries on disjoint shards never contend) and intra-query fan-out.
type (
	// Sharded is the sharded parallel index. It satisfies Index, is safe
	// for concurrent use, and additionally offers QueryBatch and Stats.
	// Each shard sits behind a read-write lock: queries over converged
	// regions run through one shard concurrently on the sub-index's shared
	// read path, while cracking queries fall back to the exclusive lock
	// under a bounded crack budget (ShardedConfig.CrackBudget).
	Sharded = shard.Index
	// ShardedConfig configures sharding. The zero value selects GOMAXPROCS
	// shards, an equally sized worker pool, QUASII sub-indexes with the
	// paper's defaults (SubConfig), and the default per-query crack budget
	// (CrackBudget, the one concurrency knob).
	ShardedConfig = shard.Config
	// ShardedStats aggregates per-shard sizes and QUASII work counters
	// (Core.SharedQueries counts queries answered on the shared read path).
	ShardedStats = shard.Stats
)

// NewSharded partitions data into spatial shards (STR tiling) and builds one
// QUASII sub-index per shard. The input slice is copied; the caller keeps
// it. Beyond Query/QueryBatch, the sharded index accepts live updates
// (Insert, Delete, Flush) and kNN queries.
func NewSharded(data []Object, cfg ShardedConfig) *Sharded { return shard.New(data, cfg) }

// The network serving subsystem (internal/server): an HTTP/JSON query
// service over the sharded engine with request batching, admission control
// (429 backpressure instead of unbounded goroutine growth), live updates,
// and per-endpoint metrics. See cmd/quasii-serve for the standalone binary
// and cmd/quasii-loadgen for the matching load generator.
type (
	// Server is the HTTP query service. Mount Handler() into any
	// http.Server, or call ListenAndServe/Serve directly. Endpoints:
	// /query, /batch, /knn, /insert, /delete, /stats, /healthz, /readyz,
	// plus the introspection surface under /debug (index, heat, slowlog).
	Server = server.Server
	// ServerConfig tunes batching (BatchWindow, BatchLimit), admission
	// control (MaxInFlight, ExecSlots), update folding (FlushEvery), and
	// lifecycle logging (Logger, a *log/slog.Logger; nil discards).
	// The zero value is production-usable.
	ServerConfig = server.Config
)

// NewServer wires the HTTP query service over a sharded index.
func NewServer(ix *Sharded, cfg ServerConfig) *Server { return server.New(ix, cfg) }

// Observability (internal/telemetry): a dependency-free metrics registry
// rendered in Prometheus text format on the server's GET /metrics, plus
// sampled per-query stage tracing served at GET /debug/slowlog. The
// structural counterpart is the introspection layer: Index.Inspect and
// Sharded.Inspect snapshot the slice hierarchy with per-slice access heat
// (Config.HeatSampleEvery governs the sampling rate), and the server
// publishes it on GET /debug/index and GET /debug/heat. NewServer
// instruments the server and the engine automatically (on a private
// registry when ServerConfig.Telemetry is nil); pass an explicit registry —
// or use Server.Registry() — to put additional subsystems, most notably
// Store.Instrument, on the same scrape.
type (
	// MetricsRegistry collects counters, gauges and histograms and renders
	// the Prometheus text exposition. Safe for concurrent use.
	MetricsRegistry = telemetry.Registry
	// TraceEntry is one sampled slow-query trace as GET /debug/slowlog
	// serves it: per-stage timings, fan-out width, shared-vs-cracking probe
	// counts.
	TraceEntry = telemetry.TraceEntry
)

// NewMetricsRegistry builds an empty metrics registry, for sharing one
// scrape between the server (ServerConfig.Telemetry) and other subsystems.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Persistence. A QUASII index is the accumulated side effect of the queries
// executed against it, so durability preserves the convergence those
// queries paid for: Save/Load snapshot a single index (the columnar v2
// format; v1 snapshots load transparently), Sharded.Snapshot/RestoreSharded
// do the same for the sharded engine (per-shard files plus a manifest), and
// OpenStore adds a write-ahead log on top so live updates survive a crash —
// recovery is the latest snapshot plus the WAL tail. See
// docs/ARCHITECTURE.md for the lifecycle.

// Save serializes ix to w in the columnar snapshot format, preserving the
// data lanes, the full slice hierarchy with its refinement state, and any
// buffered updates. Equivalent to ix.Save(w).
func Save(ix *QUASII, w io.Writer) error { return ix.Save(w) }

// Load reconstructs a QUASII index previously serialized with Save. Both
// the current columnar format and legacy (v1, gob-only) snapshots load.
func Load(r io.Reader) (*QUASII, error) { return core.Load(r) }

// RestoreSharded reassembles a sharded index from a snapshot directory
// written by Sharded.Snapshot. cfg supplies the runtime knobs exactly as
// for NewSharded.
func RestoreSharded(dir string, cfg ShardedConfig) (*Sharded, error) {
	return shard.Restore(dir, cfg)
}

// The durable serving stack (internal/durable): a Store owns a sharded
// index, a data directory and a write-ahead log, keeping
// "durable state = latest snapshot + WAL tail" at all times.
type (
	// Store is a durable sharded index: Insert/Delete are logged before
	// they are acknowledged, Checkpoint writes a snapshot and truncates
	// the log, Close checkpoints so a restart needs no replay. Queries go
	// straight to Store.Index() — durability adds no read-path overhead.
	Store = durable.Store
	// StoreConfig configures OpenStore: engine knobs, the bootstrap
	// dataset, the fsync policy, and the automatic checkpoint cadence.
	StoreConfig = durable.Options
	// FsyncPolicy selects the WAL durability/latency trade-off.
	FsyncPolicy = durable.FsyncPolicy
)

// Fsync policies for StoreConfig.Fsync.
const (
	// FsyncAlways fsyncs every update before acknowledging it (default).
	FsyncAlways = durable.FsyncAlways
	// FsyncInterval fsyncs on a background cadence (StoreConfig.FsyncEvery).
	FsyncInterval = durable.FsyncInterval
	// FsyncNever leaves flushing to the operating system.
	FsyncNever = durable.FsyncNever
)

// OpenStore opens (or bootstraps) a durable store in dir: an existing
// snapshot is restored — every shard's accumulated refinement included —
// and the write-ahead log replayed; an empty directory is bootstrapped from
// cfg.Bootstrap and checkpointed before OpenStore returns.
func OpenStore(dir string, cfg StoreConfig) (*Store, error) { return durable.Open(dir, cfg) }

// Replication (internal/repl): WAL shipping from a leader's durable store
// to read replicas. A leader serves its latest checkpoint generation and
// streams WAL frames from any retained global sequence (mount it as
// ServerConfig.ReplSource); a follower bootstraps from the snapshot,
// replays, then tails the leader with bounded backoff, staying a durable
// store of its own so a restart resumes from local state. Promote flips a
// caught-up follower into a writable leader. See docs/ARCHITECTURE.md for
// the protocol and the guarantees.
type (
	// ReplLeader serves a store's state to followers over HTTP
	// (GET /repl/snapshot, GET /repl/wal); ServerConfig.ReplSource mounts
	// it.
	ReplLeader = repl.Leader
	// ReplFollower keeps a local durable store in sync with a leader;
	// ServerConfig.ReplFollower puts the server in follower mode over it.
	ReplFollower = repl.Follower
	// ReplFollowerConfig configures OpenReplFollower.
	ReplFollowerConfig = repl.FollowerOptions
	// ReplMetrics is the quasii_repl_* metric family, shared by both ends.
	ReplMetrics = repl.Metrics
)

// NewReplLeader wires a replication leader over store. Metrics and logger
// may be nil.
func NewReplLeader(store *Store, m *ReplMetrics, logger *slog.Logger) *ReplLeader {
	return repl.NewLeader(store, m, logger)
}

// OpenReplFollower brings up a follower: resume from local state in
// cfg.Dir when present, otherwise bootstrap from the leader's snapshot
// (retrying until ctx expires), then tail the leader's WAL in the
// background. The returned follower is immediately readable via
// Store().Index().
func OpenReplFollower(ctx context.Context, cfg ReplFollowerConfig) (*ReplFollower, error) {
	return repl.Open(ctx, cfg)
}

// NewReplMetrics registers the full quasii_repl_* family on reg (nil
// returns nil, which every consumer treats as metrics-off). Both roles
// register every series, so dashboards can be written once.
func NewReplMetrics(reg *MetricsRegistry) *ReplMetrics { return repl.NewMetrics(reg) }

// Compile-time interface checks: every index satisfies Index.
var (
	_ Index = (*QUASII)(nil)
	_ Index = (*RTree)(nil)
	_ Index = (*Grid)(nil)
	_ Index = (*Mosaic)(nil)
	_ Index = (*SFC)(nil)
	_ Index = (*SFCracker)(nil)
	_ Index = (*Scan)(nil)
	_ Index = (*Synchronized)(nil)
	_ Index = (*Sharded)(nil)
)
