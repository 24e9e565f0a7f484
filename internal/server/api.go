// Wire types of the HTTP/JSON query service. They are shared by the server
// handlers, the load generator (internal/bench), and the examples, so the
// two sides cannot drift apart.

package server

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/telemetry"
)

// BoxJSON is a 3-d axis-aligned box on the wire.
type BoxJSON struct {
	Min [geom.Dims]float64 `json:"min"`
	Max [geom.Dims]float64 `json:"max"`
}

// Box converts to the internal geometry type.
func (b BoxJSON) Box() geom.Box { return geom.Box{Min: b.Min, Max: b.Max} }

// BoxToJSON converts from the internal geometry type.
func BoxToJSON(b geom.Box) BoxJSON { return BoxJSON{Min: b.Min, Max: b.Max} }

// validate rejects NaN/Inf coordinates and inverted boxes before they reach
// the index (an inverted box would silently match nothing; NaN poisons the
// shard routing comparisons).
func (b BoxJSON) validate() error {
	for d := 0; d < geom.Dims; d++ {
		if math.IsNaN(b.Min[d]) || math.IsInf(b.Min[d], 0) ||
			math.IsNaN(b.Max[d]) || math.IsInf(b.Max[d], 0) {
			return fmt.Errorf("box coordinate %d is not finite", d)
		}
		if b.Min[d] > b.Max[d] {
			return fmt.Errorf("box min[%d] > max[%d] (%g > %g)", d, d, b.Min[d], b.Max[d])
		}
	}
	return nil
}

// ObjectJSON is a spatial object on the wire.
type ObjectJSON struct {
	ID int32 `json:"id"`
	BoxJSON
}

// Object converts to the internal geometry type.
func (o ObjectJSON) Object() geom.Object { return geom.Object{Box: o.Box(), ID: o.ID} }

// QueryRequest is the body of POST /query: one range query.
type QueryRequest struct {
	BoxJSON
}

// QueryResponse answers /query.
type QueryResponse struct {
	IDs   []int32 `json:"ids"`
	Count int     `json:"count"`
}

// BatchRequest is the body of POST /batch: many range queries answered as
// one QueryBatch fan-out over the shard worker pool.
type BatchRequest struct {
	Queries []BoxJSON `json:"queries"`
}

// BatchResponse answers /batch; Results is indexed like Queries.
type BatchResponse struct {
	Results [][]int32 `json:"results"`
}

// KNNRequest is the body of POST /knn.
type KNNRequest struct {
	Point [geom.Dims]float64 `json:"point"`
	K     int                `json:"k"`
}

// NeighborJSON is one kNN result on the wire.
type NeighborJSON struct {
	ID     int32   `json:"id"`
	DistSq float64 `json:"dist_sq"`
}

// KNNResponse answers /knn, nearest first.
type KNNResponse struct {
	Neighbors []NeighborJSON `json:"neighbors"`
}

// InsertRequest is the body of POST /insert.
type InsertRequest struct {
	Objects []ObjectJSON `json:"objects"`
}

// InsertResponse answers /insert. Pending is a lock-free estimate of the
// inserted objects not yet folded into the indexed arrays (the exact,
// per-shard-locked count is on /stats; see Config.FlushEvery).
type InsertResponse struct {
	Inserted int `json:"inserted"`
	Pending  int `json:"pending"`
}

// DeleteRequest is the body of POST /delete. Hint is the box used to locate
// the object — typically the object's own bounding box.
type DeleteRequest struct {
	ID   int32   `json:"id"`
	Hint BoxJSON `json:"hint"`
}

// DeleteResponse answers /delete.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// SnapshotResponse answers POST /snapshot: the sequence number of the
// checkpoint that was written.
type SnapshotResponse struct {
	Seq uint64 `json:"seq"`
}

// SlowlogResponse answers GET /debug/slowlog: the ring of sampled traces
// that crossed the slow threshold, newest first.
type SlowlogResponse struct {
	Traces []telemetry.TraceEntry `json:"traces"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RuntimeInfo identifies the serving process: binary version (module
// version or VCS revision), Go toolchain, and the GOMAXPROCS the engine's
// defaults derive from. Shared by /healthz and /stats.
type RuntimeInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// HealthResponse answers /healthz (liveness: the process accepts requests).
// Role is the replication role: "standalone", "leader", or "follower".
type HealthResponse struct {
	Status  string      `json:"status"`
	Objects int         `json:"objects"`
	Shards  int         `json:"shards"`
	Role    string      `json:"role"`
	Runtime RuntimeInfo `json:"runtime"`
}

// ReplInfo reports the replication position of a follower-mode server on
// /readyz and /stats. AppliedSeq is the last global WAL sequence applied
// locally; LeaderSeq the leader's next sequence as of the last response;
// LagRecords/LagSeconds the distance between them (records behind, and
// seconds since last fully caught up). Writable flips true at promotion.
type ReplInfo struct {
	Role         string  `json:"role"`
	LeaderURL    string  `json:"leader_url"`
	AppliedSeq   uint64  `json:"applied_seq"`
	LeaderSeq    uint64  `json:"leader_seq"`
	LagRecords   int64   `json:"lag_records"`
	LagSeconds   float64 `json:"lag_seconds"`
	Bootstrapped bool    `json:"bootstrapped"`
	Writable     bool    `json:"writable"`
}

// PromoteResponse answers POST /repl/promote: the sequence of the
// promotion checkpoint and the server's new role.
type PromoteResponse struct {
	Seq  uint64 `json:"seq"`
	Role string `json:"role"`
}

// RecoveryInfo reports where the running index came from: the snapshot it
// was restored from (0 = none), the WAL records replayed on top, whether
// the store bootstrapped fresh state, and how long the restore took.
type RecoveryInfo struct {
	SnapshotSeq        uint64  `json:"snapshot_seq"`
	WALRecordsReplayed int64   `json:"wal_records_replayed"`
	Bootstrapped       bool    `json:"bootstrapped"`
	RestoreSeconds     float64 `json:"restore_seconds"`
}

// ReadyResponse answers /readyz (readiness: state is loaded and traffic is
// safe). Recovery is present when the server runs over a durable store.
// Degraded reports the store's read-only fallback: the probe stays 200 —
// converged reads keep serving, so traffic should still route here — but
// Status says "degraded" and writes answer 503 until the disk heals.
type ReadyResponse struct {
	Ready          bool          `json:"ready"`
	Status         string        `json:"status"`
	Degraded       bool          `json:"degraded,omitempty"`
	DegradedReason string        `json:"degraded_reason,omitempty"`
	Recovery       *RecoveryInfo `json:"recovery,omitempty"`
	// Repl is present in follower mode: the probe answers 503 while the
	// follower is bootstrapping or lagging past the configured bound.
	Repl *ReplInfo `json:"repl,omitempty"`
}

// EndpointStats is the per-endpoint slice of /stats: request counts and the
// latency distribution since start — the percentiles are estimated from the
// endpoint's quasii_http_request_duration_seconds histogram, exactly as a
// /metrics scrape would estimate them.
type EndpointStats struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	Rejected   int64   `json:"rejected"`
	RatePerSec float64 `json:"rate_per_sec"`
	MeanMicros int64   `json:"mean_us"`
	P50Micros  int64   `json:"p50_us"`
	P95Micros  int64   `json:"p95_us"`
	P99Micros  int64   `json:"p99_us"`
}

// BatcherStats reports the query-coalescing behaviour on /stats.
type BatcherStats struct {
	Batches        int64   `json:"batches"`
	BatchedQueries int64   `json:"batched_queries"`
	AvgBatchSize   float64 `json:"avg_batch_size"`
	WindowMicros   int64   `json:"window_us"`
}

// AdmissionStats reports the backpressure state on /stats.
type AdmissionStats struct {
	InFlight    int64 `json:"in_flight"`
	MaxInFlight int64 `json:"max_in_flight"`
	ExecSlots   int   `json:"exec_slots"`
	Rejected    int64 `json:"rejected_total"`
}

// IndexStats reports the shard engine state on /stats.
type IndexStats struct {
	Objects     int `json:"objects"`
	Shards      int `json:"shards"`
	MinShardLen int `json:"min_shard_len"`
	MaxShardLen int `json:"max_shard_len"`
	// Quarantined counts shards disabled after a sub-index panic; their
	// objects are unreachable until the process restarts and recovers.
	Quarantined int `json:"quarantined_shards"`
	Pending     int `json:"pending"`
	Deleted     int `json:"deleted"`
	Queries     int `json:"core_queries"`
	Cracks      int `json:"core_cracks"`
	Slices      int `json:"core_slices_created"`
	// SlicesRefined counts slices finalized with an exact MBB — the
	// convergence curve: it rises as the workload cracks the index toward
	// its steady state and flattens once converged.
	SlicesRefined int   `json:"core_slices_refined"`
	Tested        int64 `json:"core_objects_tested"`
	// SharedQueries counts queries answered on the lock-shared read path
	// (converged regions); core_queries counts the exclusive-path ones.
	SharedQueries int64 `json:"core_shared_queries"`
}

// DurabilityStats reports the persistence state on /stats. All-zero with
// Enabled false unless Config.Durability is an internal/durable.Store.
type DurabilityStats struct {
	Enabled               bool    `json:"enabled"`
	SnapshotSeq           uint64  `json:"snapshot_seq"`
	WALBytes              int64   `json:"wal_bytes"`
	Checkpoints           int64   `json:"checkpoints"`
	LastCheckpointSeconds float64 `json:"last_checkpoint_seconds"`
}

// StatsResponse answers GET /stats. Role is the replication role; Repl is
// present in follower mode.
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Runtime       RuntimeInfo              `json:"runtime"`
	Role          string                   `json:"role"`
	Repl          *ReplInfo                `json:"repl,omitempty"`
	Index         IndexStats               `json:"index"`
	Admission     AdmissionStats           `json:"admission"`
	Batcher       BatcherStats             `json:"batcher"`
	Durability    DurabilityStats          `json:"durability"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}
