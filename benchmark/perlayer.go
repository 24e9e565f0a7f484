package main

// perLayer lists the per-layer metrics in stack order, each with the
// end-to-end metric and workload it should move (README.md has the full
// map). They are reported by a traced run, never gated.
var perLayer = []metricSpec{
	// colstore: SoA lanes, partition and scan kernels.
	{"colstore.partition_ns_per_row", "ns", "lower", 0, "Table.Partition over the whole table → first_query_ms, cumulative_s on crack_stream"},
	{"colstore.scan_ns_per_row", "ns", "lower", 0, "ScanIntersect over 4096-row ranges → read_p50_us on embed_parallel"},
	{"colstore.scan_visible_ns_per_row", "ns", "lower", 0, "ScanIntersectVisible with 1 % tombstones → read_p50_us on serve_mixed"},

	// core: the QUASII hierarchy, shared and exclusive walks, versions.
	{"core.crack_phase_ms", "ms", "lower", 0, "sum of Index.Query over queries 1–1000 of the cold stream → cumulative_s on crack_stream"},
	{"core.cracks", "count", "lower", 0, "partition passes of the cold stream, exact at one client → cumulative_s on crack_stream"},
	{"core.cracked_objects", "count", "lower", 0, "objects moved by those passes"},
	{"core.slices_created", "count", "lower", 0, "slices materialised by the cold stream"},
	{"core.objects_tested", "count", "lower", 0, "objects tested for intersection by the cold stream → read_p50_us on crack_stream"},
	{"core.result_objects", "count", "lower", 0, "objects reported by the cold stream (fixed by the inputs)"},
	{"core.tested_per_result", "ratio", "lower", 0, "waste: objects tested per object reported"},
	{"core.query_converged_us", "us", "lower", 0, "QueryShared p50 on the converged index → read_p50_us on embed_parallel"},
	{"core.shared_ratio", "ratio", "higher", 0, "share of converged queries answered on the shared path → read_qps on embed_parallel"},
	{"core.pin_release_ns", "ns", "lower", 0, "PinVersion + Release p50"},
	{"core.insert_us", "us", "lower", 0, "AppendVersioned p50 → write_p50_us"},
	{"core.delete_us", "us", "lower", 0, "DeleteShared p50 at 2048 live tombstones (the O(D) copy) → write_p50_us on serve_mixed"},
	{"core.pending_query_us", "us", "lower", 0, "converged query with 2048 pending inserts → read_p50_us on serve_mixed"},
	{"core.flush_ms", "ms", "lower", 0, "Flush of 4096 pending and 2048 tombstones → write_p99_us on serve_mixed"},
	{"core.reconverge_ms", "ms", "lower", 0, "answering the pool once after that Flush restarted the hierarchy → read_p99_us on serve_mixed"},

	// shard: tiles, fan-out, batch, update routing, snapshot and restore.
	{"shard.query_us", "us", "lower", 0, "Index.Query p50 at one client → read_p50_us on embed_parallel"},
	{"shard.fanout_self_us", "us", "lower", 0, "shard.query_us − core.query_converged_us"},
	{"shard.batch_us_per_query", "us", "lower", 0, "QueryBatch(64) p50 per query → batch_qps on embed_parallel and serve_read"},
	{"shard.scaling", "ratio", "higher", 0, "qps at nproc goroutines ÷ qps at one → read_qps on embed_parallel"},
	{"shard.insert_us", "us", "lower", 0, "Index.Insert p50 → write_p50_us"},
	{"shard.delete_us", "us", "lower", 0, "Index.Delete p50 → write_p50_us"},
	{"shard.flush_ms", "ms", "lower", 0, "Index.Flush of 4096 pending → write_p99_us"},
	{"shard.snapshot_ms", "ms", "lower", 0, "Index.Snapshot → recovery_s (the checkpoint a restore starts from)"},
	{"shard.restore_mb_s", "MiB/s", "higher", 0, "shard.Restore throughput → recovery_s"},

	// wal: CRC frames and the fsync policy.
	{"wal.append_us.always", "us", "lower", 0, "Log.AppendInsert of one object, fsync always → write_p50_us, write_ops_s on serve_mixed"},
	{"wal.append_us.interval", "us", "lower", 0, "the same, fsync left to a ticker"},
	{"wal.append_us.never", "us", "lower", 0, "the same, never fsynced"},
	{"wal.append_us.mixed", "us", "lower", 0, "mean append inside serve_mixed, from the server's own /metrics: fsync beside checkpoints and a reader"},
	{"wal.fsync_us", "us", "lower", 0, "the fsync span inside an always-append"},
	{"wal.bytes_per_record", "B", "lower", 0, "log bytes per single-object insert"},
	{"wal.replay_records_per_s", "1/s", "higher", 0, "wal.Replay rate → recovery_s"},

	// durable: WAL before ack, checkpoints, recovery.
	{"durable.insert_us", "us", "lower", 0, "Store.Insert p50 → write_p50_us on serve_mixed"},
	{"durable.delete_us", "us", "lower", 0, "Store.Delete p50 → write_p50_us on serve_mixed"},
	{"durable.self_us", "us", "lower", 0, "Store.Insert span − its file-system spans − shard.insert_us"},
	{"durable.fs_writes_per_ack", "count", "lower", 0, "file writes per acked update → write_ops_s"},
	{"durable.fs_syncs_per_ack", "count", "lower", 0, "fsyncs per acked update → write_ops_s"},
	{"durable.disk_bytes_per_user_byte", "ratio", "lower", 0, "bytes written per user byte over one checkpoint cycle (write amplification)"},
	{"durable.checkpoint_ms", "ms", "lower", 0, "one checkpoint of the whole index → write_p99_us, read_p99_us on serve_mixed"},
	{"durable.checkpoint_pause_us", "us", "lower", 0, "mean time updates wait for a checkpoint's cuts"},
	{"durable.checkpoints", "count", "higher", 0, "checkpoints completed inside serve_mixed's timed window (at least 2)"},
	{"durable.open_s", "s", "lower", 0, "durable.Open on a directory abandoned mid-WAL → recovery_s"},

	// server: decode, admission, coalescing batcher, encode.
	{"server.query_handler_us", "us", "lower", 0, "Handler().ServeHTTP /query p50, default window, nproc clients → read_p50_us on serve_read"},
	{"server.query_nowindow_us", "us", "lower", 0, "the same with coalescing off: decode + execute + encode"},
	{"server.window_wait_us", "us", "lower", 0, "query_handler_us − query_nowindow_us: what the coalescing window costs a lightly loaded client"},
	{"server.query_self_us", "us", "lower", 0, "query_nowindow_us − shard.query_us"},
	{"server.batch_handler_us_per_query", "us", "lower", 0, "/batch of 64 per query → batch_qps on serve_read"},
	{"server.bytes_per_response", "B", "lower", 0, "mean /query response size"},
	{"server.allocs_per_query", "count", "lower", 0, "mallocs per /query through the handler → read_qps, batch_qps on serve_read"},
	{"server.update_handler_us", "us", "lower", 0, "/insert and /delete p50 through the memory-only handler → write_p50_us on serve_read"},
	{"server.insert_handler_us", "us", "lower", 0, "the same on the durable twin (fsync always) → write_p50_us on serve_mixed"},
	{"server.insert_self_us", "us", "lower", 0, "insert_handler_us − durable.insert_us"},
	{"server.batch_occupancy", "ratio", "higher", 0, "queries per coalesced batch: what the window buys"},
	{"server.rejected_ratio", "ratio", "lower", 0, "requests refused by admission control"},

	// socket: net/http and loopback, everything outside ServeHTTP.
	{"socket.query_us", "us", "lower", 0, "serve_read's process-level read_p50_us − server.query_handler_us → read_p50_us, read_qps on serve_read"},
	{"socket.request_us", "us", "lower", 0, "serve_read's process-level write_p50_us − server.update_handler_us: one small request, no window → write_p50_us"},

	// repl: snapshot and WAL shipping. No end-to-end metric yet.
	{"repl.bootstrap_s", "s", "lower", 0, "repl.Open: snapshot stream + restore"},
	{"repl.apply_records_per_s", "1/s", "higher", 0, "leader ack to follower applied, burst of the write stream"},
	{"repl.ship_lag_ms_p50", "ms", "lower", 0, "leader ack to follower applied, one record at a time"},

	// The run itself.
	{"trace.overhead_ratio", "ratio", "lower", 0, "untraced ÷ traced read rate of the workload's twin"},
	{"stack.read_closure_ratio", "ratio", "higher", 0, "socket.request_us + window + server + fan-out + core, over serve_read's process-level read_p50_us"},
	{"stack.write_closure_ratio", "ratio", "higher", 0, "socket.request_us + server + durable + wal.append_us.mixed + shard, over serve_mixed's process-level write_p50_us"},
	{"mixed.flushes", "count", "higher", 0, "flushes inside serve_mixed's timed window (at least 3)"},
	{"read_p99_us", "us", "lower", 0, "99th percentile read latency of the workload's twin: diagnostic, too unsteady from seed to seed to gate"},
	{"write_p99_us", "us", "lower", 0, "99th percentile write latency of the workload's twin: diagnostic, as above"},
	{"allocs_per_read", "count", "lower", 0, "mallocs per read of the workload's twin: the 0-alloc contract, an exact count"},
	{"failed_ratio", "ratio", "lower", 0, "failed ÷ attempted operations of the traced run"},
}
