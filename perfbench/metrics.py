"""The benchmark's metric catalogue: name -> (unit, better).

``BENCHMARK.json`` at the repository root lists the names of
:data:`END_TO_END` and :data:`PER_LAYER`; the benchmark's own tests keep
the two in step.  :data:`ONLINE_LAYER` holds the layer metrics that only
the ``online-musk`` reference workload measures, which is not in
``BENCHMARK.json``.
"""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "throughput_qps": ("1/s", "higher"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    "search.batch_ms": ("ms/call", "lower"),
    "search.scanned_per_query": ("rows", "lower"),
    "search.screen_pruned_frac": ("ratio", "higher"),
    "search.refine_per_query": ("rows", "lower"),
    "core.fit_projection_s": ("s", "lower"),
    "snapshot.load_s": ("s", "lower"),
    "shard.build_s": ("s", "lower"),
    "shard.merge_ms": ("ms/batch", "lower"),
    "shard.scatter_overhead_ms": ("ms/batch", "lower"),
    "serve.start_s": ("s", "lower"),
    "pool.transport_ms": ("ms/batch", "lower"),
    "pool.result_bytes_per_query": ("bytes", "lower"),
    "mutation.member_query_ms_p50": ("ms", "lower"),
    "mutation.fanout_overhead_ms_p50": ("ms", "lower"),
    "mutation.memtable_ops_mean": ("ops", "lower"),
    "mutation.compactions": ("count", "lower"),
    "mutation.compact_s": ("s", "lower"),
    "mutation.insert_ms_p50": ("ms", "lower"),
    "mutation.delete_ms_p50": ("ms", "lower"),
    "wal.syncs_per_1k_writes": ("count", "lower"),
    "wal.append_us": ("us", "lower"),
    "wal.bytes_per_write": ("bytes", "lower"),
    "wal.replay_s": ("s", "lower"),
}

ONLINE_LAYER = {
    "snapshot.save_s": ("s", "lower"),
    "serve.batch_size_mean": ("queries", "higher"),
    "serve.wait_ms_p50": ("ms", "lower"),
    "serve.generator_lag_ms_max": ("ms", "lower"),
}
