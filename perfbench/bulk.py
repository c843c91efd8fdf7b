"""``bulk-arrhythmia``: closed-loop explicit batches against sharded
projection screening.

One caller sends ``query_batch`` calls of 128 queries at k=100, each
after the previous one returns, to a ``ShardedIndexServer`` with two
round-robin shards and one pool worker per shard.  The shards are
``projscreen`` indexes screening through the 10 coherence-ordered
components fitted on the whole corpus (the paper's Arrhythmia optimum),
over 279-dim arrhythmia-like rows.  Set-up therefore includes the
coherence fit.  The micro-batcher is bypassed and nothing mutates.
The figures come from the half of the batches in which the host took
the least CPU time away (see :class:`measure.StealMeter`).
"""

from __future__ import annotations

import os
import pickle
import shutil
import time

import numpy as np

from measure import (
    TimingLoader,
    flush_to_disk,
    mean_or_zero,
    median,
    peak_rss_mib,
    percentile,
    StealMeter,
    read_worker_logs,
)
from oracle import Ledger, exact_knn

ARRHYTHMIA_PARAMS = dict(
    n_dims=259,
    n_concepts=10,
    n_classes=16,
    clusters_per_class=2,
    class_separation=6.0,
    concept_std=1.2,
    noise_std=2.5,
    scale_spread=1.5,
    n_constant_dims=20,
    class_weights=[0.54] + [0.46 / 15] * 15,
)
FULL = dict(n=25_000, batch=128, k=100, pool_batches=8, shards=2,
            subspace_dim=10, setups=3, warmup=2, merge_samples=2)
SMOKE = dict(n=2_000, batch=32, k=20, pool_batches=2, shards=2,
             subspace_dim=10, setups=2, warmup=1, merge_samples=1)


def run(ctx) -> dict:
    from repro.datasets.synthetic import latent_concept_dataset
    from repro.search import fit_projection, load_index
    from repro.shard import ShardedIndexServer, build_shards, merge_batches

    cfg = SMOKE if ctx.smoke else FULL
    k, size = cfg["k"], cfg["batch"]
    data = latent_concept_dataset(
        n_samples=cfg["n"] + cfg["pool_batches"] * size,
        seed=ctx.seed, name="arrhythmia-like", **ARRHYTHMIA_PARAMS,
    ).features
    corpus, queries = data[:cfg["n"]], data[cfg["n"]:]
    ref = exact_knn(corpus, np.arange(cfg["n"]), queries, k)
    index_kwargs = {"subspace_dim": cfg["subspace_dim"], "ordering": "coherence"}

    ledger = Ledger()
    log_dir = os.path.join(ctx.workdir, "worker-logs")
    os.makedirs(log_dir)
    loader = TimingLoader(log_dir) if ctx.trace else None

    def check_batch(answer, first_row: int) -> None:
        for offset, row in enumerate(answer):
            ledger.check(row, ref, first_row + offset, k)

    setup_s, build_s, start_s = [], [], []
    latencies, windows = [], []
    transport_ms, n_bytes = [], 0
    scanned = pruned = reduced = refined = 0
    server = None
    try:
        for attempt in range(cfg["setups"]):
            if server is not None:
                server.close()
                shutil.rmtree(out_dir)
            out_dir = os.path.join(ctx.workdir, f"shards-{attempt}")
            t0 = time.perf_counter()
            manifest = build_shards(
                corpus, out_dir, cfg["shards"], kind="projscreen",
                index_kwargs=index_kwargs,
            )
            t1 = time.perf_counter()
            server = ShardedIndexServer(
                manifest, n_workers=1, index_loader=loader
            )
            first = server.query_batch(queries[:1], k)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            build_s.append(t1 - t0)
            start_s.append(t2 - t1)
            check_batch(first, 0)

        flush_to_disk(out_dir)

        def batch_rows(i: int) -> int:
            return (i % cfg["pool_batches"]) * size

        for i in range(cfg["warmup"]):
            row = batch_rows(i)
            check_batch(server.query_batch(queries[row:row + size], k), row)

        busy = 0.0
        sent = 0
        steal = StealMeter()
        while busy < ctx.seconds:
            row = batch_rows(sent)
            steal.restart()
            t0 = time.perf_counter()
            answer = server.query_batch(queries[row:row + size], k)
            t1 = time.perf_counter()
            steal.mark()
            busy += t1 - t0
            latencies.append(t1 - t0)
            windows.append((t0, t1))
            sent += 1
            check_batch(answer, row)
            if ctx.trace:
                stats = answer.stats
                scanned += stats.points_scanned
                pruned += stats.nodes_pruned
                reduced += stats.reduced_rows_scanned
                refined += stats.candidates_generated
                t0 = time.perf_counter()
                blob = pickle.dumps(answer, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.loads(blob)
                transport_ms.append((time.perf_counter() - t0) * 1e3)
                n_bytes += len(blob)
        rss = peak_rss_mib()
    finally:
        if server is not None:
            server.close()

    n_rows = sent * size
    latency_ms = np.asarray(latencies) * 1e3
    quiet = latency_ms[steal.quiet()]
    quiet_qps = size * quiet.size / (quiet.sum() / 1e3)
    result = ledger.result()
    result["e2e"] = {
        "setup_s": median(setup_s),
        "query_p50_ms": percentile(quiet, 50),
        "query_p90_ms": percentile(quiet, 90),
        "throughput_qps": quiet_qps,
        "ops_per_s": quiet_qps,
        "peak_rss_mb": rss,
    }
    result["details"] = {
        "batches": sent,
        "quiet_batches": int(quiet.size),
        "queries": n_rows,
        "all_batches_qps": n_rows / busy,
        "all_batches_p50_ms": percentile(latency_ms, 50),
    }
    if ctx.trace:
        fit_s = time.perf_counter()
        fit_projection(corpus, cfg["subspace_dim"], "coherence")
        fit_s = time.perf_counter() - fit_s

        # The merge step alone, on per-shard answers computed in-process
        # from the same shard snapshots the workers serve.
        shards = [
            (load_index(spec.snapshot_path), spec.load_ids())
            for spec in manifest.shards
        ]
        merge_ms = []
        for i in range(cfg["merge_samples"]):
            rows = queries[batch_rows(i):batch_rows(i) + size]
            per_shard = [
                index.query_batch(rows, k=min(k, index.n_points))
                for index, _ in shards
            ]
            t0 = time.perf_counter()
            merge_batches(per_shard, [ids for _, ids in shards], k)
            merge_ms.append((time.perf_counter() - t0) * 1e3)

        logs = read_worker_logs(log_dir)
        shard_ms, overhead_ms = [], []
        for t0, t1 in windows:
            inside = [
                (end - start) * 1e3
                for spec in manifest.shards
                for start, end, _, _ in logs[os.path.basename(spec.snapshot_path)]
                if t0 <= start and end <= t1
            ]
            shard_ms.extend(inside)
            if len(inside) == len(manifest.shards):
                overhead_ms.append(
                    (t1 - t0) * 1e3 - max(inside) - median(merge_ms)
                )
        result["layers"] = {
            "search.batch_ms": mean_or_zero(shard_ms),
            "search.scanned_per_query": scanned / n_rows,
            "search.screen_pruned_frac": pruned / max(reduced, 1),
            "search.refine_per_query": refined / n_rows,
            "core.fit_projection_s": fit_s,
            "shard.build_s": median(build_s),
            "shard.merge_ms": median(merge_ms),
            "shard.scatter_overhead_ms": mean_or_zero(overhead_ms),
            "serve.start_s": median(start_s),
            "pool.transport_ms": mean_or_zero(transport_ms),
            "pool.result_bytes_per_query": n_bytes / n_rows,
        }
    return result
