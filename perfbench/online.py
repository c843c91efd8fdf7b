"""``online-musk``: open-loop single queries against one pooled server.

The target is an ``IndexServer`` with one pool worker over a
``bruteforce`` snapshot of musk-like rows (166 dims).  The run has two
phases over the same single-query ``submit`` path:

* open loop: Poisson arrivals at a fixed rate, well below the rate at
  which a backlog builds; each request is timed from its scheduled send
  time, so a stall also counts against the requests queued behind it;
* capacity: the one generator thread keeps a fixed window of requests in
  flight, which measures how many single queries per second the
  batcher, pool and kernel sustain together.

Both phases are cut into short blocks, and the figures come from the
blocks in which the host took the least CPU time away (see
:class:`measure.StealMeter`): the latency percentiles are each open-loop
block's own, and the median of those over the quietest quarter of the
blocks (:func:`measure.block_percentile`); throughput is counted over
the quieter half of the capacity blocks.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import wait

import numpy as np

from measure import (
    QUIET_BLOCKS,
    StealMeter,
    TimingLoader,
    block_percentile,
    flush_to_disk,
    mean_or_zero,
    median,
    peak_rss_mib,
    percentile,
    read_worker_logs,
)
from oracle import Ledger, exact_knn

MUSK_PARAMS = dict(
    n_dims=166,
    n_concepts=13,
    n_classes=2,
    clusters_per_class=8,
    class_separation=6.0,
    concept_std=1.2,
    noise_std=3.0,
    scale_spread=1.0,
)
# Steal blocks: open-loop requests by scheduled send time, capacity-phase
# answers by completion time.
BLOCK_S = 1.0
CAPACITY_BLOCK_S = 0.5
FULL = dict(n=50_000, rate=50.0, k=10, window=16, capacity_share=0.3,
            capacity_pool=512, warmup=64, setups=5)
SMOKE = dict(n=3_000, rate=50.0, k=10, window=8, capacity_share=0.3,
             capacity_pool=64, warmup=8, setups=2)


def run(ctx) -> dict:
    from repro.datasets.synthetic import latent_concept_dataset
    from repro.search import BatchKnnResult, build_index, combine_stats
    from repro.search import load_index, save_index
    from repro.serve import IndexServer

    cfg = dict(SMOKE if ctx.smoke else FULL, **getattr(ctx, "overrides", {}))
    k = cfg["k"]
    rng = np.random.default_rng(ctx.seed)
    open_s = ctx.seconds * (1.0 - cfg["capacity_share"])
    capacity_s = ctx.seconds * cfg["capacity_share"]
    n_open = max(1, round(cfg["rate"] * open_s))
    data = latent_concept_dataset(
        n_samples=cfg["n"] + n_open + cfg["capacity_pool"],
        seed=ctx.seed, name="musk-like", **MUSK_PARAMS,
    ).features
    corpus = data[:cfg["n"]]
    open_q = data[cfg["n"]:cfg["n"] + n_open]
    pool_q = data[cfg["n"] + n_open:]
    ids = np.arange(cfg["n"])
    ref_open = exact_knn(corpus, ids, open_q, k)
    ref_pool = exact_knn(corpus, ids, pool_q, k)
    # A Poisson process conditioned on its count: exactly n_open sends,
    # each uniformly placed, so every run attempts the same number.
    arrivals = np.sort(rng.uniform(0.0, open_s, size=n_open))

    ledger = Ledger()
    log_dir = os.path.join(ctx.workdir, "worker-logs")
    os.makedirs(log_dir)
    loader = TimingLoader(log_dir) if ctx.trace else None

    setup_s, save_s, start_s = [], [], []
    server = None
    try:
        for attempt in range(cfg["setups"]):
            if server is not None:
                server.close()
                os.remove(path)
            path = os.path.join(ctx.workdir, f"index-{attempt}.npz")
            t0 = time.perf_counter()
            index = build_index("bruteforce", corpus)
            t1 = time.perf_counter()
            save_index(index, path)
            t2 = time.perf_counter()
            server = IndexServer(path, n_workers=1, index_loader=loader)
            first = server.query(pool_q[0], k)
            t3 = time.perf_counter()
            setup_s.append(t3 - t0)
            save_s.append(t2 - t1)
            start_s.append(t3 - t2)
            ledger.check(first, ref_pool, 0, k)

        flush_to_disk(path)
        # Warm-up: page faults and lazy set-up land here, not in samples.
        warm = [(i % len(pool_q), server.submit(pool_q[i % len(pool_q)], k))
                for i in range(cfg["warmup"])]
        wait([f for _, f in warm], timeout=120)
        ledger.collect(warm, ref_pool, k)

        server.reset_stats()
        done_at = np.full(n_open, np.nan)
        futures = []
        n_blocks = max(1, int(open_s // BLOCK_S))
        block_of = np.minimum(arrivals // BLOCK_S, n_blocks - 1).astype(int)
        open_steal = StealMeter()
        block = 0
        base = time.perf_counter() + 0.01
        lag = np.empty(n_open)
        for i, offset in enumerate(arrivals):
            while block < block_of[i]:
                open_steal.mark()
                block += 1
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag[i] = time.perf_counter() - due
            future = server.submit(open_q[i], k)
            future.add_done_callback(_stamp(done_at, i))
            futures.append((i, future))
        wait([f for _, f in futures], timeout=120)
        open_steal.mark()
        open_end = time.perf_counter()
        report = server.stats()
        ledger.collect(futures, ref_open, k)
        latency_ms = (done_at - (base + arrivals)) * 1e3
        answered = np.isfinite(latency_ms)
        quiet_ms = [
            latency_ms[answered & (block_of == block)]
            for block in np.flatnonzero(open_steal.quiet(QUIET_BLOCKS))
            if (answered & (block_of == block)).any()
        ]
        latency_ms = latency_ms[answered]

        slots = threading.Semaphore(cfg["window"])
        finished: list[float] = []
        capacity = []
        cap_steal = StealMeter()
        started = time.perf_counter()
        edge = started + CAPACITY_BLOCK_S
        sent = 0
        while time.perf_counter() - started < capacity_s:
            if time.perf_counter() >= edge:
                cap_steal.mark()
                edge += CAPACITY_BLOCK_S
            if not slots.acquire(timeout=60):
                break
            row = sent % len(pool_q)
            future = server.submit(pool_q[row], k)
            future.add_done_callback(_release(slots, finished))
            capacity.append((row, future))
            sent += 1
        cap_steal.mark()
        wait([f for _, f in capacity], timeout=120)
        ledger.collect(capacity, ref_pool, k)
        finished = np.sort(finished)
        quiet_spans = [
            span for span, keep in zip(cap_steal.spans, cap_steal.quiet()) if keep
        ]
        capacity_qps = sum(
            np.searchsorted(finished, end) - np.searchsorted(finished, start)
            for start, end in quiet_spans
        ) / sum(end - start for start, end in quiet_spans)
        rss = peak_rss_mib()
    finally:
        if server is not None:
            server.close()

    result = ledger.result()
    result["e2e"] = {
        "setup_s": median(setup_s),
        "query_p50_ms": block_percentile(quiet_ms, 50),
        "query_p90_ms": block_percentile(quiet_ms, 90),
        "throughput_qps": capacity_qps,
        "ops_per_s": capacity_qps,
        "peak_rss_mb": rss,
    }
    quarter = max(1, latency_ms.size // 4)
    result["details"] = {
        "open_loop_requests": int(latency_ms.size),
        "quiet_requests": sum(block.size for block in quiet_ms),
        "all_p50_ms": percentile(latency_ms, 50),
        "all_p90_ms": percentile(latency_ms, 90),
        "query_p99_ms": percentile(latency_ms, 99),
        # A backlog shows as the last quarter of sends waiting far
        # longer than the first.
        "first_quarter_p50_ms": percentile(latency_ms[:quarter], 50),
        "last_quarter_p50_ms": percentile(latency_ms[-quarter:], 50),
        "capacity_requests": len(capacity),
        "mean_batch_size": report.mean_batch_size,
    }
    if ctx.trace:
        load_s = []
        for _ in range(cfg["setups"]):
            t0 = time.perf_counter()
            load_index(path, mmap_points=True)
            load_s.append(time.perf_counter() - t0)
        batches = [
            entry for entry in read_worker_logs(log_dir)[os.path.basename(path)]
            if base <= entry[0] <= open_end
        ]
        batch_of = {key: entry for entry in batches for key in entry[3]}
        wait_ms = []
        groups: dict = {}
        for i, future in futures:
            entry = batch_of.get(float(open_q[i][0]))
            if entry is None or not future.done() or future.exception():
                continue
            wait_ms.append(
                (done_at[i] - base - arrivals[i] - (entry[1] - entry[0])) * 1e3
            )
            groups.setdefault(entry[0], []).append(future.result())
        transport_ms, n_bytes, n_rows = [], 0, 0
        for group in groups.values():
            batch = BatchKnnResult(
                results=tuple(group),
                stats=combine_stats(r.stats for r in group),
            )
            t0 = time.perf_counter()
            blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.loads(blob)
            transport_ms.append((time.perf_counter() - t0) * 1e3)
            n_bytes += len(blob)
            n_rows += len(group)
        result["layers"] = {
            "search.batch_ms": mean_or_zero(
                [(e[1] - e[0]) * 1e3 for e in batches]
            ),
            "search.scanned_per_query": (
                report.query_stats.points_scanned / max(report.n_requests, 1)
            ),
            "snapshot.save_s": median(save_s),
            "snapshot.load_s": median(load_s),
            "serve.start_s": median(start_s),
            "serve.batch_size_mean": report.mean_batch_size,
            "serve.wait_ms_p50": percentile(wait_ms, 50),
            "serve.generator_lag_ms_max": float(lag.max() * 1e3),
            "pool.transport_ms": mean_or_zero(transport_ms),
            "pool.result_bytes_per_query": n_bytes / max(n_rows, 1),
        }
    return result


def _stamp(done_at, i):
    def callback(_future) -> None:
        done_at[i] = time.perf_counter()
    return callback


def _release(slots, finished):
    def callback(_future) -> None:
        finished.append(time.perf_counter())
        slots.release()
    return callback
