"""``ingest-ionosphere``: one closed-loop client mixing reads and writes.

The target is a ``MutableShardedServer`` with two in-process shards
(``bruteforce``), ``wal_sync="group"`` and size-triggered compaction,
seeded with 34-dim ionosphere-like rows.  Every round is 100 operations
in a seeded order: 50 queries (k=10), 35 inserts of fresh rows and 15
deletes of live rows chosen at random.

Before the timed set-up a store is prepared whose logs hold a fixed
number of un-compacted writes, so set-up is recovery: reopening the
store replays its logs.  The benchmark keeps its own model of the live
rows from acknowledged writes and checks answers against it.  The
timing figures come from the quarter of the rounds in which the host
took the least CPU time away (see :class:`measure.StealMeter`); the
latency percentiles are each round's own, 50 queries, and the median of
those over the quiet rounds (:func:`measure.block_percentile`).
"""

from __future__ import annotations

import os
import time

import numpy as np

from measure import (
    QUIET_BLOCKS,
    StealMeter,
    block_percentile,
    mean_or_zero,
    median,
    peak_rss_mib,
    percentile,
)
from oracle import Ledger, exact_knn

IONOSPHERE_PARAMS = dict(
    n_dims=34,
    n_concepts=10,
    n_classes=2,
    clusters_per_class=6,
    class_separation=8.0,
    concept_std=1.2,
    noise_std=2.5,
    scale_spread=0.7,
)
ROUND = (("query", 50), ("insert", 35), ("delete", 15))
ROUND_OPS = sum(count for _, count in ROUND)
FULL = dict(n=40_000, shards=2, k=10, compact_threshold=500,
            prepared_rounds=12, check_every=10, probes=32, setups=5,
            insert_pool=40_000, query_pool=2_000, sample_every=50,
            rss_rounds=25)
SMOKE = dict(n=2_000, shards=2, k=10, compact_threshold=60,
             prepared_rounds=1, check_every=5, probes=8, setups=2,
             insert_pool=4_000, query_pool=200, sample_every=10,
             rss_rounds=1)


class Model:
    """The live rowset as the benchmark believes it, by global id."""

    def __init__(self, rows: np.ndarray, n_live: int) -> None:
        self.rows = rows
        self.live = np.zeros(rows.shape[0], dtype=bool)
        self.live[:n_live] = True
        self.order = list(range(n_live))
        self.where = {gid: i for i, gid in enumerate(self.order)}
        self.next_id = n_live

    def insert(self, gid: int) -> None:
        self.live[gid] = True
        self.where[gid] = len(self.order)
        self.order.append(gid)
        self.next_id = gid + 1

    def delete(self, gid: int) -> None:
        self.live[gid] = False
        i = self.where.pop(gid)
        last = self.order.pop()
        if last != gid:
            self.order[i] = last
            self.where[last] = i

    def pick(self, rng) -> int:
        return self.order[int(rng.integers(len(self.order)))]

    def oracle(self, queries, k: int):
        ids = np.flatnonzero(self.live)
        return exact_knn(self.rows[ids], ids, queries, k)


def _ops(rng, rounds: int, kinds=("query", "insert", "delete")):
    """Seeded op order: whole rounds, each a shuffle of :data:`ROUND`."""
    for _ in range(rounds):
        ops = [kind for kind, count in ROUND if kind in kinds
               for _ in range(count)]
        rng.shuffle(ops)
        yield ops


def run(ctx) -> dict:
    from repro.datasets.synthetic import latent_concept_dataset
    from repro.search import load_index
    from repro.search.snapshot import GenerationStore
    from repro.serve import WalWriter, read_wal
    from repro.shard import MutableShardedServer

    cfg = SMOKE if ctx.smoke else FULL
    k = cfg["k"]
    rng = np.random.default_rng(ctx.seed)
    data = latent_concept_dataset(
        n_samples=cfg["n"] + cfg["insert_pool"] + cfg["query_pool"],
        seed=ctx.seed, name="ionosphere-like", **IONOSPHERE_PARAMS,
    ).features
    rows = data[:cfg["n"] + cfg["insert_pool"]]
    queries = data[cfg["n"] + cfg["insert_pool"]:]
    probes = queries[:cfg["probes"]]
    model = Model(rows, cfg["n"])
    root = os.path.join(ctx.workdir, "store")
    options = dict(n_shards=cfg["shards"], kind="bruteforce", wal_sync="group")
    ledger = Ledger()

    def apply_write(server, kind: str, timings=None) -> int:
        if kind == "insert":
            gid = model.next_id
            t0 = time.perf_counter()
            got = server.insert(rows[gid])
            elapsed = time.perf_counter() - t0
            if got != gid:
                raise RuntimeError(f"insert got id {got}, expected {gid}")
            model.insert(gid)
        else:
            gid = model.pick(rng)
            t0 = time.perf_counter()
            server.delete(gid)
            elapsed = time.perf_counter() - t0
            model.delete(gid)
        if timings is not None:
            timings.append(elapsed)
        return gid

    def check_all(server) -> None:
        ledger.attempted += 1
        if server.n_live != int(model.live.sum()):
            ledger.fail(
                f"server holds {server.n_live} live rows, model "
                f"{int(model.live.sum())}", wrong=True,
            )
        ref = model.oracle(probes, k)
        for row, probe in enumerate(probes):
            ledger.check(server.query(probe, k), ref, row, k)

    # Prepared store: seed rows plus whole rounds of writes left in the
    # logs.  Each shard's share stays below the compaction threshold, so
    # reopening replays them instead of compacting.
    with MutableShardedServer(root, rows[:cfg["n"]], **options) as server:
        for ops in _ops(rng, cfg["prepared_rounds"], ("insert", "delete")):
            for kind in ops:
                apply_write(server, kind)
    shard_roots = sorted(
        os.path.join(root, name) for name in os.listdir(root)
        if name.startswith("shard-")
    )
    replay_s, load_s = [], []
    if ctx.trace:
        for _ in range(cfg["setups"]):
            t0 = time.perf_counter()
            for shard_root in shard_roots:
                read_wal(GenerationStore(shard_root).active().wal_path)
            replay_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for shard_root in shard_roots:
                load_index(GenerationStore(shard_root).active().snapshot_path,
                           mmap_points=True)
            load_s.append(time.perf_counter() - t0)

    setup_s = []
    server = None
    insert_lat, delete_lat = [], []
    member_ms, fanout_ms, memtable = [], [], []
    n_ops = n_writes = syncs = 0
    writes_by_kind = []
    try:
        for attempt in range(cfg["setups"]):
            if server is not None:
                server.close()
            t0 = time.perf_counter()
            server = MutableShardedServer(
                root, compact_threshold=cfg["compact_threshold"], **options
            )
            server.query(probes[0], k)
            setup_s.append(time.perf_counter() - t0)
            check_all(server)

        members = server.members
        member_calls: list[float] = []
        if ctx.trace:
            for member in members:
                member.query = _timed(member.query, member_calls)
            last_sync = [(m.generation_id, m.wal_syncs) for m in members]

        # Each round is a block: its measured time (checks left out) and
        # its query latencies.
        round_s: list[float] = []
        round_lat: list[list[float]] = []
        steal = StealMeter()
        rss = None
        q_next = 0
        for ops in _ops(rng, 10**9):
            if sum(round_s) >= ctx.seconds and rss is not None:
                break
            steal.restart()
            started = time.perf_counter()
            checking = 0.0
            round_lat.append([])
            for kind in ops:
                n_ops += 1
                ledger.attempted += 1
                if kind == "query":
                    row = q_next % len(queries)
                    q_next += 1
                    member_calls.clear()
                    t0 = time.perf_counter()
                    answer = server.query(queries[row], k)
                    took = time.perf_counter() - t0
                    round_lat[-1].append(took)
                    if ctx.trace:
                        member_ms.extend(member_calls)
                        fanout_ms.append(took - sum(member_calls))
                    if q_next % cfg["check_every"] == 0:
                        t0 = time.perf_counter()
                        ledger.verify(answer, model.oracle(queries[row], k), 0, k)
                        checking += time.perf_counter() - t0
                else:
                    n_writes += 1
                    lat = insert_lat if kind == "insert" else delete_lat
                    gid = apply_write(server, kind, lat)
                    writes_by_kind.append((kind, gid))
                    if ctx.trace:
                        i = server.owner_of(gid)
                        gen, count = members[i].generation_id, members[i].wal_syncs
                        syncs += count - last_sync[i][1] if gen == last_sync[i][0] else count
                        last_sync[i] = (gen, count)
                if ctx.trace and n_ops % cfg["sample_every"] == 0:
                    memtable.append(mean_or_zero([m.memtable_ops for m in members]))
            round_s.append(time.perf_counter() - started - checking)
            steal.mark()
            if len(round_s) == cfg["rss_rounds"]:
                # Compactions follow the operation count, so the peak
                # after a fixed round covers the same work in every run.
                rss = peak_rss_mib()

        check_all(server)
        compactions = sum(m.n_compactions for m in members)
        compact_s = time.perf_counter()
        server.compact_all()
        compact_s = time.perf_counter() - compact_s
    finally:
        if server is not None:
            server.close()

    result = ledger.result()
    quiet = steal.quiet(QUIET_BLOCKS)
    quiet_ms = [np.asarray(lat) * 1e3
                for lat, keep in zip(round_lat, quiet) if keep]
    quiet_s = float(np.sum(np.asarray(round_s)[quiet]))
    all_ms = np.concatenate(round_lat) * 1e3
    result["e2e"] = {
        "setup_s": median(setup_s),
        "query_p50_ms": block_percentile(quiet_ms, 50),
        "query_p90_ms": block_percentile(quiet_ms, 90),
        "throughput_qps": sum(lat.size for lat in quiet_ms) / quiet_s,
        "ops_per_s": int(quiet.sum()) * ROUND_OPS / quiet_s,
        "peak_rss_mb": rss,
    }
    result["details"] = {
        "ops": n_ops,
        "rounds": len(round_s),
        "quiet_rounds": int(quiet.sum()),
        "all_rounds_ops_per_s": n_ops / sum(round_s),
        "pooled_p50_ms": percentile(all_ms, 50),
        "pooled_p90_ms": percentile(all_ms, 90),
        "pooled_p99_ms": percentile(all_ms, 99),
        "compactions": compactions,
        "write_p50_ms": percentile(
            np.asarray(insert_lat + delete_lat) * 1e3, 50
        ),
    }
    if ctx.trace:
        scratch = os.path.join(ctx.workdir, "scratch.wal")
        append_us = []
        with WalWriter(scratch, sync_policy="group") as wal:
            header = os.path.getsize(scratch)
            for kind, gid in writes_by_kind:
                if kind == "insert":
                    t0 = time.perf_counter()
                    wal.append_insert(gid, rows[gid])
                    append_us.append((time.perf_counter() - t0) * 1e6)
                else:
                    wal.append_delete(gid)
        log_bytes = os.path.getsize(scratch) - header
        result["layers"] = {
            "snapshot.load_s": median(load_s),
            "mutation.member_query_ms_p50": percentile(member_ms, 50) * 1e3,
            "mutation.fanout_overhead_ms_p50": percentile(fanout_ms, 50) * 1e3,
            "mutation.memtable_ops_mean": mean_or_zero(memtable),
            "mutation.compactions": compactions,
            "mutation.compact_s": compact_s,
            "mutation.insert_ms_p50": percentile(insert_lat, 50) * 1e3,
            "mutation.delete_ms_p50": percentile(delete_lat, 50) * 1e3,
            "wal.syncs_per_1k_writes": syncs * 1000 / max(n_writes, 1),
            "wal.append_us": mean_or_zero(append_us),
            "wal.bytes_per_write": log_bytes / max(len(writes_by_kind), 1),
            "wal.replay_s": median(replay_s),
        }
    return result


def _timed(call, sink: list):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)
    return timed
