"""One-off reference figures quoted in ``perfbench/README.md``.

Usage (from the repository root)::

    python3 perfbench/reference.py [--seed 1]

Prints, one JSON object per line:

* ``online-musk`` on a ladder of arrival rates: p50/p90/p99 and whether a
  backlog built (the last quarter of requests waits far longer than the
  first);
* ``bruteforce`` against ``projscreen`` (m=10, coherence) batch time on
  the ``bulk-arrhythmia`` rows, both in-process;
* the machine's noise floor: one fixed pure-numpy workload timed in
  repeated blocks.

These are not part of the benchmark's runs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bulk  # noqa: E402
import online  # noqa: E402

LADDER = (50.0, 100.0, 150.0, 200.0, 300.0)


def rate_ladder(seed: int, seconds: float) -> None:
    for rate in LADDER:
        workdir = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
        os.makedirs(workdir)
        ctx = types.SimpleNamespace(
            seed=seed, seconds=seconds, trace=False, smoke=False,
            workdir=workdir, overrides={"rate": rate},
        )
        try:
            outcome = online.run(ctx)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({
            "figure": "online-musk rate ladder",
            "rate_qps": rate,
            "query_p50_ms": outcome["e2e"]["query_p50_ms"],
            "query_p90_ms": outcome["e2e"]["query_p90_ms"],
            **outcome["details"],
        }), flush=True)


def screen_vs_scan(seed: int, repeats: int = 7) -> None:
    from repro.datasets.synthetic import latent_concept_dataset
    from repro.search import build_index

    cfg = bulk.FULL
    data = latent_concept_dataset(
        n_samples=cfg["n"] + cfg["batch"], seed=seed,
        name="arrhythmia-like", **bulk.ARRHYTHMIA_PARAMS,
    ).features
    corpus, queries = data[:cfg["n"]], data[cfg["n"]:]
    indexes = {
        "bruteforce": build_index("bruteforce", corpus),
        "projscreen": build_index(
            "projscreen", corpus, subspace_dim=cfg["subspace_dim"],
            ordering="coherence",
        ),
    }
    for kind, index in indexes.items():
        index.query_batch(queries, k=cfg["k"])
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            answer = index.query_batch(queries, k=cfg["k"])
            times.append((time.perf_counter() - t0) * 1e3)
        stats = answer.stats
        print(json.dumps({
            "figure": "bulk-arrhythmia rows, one 128-query batch, k=100",
            "kind": kind,
            "batch_ms_median": float(np.median(times)),
            "batch_ms_min": min(times),
            "batch_ms_max": max(times),
            "pruned_frac": stats.nodes_pruned / max(stats.reduced_rows_scanned, 1),
        }), flush=True)


def noise_floor(blocks: int = 8, block_seconds: float = 6.5) -> None:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(400, 400))
    t0 = time.perf_counter()
    reps = 0
    while time.perf_counter() - t0 < 0.5:
        a @ a
        reps += 1
    reps = int(reps * block_seconds / 0.5)
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            a @ a
        times.append(time.perf_counter() - t0)
    print(json.dumps({
        "figure": "noise floor: fixed 400x400 matmul block",
        "block_s": times,
        "spread": (max(times) - min(times)) / float(np.median(times)),
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    noise_floor()
    screen_vs_scan(args.seed)
    rate_ladder(args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
