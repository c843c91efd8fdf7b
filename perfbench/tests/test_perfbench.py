"""Tests of the benchmark itself: oracle, answer check, output format.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The output tests start the benchmark in smoke mode (tiny sizes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from metrics import END_TO_END, ONLINE_LAYER, PER_LAYER  # noqa: E402
from oracle import Ledger, check_answer, exact_knn  # noqa: E402

# The workloads of BENCHMARK.json, and all that run.py runs.
BENCHMARK_WORKLOADS = ("bulk-arrhythmia", "ingest-ionosphere")
WORKLOADS = ("online-musk", *BENCHMARK_WORKLOADS)


def test_oracle_matches_hand_checked_case():
    corpus = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0],
                       [0.0, -1.0], [4.0, 3.0]])
    ids = np.array([10, 14, 12, 13, 11, 15])
    ref_ids, ref_d = exact_knn(corpus, ids, [[0.0, 0.0], [4.0, 0.0]], k=3)
    # Query (0, 0): ids 14 and 11 tie at distance 1; the lower id wins.
    assert ref_ids[0].tolist() == [10, 11, 14, 12, 13, 15]
    assert ref_d[0].tolist() == [0.0, 1.0, 1.0, 2.0, 3.0, 5.0]
    # Query (4, 0): 13 at 1, 15 at 3, 14 at 3 (tie: 14 < 15), then 10 at 4.
    assert ref_ids[1].tolist()[:4] == [13, 14, 15, 10]
    assert ref_d[1].tolist()[:4] == [1.0, 3.0, 3.0, 4.0]


def test_oracle_agrees_with_direct_scan_on_random_rows():
    rng = np.random.default_rng(3)
    corpus = rng.normal(size=(500, 20)) * 1e3
    queries = rng.normal(size=(7, 20)) * 1e3
    ref_ids, ref_d = exact_knn(corpus, np.arange(500), queries, k=5)
    for q, row_ids, row_d in zip(queries, ref_ids, ref_d):
        dist = np.sqrt(np.sum(np.square(corpus - q), axis=1))
        order = np.lexsort((np.arange(500), dist))[: row_ids.size]
        assert row_ids.tolist() == order.tolist()
        assert np.array_equal(row_d, dist[order])


@pytest.fixture
def reference():
    rng = np.random.default_rng(0)
    corpus = rng.normal(size=(200, 8))
    ref_ids, ref_d = exact_knn(corpus, np.arange(200), rng.normal(size=(1, 8)), 5)
    return ref_ids[0], ref_d[0]


def test_check_accepts_the_oracle_answer(reference):
    ref_ids, ref_d = reference
    assert check_answer(ref_ids[:5], ref_d[:5], ref_ids, ref_d, 5) is None


def test_check_rejects_one_swapped_id(reference):
    ref_ids, ref_d = reference
    ids = ref_ids[:5].copy()
    ids[1], ids[2] = ids[2], ids[1]
    assert "id" in check_answer(ids, ref_d[:5], ref_ids, ref_d, 5)


def test_check_rejects_one_perturbed_distance(reference):
    ref_ids, ref_d = reference
    dist = ref_d[:5].copy()
    dist[3] *= 1 + 1e-7
    assert "distance" in check_answer(ref_ids[:5], dist, ref_ids, ref_d, 5)


def test_check_rejects_a_short_answer(reference):
    ref_ids, ref_d = reference
    assert check_answer(ref_ids[:4], ref_d[:4], ref_ids, ref_d, 5) is not None


def test_check_allows_a_near_tie_at_rank_k():
    ref_ids = np.array([4, 7, 2, 9])
    ref_d = np.array([1.0, 2.0, 3.0, 3.0 * (1 + 1e-12)])
    assert check_answer([4, 7, 9], [1.0, 2.0, 3.0], ref_ids, ref_d, 3) is None
    # The same swap away from rank k is wrong.
    assert check_answer([7, 4, 2], [1.0, 2.0, 3.0], ref_ids, ref_d, 3)


def test_ledger_counts_a_corrupted_answer_as_failed(reference):
    ref_ids, ref_d = reference
    ids = ref_ids[:5].copy()
    ids[0] = ids[4]
    answer = types.SimpleNamespace(indices=ids, distances=ref_d[:5])
    ledger = Ledger()
    ledger.check(answer, (ref_ids[None], ref_d[None]), 0, 5)
    assert ledger.result()["failed"] == 1
    assert ledger.result()["correct"] is False


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    catalogue = PER_LAYER if trace else END_TO_END
    if trace and workload == "online-musk":
        catalogue = {**PER_LAYER, **ONLINE_LAYER}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in catalogue.items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARK_WORKLOADS)
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == catalogue


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "online-musk", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
