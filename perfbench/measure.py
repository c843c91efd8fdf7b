"""Measurement helpers shared by the workloads: percentiles, process
memory, host steal per block, the environment record, the disk flush
before timing, and the worker-side timing seam.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

import numpy as np


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = int(np.ceil(q / 100.0 * ordered.size))
    return float(ordered[min(max(rank, 1), ordered.size) - 1])


def block_percentile(blocks, q: float) -> float:
    """Median over blocks of each block's nearest-rank percentile ``q``.

    A tail percentile pooled over a whole run moves with the share of
    samples that the host slowed: where a few blocks were disturbed, the
    disturbed samples fill the pooled tail.  The median of the blocks'
    own percentiles reads the tail of a typical block and leaves out up
    to half of the blocks wherever they fall.
    """
    return median([percentile(block, q) for block in blocks])


# Share of blocks kept on the workloads that take their latency
# percentiles per block (:func:`block_percentile`): keeping fewer blocks
# thins no percentile's sample there, so the selection can be stricter
# than where samples are pooled across blocks.
QUIET_BLOCKS = 0.25


def median(samples) -> float:
    return float(statistics.median(samples))


def mean_or_zero(samples) -> float:
    return float(np.mean(samples)) if len(samples) else 0.0


def _descendants(pid: int) -> list[int]:
    """Live descendant pids, read from ``/proc/<pid>/task/*/children``."""
    found = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        task_dir = f"/proc/{parent}/task"
        try:
            tasks = os.listdir(task_dir)
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"{task_dir}/{task}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            stack.extend(children)
    return found


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Summed peak resident memory of this process and its live children."""
    pids = [os.getpid(), *_descendants(os.getpid())]
    return sum(_vm_hwm_kib(pid) for pid in pids) / 1024.0


def read_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's aggregate CPU line."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_share(start, end) -> float:
    """Share of CPU ticks stolen between two :func:`read_cpu_ticks` reads."""
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total > 0 else 0.0


class StealMeter:
    """The host's steal share of each block of a timed phase.

    On a small virtual machine the hypervisor takes the CPUs away from
    time to time; the timed figures of a block in which it did are those
    of a smaller machine.  A workload cuts its timed phase into blocks,
    calls :meth:`mark` at the end of each, and takes its figures from
    the blocks :meth:`quiet` selects.
    """

    def __init__(self) -> None:
        self.shares: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.restart()

    def restart(self) -> None:
        """Start a block here, leaving out the time since the last mark."""
        self._last = read_cpu_ticks()
        self._start = time.perf_counter()

    def mark(self) -> None:
        """End the current block and start the next."""
        now = read_cpu_ticks()
        end = time.perf_counter()
        self.shares.append(steal_share(self._last, now))
        self.spans.append((self._start, end))
        self._last, self._start = now, end

    def quiet(self, share: float = 0.5) -> np.ndarray:
        """Mask of the quieter blocks: steal at most the ``share`` quantile.

        Ties at the quantile are all kept, so at least ``share`` of the
        blocks are selected.  Where ``/proc/stat`` cannot be read every
        block reads 0 and all are selected.
        """
        shares = np.asarray(self.shares)
        return shares <= np.quantile(shares, share)


def _git_commit(root: str) -> str | None:
    """HEAD commit read from ``.git`` without running git, if present."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        return "unknown"


def environment(root: str, seed: int, steal_start, steal_end) -> dict:
    """The record printed with every run, so a slow run can be traced."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "seed": seed,
        "steal_jiffies": steal_end[0] - steal_start[0],
        "steal_share": steal_share(steal_start, steal_end),
        "argv": sys.argv[1:],
    }


def flush_to_disk(root: str) -> None:
    """fsync every file under ``root`` (a file or a directory).

    Set-up writes snapshots through the page cache.  Flushing them before
    timing starts keeps the kernel's write-back of those pages, some
    30 s later, out of the timed phases.
    """
    paths = [root]
    if os.path.isdir(root):
        paths = [os.path.join(base, name)
                 for base, _, names in os.walk(root) for name in names]
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class TimingLoader:
    """A picklable ``index_loader`` that times ``query_batch`` in workers.

    Passed to the servers' public ``index_loader`` argument.  Each worker
    appends one line per batch to its own log: monotonic start and end
    (``time.perf_counter`` reads one system-wide clock on Linux, so the
    coordinator can compare them with its own timestamps), the row count,
    and the first coordinate of every row as the row's key.
    """

    def __init__(self, log_dir: str) -> None:
        self.log_dir = log_dir

    def __call__(self, snapshot_path: str, mmap_points: bool):
        from repro.search import load_index

        index = load_index(snapshot_path, mmap_points=mmap_points)
        name = os.path.basename(snapshot_path)
        path = os.path.join(self.log_dir, f"{name}.{os.getpid()}.log")
        return _TimedIndex(index, path)


class _TimedIndex:
    def __init__(self, index, log_path: str) -> None:
        self._index = index
        self._log = open(log_path, "a", buffering=1)

    def __getattr__(self, name):
        return getattr(self._index, name)

    def query_batch(self, queries, k: int = 1, **kwargs):
        start = time.perf_counter()
        batch = self._index.query_batch(queries, k=k, **kwargs)
        end = time.perf_counter()
        keys = " ".join(repr(float(row[0])) for row in queries)
        self._log.write(f"{start!r} {end!r} {len(queries)} {keys}\n")
        return batch


def read_worker_logs(log_dir: str) -> dict[str, list[tuple]]:
    """Snapshot name -> list of ``(start, end, n_rows, keys)`` batches."""
    logs: dict[str, list[tuple]] = {}
    for name in sorted(os.listdir(log_dir)):
        if not name.endswith(".log"):
            continue
        snapshot = name.rsplit(".", 2)[0]
        with open(os.path.join(log_dir, name)) as handle:
            for line in handle:
                parts = line.split()
                logs.setdefault(snapshot, []).append((
                    float(parts[0]),
                    float(parts[1]),
                    int(parts[2]),
                    tuple(float(p) for p in parts[3:]),
                ))
    return logs
