"""Independent exact k-NN oracle and the answer check.

Nothing here imports ``repro``: the oracle is plain numpy in float64,
so a defect in the program's kernels cannot also hide in its reference.

Ordering: ascending Euclidean distance, ties broken by the lower global
id.  The oracle returns ``k + extra`` neighbours so the check can see
which ids sit in a near-tie just past rank ``k``.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance on distances, and the relative gap below which two
# neighbours count as tied (float rounding may order them either way).
RTOL = 1e-9
# Oracle rows beyond rank k, kept to recognise near-ties at rank k.
EXTRA = 8
# Gram-expansion candidates beyond k + EXTRA that are rescored exactly.
_SLACK = 64
# Query rows per block, so the (rows, n) distance block stays small.
_BLOCK_ENTRIES = 2_000_000


def exact_knn(corpus, ids, queries, k: int, extra: int = EXTRA):
    """Exact top ``k + extra`` neighbours of every query row.

    Args:
        corpus: ``(n, d)`` rows.
        ids: ``(n,)`` global id of each corpus row.
        queries: ``(q, d)`` query rows.
        k: neighbours the program is asked for.
        extra: further oracle rows kept past rank ``k``.

    Returns:
        ``(ids, distances)``, each ``(q, min(k + extra, n))``, sorted by
        ``(distance, id)``.

    Candidates come from the Gram expansion ``|x|^2 - 2 q.x + |q|^2`` and
    are rescored by direct subtraction.  A row is accepted only when its
    last kept distance is provably below every unscored row's estimate;
    otherwise that query is scored directly over the whole corpus.
    """
    corpus = np.asarray(corpus, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n = corpus.shape[0]
    keep = min(k + extra, n)
    n_cand = min(keep + _SLACK, n)
    sq_norms = np.einsum("nd,nd->n", corpus, corpus)
    out_ids = np.empty((queries.shape[0], keep), dtype=np.int64)
    out_d = np.empty((queries.shape[0], keep), dtype=np.float64)
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    for start in range(0, queries.shape[0], step):
        block = queries[start:start + step]
        q_norms = np.einsum("qd,qd->q", block, block)
        approx = sq_norms[None, :] - 2.0 * (block @ corpus.T) + q_norms[:, None]
        if n_cand < n:
            cand = np.argpartition(approx, n_cand - 1, axis=1)[:, :n_cand]
        else:
            cand = np.broadcast_to(np.arange(n), (block.shape[0], n))
        for row in range(block.shape[0]):
            rows = cand[row]
            exact_sq = np.sum(np.square(corpus[rows] - block[row]), axis=1)
            if n_cand < n:
                # Everything outside the candidate set has a Gram estimate
                # at least the largest candidate estimate; allow for the
                # expansion's cancellation error before trusting the cut.
                cut = approx[row, rows].max()
                error = 1e-9 * (sq_norms.max() + q_norms[row])
                if np.sort(exact_sq)[keep - 1] > cut - error:
                    rows = np.arange(n)
                    exact_sq = np.sum(np.square(corpus - block[row]), axis=1)
            dist = np.sqrt(exact_sq)
            order = np.lexsort((ids[rows], dist))[:keep]
            out_ids[start + row] = ids[rows][order]
            out_d[start + row] = dist[order]
    return out_ids, out_d


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-300)


def check_answer(got_ids, got_dist, ref_ids, ref_dist, k: int) -> str | None:
    """Compare one delivered answer with the oracle's row.

    Returns ``None`` when the answer is right, else a one-line reason.
    Ids must equal the oracle's rank by rank, except inside a near-tie
    at rank ``k`` (neighbours whose distances are within ``RTOL`` of the
    k-th distance may be swapped for each other).  Distances must agree
    to ``RTOL`` relative and ascend.
    """
    got_ids = np.asarray(got_ids, dtype=np.int64)
    got_dist = np.asarray(got_dist, dtype=np.float64)
    k = min(k, ref_ids.shape[0])
    if got_ids.shape != (k,) or got_dist.shape != (k,):
        return f"returned {got_ids.shape[0]} neighbours, expected {k}"
    if np.any(np.diff(got_dist) < 0):
        return "distances are not sorted ascending"
    if np.unique(got_ids).size != k:
        return "an id is returned twice"
    scale = np.maximum(np.maximum(np.abs(got_dist), np.abs(ref_dist[:k])), 1e-300)
    off = np.flatnonzero(np.abs(got_dist - ref_dist[:k]) > RTOL * scale)
    if off.size:
        rank = int(off[0])
        return (
            f"rank {rank}: distance {got_dist[rank]!r} != oracle "
            f"{ref_dist[rank]!r}"
        )
    kth = ref_dist[k - 1]
    true_dist = dict(zip(ref_ids.tolist(), ref_dist.tolist()))
    for rank in np.flatnonzero(got_ids != ref_ids[:k]):
        gid = int(got_ids[rank])
        d = true_dist.get(gid)
        if not (_near(ref_dist[rank], kth) and d is not None and _near(d, kth)):
            return f"rank {rank}: id {gid} != oracle id {int(ref_ids[rank])}"
    return None


class Ledger:
    """Counts attempted and failed operations and checks every answer.

    An operation fails when the program raises or its answer does not
    match the oracle; only the second kind makes a run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_error: str | None = None

    def fail(self, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        if self.first_error is None:
            self.first_error = reason

    def check(self, answer, ref, row: int, k: int) -> None:
        """Count one operation and check its answer."""
        self.attempted += 1
        self.verify(answer, ref, row, k)

    def verify(self, answer, ref, row: int, k: int) -> None:
        """Check the answer of an operation already counted."""
        error = check_answer(
            answer.indices, answer.distances, ref[0][row], ref[1][row], k
        )
        if error is not None:
            self.fail(f"query {row}: {error}", wrong=True)

    def collect(self, futures, ref, k: int) -> None:
        """Check ``(oracle row, future)`` pairs once they are done."""
        for row, future in futures:
            if not future.done() or future.exception() is not None:
                self.attempted += 1
                reason = (
                    "not answered in time" if not future.done()
                    else repr(future.exception())
                )
                self.fail(f"query {row}: {reason}", wrong=False)
                continue
            self.check(future.result(), ref, row, k)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.wrong == 0,
            "first_error": self.first_error,
        }
