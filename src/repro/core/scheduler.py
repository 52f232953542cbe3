"""Thread scheduling: the paper's light-weight load-balanced row assignment.

§4.1 / Fig. 6 of the paper: count flop per row, parallel prefix sum, then
each thread binary-searches (``lowbnd``) the prefix array for its start row,
so every thread owns a contiguous row range with ~equal flop.  This module
implements that ("balanced") partition plus the three OpenMP policies the
paper compares against:

* ``static`` — equal *row counts* per thread (what ``schedule(static)``
  does for a row-parallel loop);
* ``dynamic`` — rows handed out in chunks from a shared queue; we *simulate*
  the assignment deterministically (greedy: next chunk goes to the earliest-
  finishing thread) so the resulting per-thread load can be fed to the
  machine model;
* ``guided`` — like dynamic but with geometrically shrinking chunks.

All partitions are returned as a :class:`ThreadPartition` so downstream code
(kernels, perfmodel) treats them uniformly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..matrix.csr import CSR, INDEX_DTYPE, INDPTR_DTYPE, VALUE_DTYPE
from ..matrix.stats import flop_per_row

__all__ = [
    "ThreadPartition",
    "balanced_offsets",
    "lowbnd",
    "rows_to_threads",
    "static_partition",
    "dynamic_assignment",
    "guided_assignment",
    "partition_for_policy",
]


def lowbnd(vec: np.ndarray, value: float) -> int:
    """Minimum index ``id`` such that ``vec[id] >= value`` (Fig. 6, line 14).

    ``vec`` must be non-decreasing.  Returns ``len(vec)`` when every element
    is smaller than ``value``.
    """
    return int(np.searchsorted(vec, value, side="left"))


@dataclass(frozen=True)
class ThreadPartition:
    """Assignment of output rows to threads.

    Attributes
    ----------
    policy:
        One of ``"balanced"``, ``"static"``, ``"dynamic"``, ``"guided"``.
    nthreads:
        Number of threads.
    offsets:
        For contiguous policies (balanced/static): array of length
        ``nthreads + 1``; thread ``t`` owns rows
        ``[offsets[t], offsets[t+1])``.  ``None`` for chunked policies.
    chunks:
        For dynamic/guided: list of ``(row_start, row_end, thread)`` triples
        in hand-out order.  ``None`` for contiguous policies.
    row_cost:
        The per-row cost array the partition balanced against (flop for
        ``balanced``, implicit 1s otherwise).
    """

    policy: str
    nthreads: int
    offsets: np.ndarray | None = None
    chunks: "list[tuple[int, int, int]] | None" = None
    row_cost: np.ndarray | None = None

    @property
    def nrows(self) -> int:
        if self.offsets is not None:
            return int(self.offsets[-1])
        return max((e for _, e, _ in self.chunks), default=0)

    def rows_of(self, thread: int) -> "list[tuple[int, int]]":
        """Row ranges owned by ``thread`` (a single range for contiguous
        policies, possibly many for chunked ones)."""
        if self.offsets is not None:
            return [(int(self.offsets[thread]), int(self.offsets[thread + 1]))]
        return [(s, e) for s, e, t in self.chunks if t == thread]

    def thread_loads(self, row_cost: np.ndarray) -> np.ndarray:
        """Total ``row_cost`` assigned to each thread.

        This is the quantity the makespan model maximizes over; using the
        *actual* partition makes simulated load imbalance exact rather than
        modeled.
        """
        csum = np.concatenate([[0], np.cumsum(row_cost)])
        loads = np.zeros(self.nthreads, dtype=VALUE_DTYPE)
        if self.offsets is not None:
            loads[:] = csum[self.offsets[1:]] - csum[self.offsets[:-1]]
        else:
            for s, e, t in self.chunks:
                loads[t] += csum[e] - csum[s]
        return loads

    def num_dispatches(self) -> int:
        """How many scheduler hand-offs occurred (1 per thread for contiguous
        policies; one per chunk for dynamic/guided).  Drives the scheduling-
        overhead term of the machine model (Fig. 2)."""
        if self.offsets is not None:
            return self.nthreads
        return len(self.chunks)

    def validate(self, nrows: "int | None" = None) -> None:
        """Check the partition covers rows ``[0, nrows)`` exactly once.

        ``nrows`` defaults to the partition's own row count (so an
        internally consistent partition always validates); pass the
        matrix's row count to additionally assert full coverage — a
        contiguous partition whose last offset stops short of ``nrows``
        silently drops trailing rows, which is exactly the bug this check
        exists to reject.
        """
        n = self.nrows if nrows is None else int(nrows)
        if self.offsets is not None:
            if len(self.offsets) != self.nthreads + 1:
                raise ConfigError(
                    f"partition has {len(self.offsets)} offsets for "
                    f"{self.nthreads} threads; expected nthreads + 1"
                )
            if self.offsets[0] != 0:
                raise ConfigError("partition must start at row 0")
            if (np.diff(self.offsets) < 0).any():
                raise ConfigError("partition offsets must be non-decreasing")
            if (self.offsets < 0).any() or (self.offsets > n).any():
                raise ConfigError(
                    f"partition offsets must lie in [0, {n}]; got "
                    f"[{int(self.offsets.min())}, {int(self.offsets.max())}]"
                )
            if int(self.offsets[-1]) != n:
                raise ConfigError(
                    f"partition covers rows [0, {int(self.offsets[-1])}) of "
                    f"{n}; trailing rows would be dropped"
                )
            return
        covered = np.zeros(n, dtype=INDEX_DTYPE)
        for s, e, t in self.chunks:
            if not (0 <= t < self.nthreads):
                raise ConfigError(f"chunk assigned to invalid thread {t}")
            if not (0 <= s <= e <= n):
                raise ConfigError(
                    f"chunk [{s}, {e}) out of range for {n} rows"
                )
            covered[s:e] += 1
        if (covered != 1).any():
            raise ConfigError("chunked partition does not cover rows exactly once")


def _check_threads(nthreads: int) -> None:
    if nthreads < 1:
        raise ConfigError(f"nthreads must be >= 1, got {nthreads}")


def rows_to_threads(
    a: CSR, b: CSR, nthreads: int, *, row_cost: np.ndarray | None = None
) -> ThreadPartition:
    """The paper's ``RowsToThreads`` (Fig. 6): flop-balanced contiguous split.

    1. compute flop per row (vectorized);
    2. prefix-sum;
    3. thread ``tid`` starts at ``lowbnd(flopps, aveflop * tid)``.

    ``row_cost`` overrides the flop vector (the Heap kernel balances on the
    same flop estimate, §4.2.3).
    """
    _check_threads(nthreads)
    cost = flop_per_row(a, b) if row_cost is None else np.asarray(row_cost)
    offsets = balanced_offsets(cost, nthreads)
    offsets[nthreads] = a.nrows
    return ThreadPartition(
        policy="balanced",
        nthreads=nthreads,
        offsets=offsets,
        row_cost=cost,
    )


def balanced_offsets(cost: np.ndarray, nthreads: int) -> np.ndarray:
    """``RowsToThreads``' cut points over per-row ``cost``: thread ``t``
    owns rows ``[offsets[t], offsets[t + 1])`` of ``len(cost)``.

    Middle threads may own no rows when one row carries more than a
    thread's share (``lowbnd`` keeps the offsets monotone).
    """
    nrows = len(cost)
    flopps = np.cumsum(cost)
    total = int(flopps[-1]) if nrows else 0
    if total == 0:
        # Zero-flop degeneracy (e.g. B has empty rows wherever A is
        # nonzero): ave == 0 would make every lowbnd return 0 and the last
        # thread would own *all* rows.  Fall back to an even row split —
        # with no flop to balance, row count is the only load proxy left.
        return np.linspace(0, nrows, nthreads + 1).astype(INDPTR_DTYPE)
    ave = total / nthreads
    offsets = np.zeros(nthreads + 1, dtype=INDPTR_DTYPE)
    for tid in range(1, nthreads):
        offsets[tid] = lowbnd(flopps, ave * tid)
    offsets[nthreads] = nrows
    return offsets


def static_partition(nrows: int, nthreads: int) -> ThreadPartition:
    """OpenMP ``schedule(static)``: equal row counts, contiguous."""
    _check_threads(nthreads)
    offsets = np.linspace(0, nrows, nthreads + 1).astype(INDPTR_DTYPE)
    return ThreadPartition(policy="static", nthreads=nthreads, offsets=offsets)


def dynamic_assignment(
    row_cost: np.ndarray, nthreads: int, *, chunk: int = 1
) -> ThreadPartition:
    """Deterministic simulation of ``schedule(dynamic, chunk)``.

    Chunks of ``chunk`` consecutive rows are handed, in order, to the thread
    that becomes idle first (greedy list scheduling — the behaviour an OpenMP
    dynamic loop converges to when per-chunk costs dominate).
    """
    _check_threads(nthreads)
    if chunk < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    n = len(row_cost)
    csum = np.concatenate([[0], np.cumsum(row_cost)])
    heap = [(0.0, t) for t in range(nthreads)]
    heapq.heapify(heap)
    chunks: "list[tuple[int, int, int]]" = []
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        load, t = heapq.heappop(heap)
        chunks.append((s, e, t))
        heapq.heappush(heap, (load + float(csum[e] - csum[s]), t))
    return ThreadPartition(
        policy="dynamic",
        nthreads=nthreads,
        chunks=chunks,
        row_cost=np.asarray(row_cost),
    )


def guided_assignment(
    row_cost: np.ndarray, nthreads: int, *, min_chunk: int = 1
) -> ThreadPartition:
    """Deterministic simulation of ``schedule(guided)``.

    Each hand-out takes ``max(remaining / nthreads, min_chunk)`` rows — the
    geometric shrink OpenMP's guided schedule uses — and goes to the
    earliest-idle thread.
    """
    _check_threads(nthreads)
    n = len(row_cost)
    csum = np.concatenate([[0], np.cumsum(row_cost)])
    heap = [(0.0, t) for t in range(nthreads)]
    heapq.heapify(heap)
    chunks: "list[tuple[int, int, int]]" = []
    s = 0
    while s < n:
        size = max((n - s) // nthreads, min_chunk)
        e = min(s + size, n)
        load, t = heapq.heappop(heap)
        chunks.append((s, e, t))
        heapq.heappush(heap, (load + float(csum[e] - csum[s]), t))
        s = e
    return ThreadPartition(
        policy="guided",
        nthreads=nthreads,
        chunks=chunks,
        row_cost=np.asarray(row_cost),
    )


def partition_for_policy(
    policy: str,
    a: CSR,
    b: CSR,
    nthreads: int,
    *,
    chunk: int = 1,
) -> ThreadPartition:
    """Build a partition of ``a @ b``'s output rows under any policy."""
    if policy == "balanced":
        return rows_to_threads(a, b, nthreads)
    if policy == "static":
        return static_partition(a.nrows, nthreads)
    if policy == "dynamic":
        return dynamic_assignment(flop_per_row(a, b), nthreads, chunk=chunk)
    if policy == "guided":
        return guided_assignment(flop_per_row(a, b), nthreads, min_chunk=chunk)
    raise ConfigError(
        f"unknown scheduling policy {policy!r}; "
        "expected balanced/static/dynamic/guided"
    )
