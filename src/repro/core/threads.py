"""Real threads over the paper's flop-balanced row partition (§4).

The batched kernels run a product's output rows as independent row
ranges: every row is expanded, grouped and folded on its own, so cutting
``[0, nrows)`` anywhere and stitching the parts in row order gives the
same bytes as one serial pass.  :func:`run_row_parts` makes the cut the
paper's ``RowsToThreads`` does (prefix sum over per-row flop, then
``lowbnd``; :func:`~repro.core.scheduler.balanced_offsets`) and runs the
parts at once:

* the calling thread runs part 0, a process-wide
  :class:`~concurrent.futures.ThreadPoolExecutor` with ``cores - 1``
  workers runs the others, and the caller takes back any part no worker
  has started yet, so a busy executor never leaves the caller waiting
  for work it could do itself;
* each part works in the scratch arena of the thread that runs it (§4's
  thread-private memory), reads the operands and writes nothing shared;
* a part never submits work of its own, so callers that share the
  executor (serve compute threads, say) cannot deadlock on it.

numpy releases the GIL inside its sorts, gathers and most ufunc loops,
which is what lets Python threads overlap here.  A product gets ``P =
min(cores, flop // THREAD_MIN_FLOP)`` parts; below two it stays on the
calling thread with no executor involved.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, NamedTuple

import numpy as np

from .engine import ScratchArena, get_thread_arena
from .scheduler import balanced_offsets

__all__ = ["THREAD_MIN_FLOP", "Part", "run_row_parts", "usable_cores"]

#: Products a part must hold before a second thread pays for itself,
#: set at the measured two-core break-even: fresh ER/G500/FEM products of
#: 131k flop and up ran no slower split in two (1.0-1.9x), while 62-65k
#: flop ones were mixed (0.93-1.45x).
THREAD_MIN_FLOP = 1 << 16


class Part(NamedTuple):
    """One row range's result: ``value`` is what the body returned,
    ``seconds`` its wall time, and ``inline`` whether the calling thread
    ran it (its phase times are then the caller's own)."""

    lo: int
    hi: int
    value: Any
    seconds: float
    inline: bool


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _part_count(total_flop: int) -> int:
    """How many parts a ``total_flop``-product call is cut into."""
    if total_flop < 2 * THREAD_MIN_FLOP:
        return 1
    return max(1, min(usable_cores(), total_flop // THREAD_MIN_FLOP))


class _SharedExecutor:
    """The process-wide part executor, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: "ThreadPoolExecutor | None" = None

    def get(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(usable_cores() - 1, 1),
                    thread_name_prefix="repro-part",
                )
            return self._pool

    def after_fork(self) -> None:
        # A forked child inherits this object but none of the executor's
        # threads; its first threaded product builds a fresh executor.
        self._lock = threading.Lock()
        self._pool = None


_EXECUTOR = _SharedExecutor()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_EXECUTOR.after_fork)


def _run_part(
    body: Callable, lo: int, hi: int, arena: "ScratchArena | None", args: tuple
) -> "tuple[Any, float]":
    """Run ``body(lo, hi, arena, *args)`` and time it.

    The executor runs this with ``arena=None``: a worker works in its own
    thread's arena.
    """
    t0 = time.perf_counter()
    if arena is None:
        arena = get_thread_arena()
    value = body(lo, hi, arena, *args)
    return value, time.perf_counter() - t0


def run_row_parts(
    body: Callable,
    flop: np.ndarray,
    *args: Any,
    arena: "ScratchArena | None" = None,
) -> "list[Part]":
    """Run ``body`` over a flop-balanced partition of ``len(flop)`` rows.

    ``body(lo, hi, arena, *args)`` computes rows ``[lo, hi)`` in
    ``arena``; it must be a module-level function that reads ``args``
    and returns fresh per-part arrays.  Parts run by the calling thread
    use ``arena`` (default: the caller's own).  Returns one
    :class:`Part` per range, in row order.  An exception in any part
    propagates once the parts no thread has started are cancelled and
    the running ones have finished.
    """
    nrows = len(flop)
    nparts = _part_count(int(flop.sum()))
    if nparts == 1:
        value, seconds = _run_part(body, 0, nrows, arena, args)
        return [Part(0, nrows, value, seconds, True)]
    bounds = balanced_offsets(flop, nparts).tolist()
    pool = _EXECUTOR.get()
    futures = [
        pool.submit(_run_part, body, lo, hi, None, args)
        for lo, hi in zip(bounds[1:-1], bounds[2:])
    ]
    try:
        value, seconds = _run_part(body, bounds[0], bounds[1], arena, args)
        parts = [Part(bounds[0], bounds[1], value, seconds, True)]
        for (lo, hi), fut in zip(zip(bounds[1:-1], bounds[2:]), futures):
            inline = fut.cancel()  # no worker took it: run it here
            if inline:
                value, seconds = _run_part(body, lo, hi, arena, args)
            else:
                value, seconds = fut.result()
            parts.append(Part(lo, hi, value, seconds, inline))
    finally:
        for fut in futures:
            fut.cancel()
        wait(futures)  # no part outlives the call, even one that raised
    return parts
