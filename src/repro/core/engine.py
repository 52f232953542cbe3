"""Execution-engine dispatch layer and the per-thread scratch arena.

Every algorithm in the registry exists for two different jobs, and the
*engine* selects which one runs:

* ``"faithful"`` — the scalar, instrumented kernels (``hash_spgemm`` and
  friends).  They execute the paper's algorithms literally — slot-by-slot
  hash probes, per-element heap pushes — because those operations are the
  data the machine-level performance model consumes.  This is the default.
* ``"fast"`` — the batched numpy implementation
  (:mod:`repro.core.hash_batch`): whole flop-bounded row blocks are expanded,
  bucketed and scatter-reduced with vectorized primitives.  It produces
  **bit-for-bit identical** CSR output (indptr/indices/data, sorted or
  unsorted) for the hash-family kernels, SPA and the ``mkl_inspector``
  proxy (a one-phase SPA with unsorted output), at numpy speed — the same
  re-mapping of hash SpGEMM onto wide vector units that Le Fèvre & Casas
  (arXiv:2303.02471) perform on real hardware, applied to numpy's vector
  width.

The registry below is the plug-in point for future backends (sharded,
cached, multi-process SUMMA): a backend registers an :class:`EngineInfo`,
and the algorithm table's rows (:data:`repro.core.spgemm.ALGORITHMS`) name
the kernel it runs.

Algorithms without a batched implementation (the Heap family and the
``mkl``/``kokkos`` proxies, whose element-level behaviour *is* their
purpose) fall back to the faithful kernel under ``engine="fast"``; ``esc``
is inherently vectorized, so both engines run the same code for it.

The :class:`ScratchArena` is the engine-level realization of the paper's
"parallel" memory-management scheme (§5.3.1): rather than allocating fresh
key/value/permutation buffers per row block (the single-allocator bottleneck
of Fig. 4), each thread owns one arena whose buffers grow geometrically and
are reused across blocks and across calls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, invalid_choice

__all__ = [
    "EngineInfo",
    "ENGINES",
    "available_engines",
    "resolve_engine",
    "ScratchArena",
    "get_thread_arena",
]


@dataclass(frozen=True)
class EngineInfo:
    """One execution backend: how a registered algorithm gets run.

    Attributes
    ----------
    name:
        Registry key accepted by ``spgemm(..., engine=...)``.
    description:
        Human-readable summary (shown by the CLI / docs).
    exact_counts:
        Whether kernels under this engine produce exact per-operation
        instrumentation (hash probes, heap pushes).  The fast engine only
        fills the coarse ledger entries (flop, output nnz, sort volume).
    """

    name: str
    description: str
    exact_counts: bool


#: Engine registry.  Future backends (sharding, caching, multi-process
#: SUMMA) plug in here; table rows name the kernel each one runs.
ENGINES: "dict[str, EngineInfo]" = {
    "faithful": EngineInfo(
        "faithful",
        "scalar instrumented kernels (paper-exact operation streams)",
        exact_counts=True,
    ),
    "fast": EngineInfo(
        "fast",
        "batched numpy execution (vectorized row-block processing)",
        exact_counts=False,
    ),
}


def available_engines() -> "list[str]":
    """Engine names accepted by :func:`repro.spgemm`, in registry order."""
    return list(ENGINES)


def resolve_engine(engine: str, algorithm: "str | None" = None) -> str:
    """Validate ``engine`` and return the engine that will actually run.

    ``"auto"`` (accepted on the chain and masked surfaces) means ``"fast"``.
    ``"fast"`` resolves to ``"faithful"`` for an ``algorithm`` whose table
    row has no fast kernel (heap/merge/blocked SPA and the ``mkl``/
    ``kokkos`` proxies — their element-level behaviour is the point), and
    stays ``"fast"`` for the hash family, SPA, ``mkl_inspector`` and the
    inherently-vectorized ESC.
    """
    if engine == "auto":
        engine = "fast"
    elif engine not in ENGINES:
        raise invalid_choice("engine", engine, available_engines())
    if engine == "fast" and algorithm is not None:
        from .spgemm import ALGORITHMS  # deferred: spgemm's kernels import us

        if ALGORITHMS[algorithm].fast_kernel is None:
            return "faithful"
    return engine


class ScratchArena:
    """Named, geometrically-grown scratch buffers reused across row blocks.

    Mirrors the paper's thread-private allocation scheme: one allocation
    amortized over the whole computation instead of one per row (block).
    ``take(name, size, dtype)`` returns a length-``size`` view of the named
    buffer, growing it to the next power of two only when needed, so steady
    state performs **zero** allocations per block.

    An arena is *not* thread-safe; use :func:`get_thread_arena` to obtain
    the calling thread's private instance.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: "dict[str, np.ndarray]" = {}

    def take(self, name: str, size: int, dtype, fill=None) -> np.ndarray:
        """A length-``size`` view of buffer ``name``, allocated on demand.

        With ``fill``, a newly allocated buffer starts filled with it; a
        reused one is returned as its last user left it, so callers that
        pass ``fill`` restore every entry they change (the dense tables).
        """
        if size < 0:
            raise ConfigError(f"arena buffer size must be >= 0, got {size}")
        dt = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dt:
            cap = 1 << max(int(size - 1).bit_length(), 10)  # >= 1024 entries
            if fill is None:
                buf = np.empty(cap, dtype=dt)
            else:
                buf = np.full(cap, fill, dtype=dt)
            self._buffers[name] = buf
        return buf[:size]

    @property
    def allocated_bytes(self) -> int:
        """Total bytes currently held by the arena's buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def release(self) -> None:
        """Drop every buffer (memory returns to the allocator)."""
        self._buffers.clear()


_THREAD_ARENAS = threading.local()


def get_thread_arena() -> ScratchArena:
    """The calling thread's private :class:`ScratchArena` (created lazily)."""
    arena = getattr(_THREAD_ARENAS, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _THREAD_ARENAS.arena = arena
    return arena
