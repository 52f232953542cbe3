"""ESC SpGEMM — expand / sort / compress, fully numpy-vectorized.

ESC is the row-by-row *expansion* family from the GPU literature the paper
cites (Dalton/Olson/Bell's cusp, and the binning codes of [21][25] descend
from it): materialize every intermediate product, sort by output coordinate,
and reduce equal coordinates.  We include it for three reasons:

1. it is the only SpGEMM formulation that vectorizes cleanly in numpy, so it
   serves as the **fast oracle** against which the scalar Hash/Heap/SPA
   kernels are validated at non-toy scales;
2. its symbolic half powers :func:`repro.core.symbolic.symbolic_row_nnz`,
   which the performance model needs for exact ``nnz(C)``;
3. it rounds out the algorithm-family comparison in the extended benches.

Memory is ``O(flop)`` per block; row blocks are capped at
``max_block_flop`` intermediate products (default ~8M).
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ShapeError
from ..matrix.csr import CSR, INDEX_DTYPE, INDPTR_DTYPE, VALUE_DTYPE
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .engine import get_thread_arena
from .hash_batch import _coordinate_segments
from .instrument import KernelStats
from .symbolic import (
    DEFAULT_MAX_BLOCK_FLOP,
    expand_structure,
    iter_row_blocks,
)

__all__ = ["esc_spgemm"]


def esc_spgemm(
    a: CSR,
    b: CSR,
    *,
    semiring: "str | Semiring" = PLUS_TIMES,
    sort_output: bool = True,
    stats: KernelStats | None = None,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
    tracer=None,
) -> CSR:
    """Multiply two CSR matrices by expand-sort-compress.

    The compress step inherently sorts every row, so ``sort_output=False``
    costs nothing extra and merely sets the metadata flag (the flag is kept
    True because the rows really are sorted).

    Accepts sorted or unsorted inputs and any semiring.

    With a ``tracer``, the per-block expand/sort/compress times accumulate
    into three phase spans (numeric / sort / stitch) reported once at the
    end — ESC's phases interleave block-by-block, so scoped spans per block
    would drown the trace in one span triple per block.
    """
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    sr = get_semiring(semiring)
    arena = get_thread_arena()

    nrows = a.nrows
    block_indices: list[np.ndarray] = []
    block_data: list[np.ndarray] = []
    row_nnz = np.zeros(nrows, dtype=INDPTR_DTYPE)
    total_flop = 0

    traced = tracer is not None
    expand_seconds = sort_seconds = compress_seconds = 0.0
    clock = time.perf_counter
    t0 = clock() if traced else 0.0

    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, a_src, b_src = expand_structure(a, b, r0, r1)
        n = len(rows)
        if n == 0:
            continue
        total_flop += n
        vals = np.asarray(
            sr.mul(a.data[a_src], b.data[b_src]), dtype=VALUE_DTYPE
        )
        if traced:
            t1 = clock()
            expand_seconds += t1 - t0
        # One in-place sort of unique (row, col, arrival) keys — the same
        # permutation as a two-key lexsort, which it falls back to on
        # overflow.
        order, _, starts, seg_rows, seg_cols = _coordinate_segments(
            rows, cols, r0, r1 - r0, b.ncols, arena
        )
        v = np.take(vals, order, out=arena.take("vals_s", n, VALUE_DTYPE))
        if traced:
            t2 = clock()
            sort_seconds += t2 - t1
        block_indices.append(seg_cols)
        # The ESC sort boundary itself: this kernel *defines* the pairwise
        # sorted-merge convention the accum-order rule carves out.
        block_data.append(sr.reduce_segments(v, starts))  # repro-lint: disable=accum-order
        row_nnz[r0:r1] += np.bincount(seg_rows - r0, minlength=r1 - r0)
        if traced:
            t0 = clock()
            compress_seconds += t0 - t2

    if traced:
        t3 = clock()
    indptr = np.zeros(nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(row_nnz, out=indptr[1:])
    out_indices = (
        np.concatenate(block_indices)
        if block_indices
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    out_data = (
        np.concatenate(block_data) if block_data else np.empty(0, dtype=VALUE_DTYPE)
    )
    if traced:
        stitch_seconds = compress_seconds + (clock() - t3)
        tracer.record("expand", expand_seconds, phase="numeric", what="expand+mul")
        tracer.record("sort", sort_seconds, phase="sort", what="coordinate sort")
        tracer.record(
            "compress", stitch_seconds, phase="stitch", what="reduce+assemble"
        )

    if stats is not None:
        stats.flops += total_flop
        stats.sorted_elements += total_flop  # the sort touches every product
        stats.output_nnz += int(indptr[-1])
        stats.rows += nrows

    return CSR(
        (nrows, b.ncols),
        indptr,
        out_indices.astype(INDEX_DTYPE, copy=False),
        out_data,
        sorted_rows=True,
    )
