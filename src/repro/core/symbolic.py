"""Vectorized symbolic machinery: expansion and exact per-row ``nnz(C)``.

Two-phase SpGEMM algorithms first run a *symbolic* phase that determines the
output pattern size (§2: "counts the number of non-zero elements of output
matrix first").  The scalar kernels do this with their own accumulators; this
module provides a fully numpy-vectorized equivalent used (a) by the ESC
kernel, (b) as the fast oracle for ``nnz(C)`` at scales where scalar Python
kernels are too slow, and (c) by the performance model, which needs exact
per-row output sizes for Eq. (2) and the sort-cost terms.

The expansion enumerates every intermediate product of ``C = A B``: for each
nonzero ``a_ik`` it emits the whole row ``b_k*``.  Memory is ``O(flop)`` for
the expanded block, so callers process row blocks capped at
``max_block_flop`` intermediate products.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import ShapeError
from ..matrix.csr import CSR, INDPTR_DTYPE
from ..matrix.stats import flop_per_row
from .engine import get_thread_arena

__all__ = [
    "expand_rows",
    "expand_structure",
    "fused_key_fits",
    "iter_row_blocks",
    "mask_membership",
    "masked_row_nnz",
    "segment_mask",
    "symbolic_row_nnz",
]

#: Default cap on intermediate products materialized at once (~8M entries
#: = a few hundred MB of scratch), keeping peak memory laptop-friendly.
DEFAULT_MAX_BLOCK_FLOP = 1 << 23


def fused_key_fits(span: int, ncols: int) -> bool:
    """Whether fused ``(row - r0) * ncols + col`` keys of a ``span``-row
    block stay inside int64 (and ``ncols`` is nonzero).

    The guard every fused-key sort shares; when it fails the caller falls
    back to a two-key sort over ``(row, col)``.
    """
    return bool(ncols) and span <= (2**62) // ncols


def expand_structure(
    a: CSR,
    b: CSR,
    row_start: int,
    row_end: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value-free expansion plan for output rows [row_start, row_end).

    Returns ``(out_rows, out_cols, a_src, b_src)`` where ``a_src`` /
    ``b_src`` index the operands' ``data`` arrays: intermediate product
    ``p`` is ``a.data[a_src[p]] * b.data[b_src[p]]`` landing at coordinate
    ``(out_rows[p], out_cols[p])``.  The four arrays depend only on the
    operands' *structure* (``indptr``/``indices``), which is what lets the
    inspector–executor plan layer cache them and replay numeric-only
    executions against new values.

    Everything is vectorized: the classic "ragged gather" uses a repeated
    arange built from cumulative offsets.
    """
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    lo = int(a.indptr[row_start])
    hi = int(a.indptr[row_end])
    a_cols = a.indices[lo:hi]
    reps = np.diff(b.indptr)[a_cols]  # nnz(b_k*) per a-nonzero
    total = int(reps.sum())
    if total == 0:
        empty = np.empty(0, dtype=a.indices.dtype)
        eidx = np.empty(0, dtype=INDPTR_DTYPE)
        return empty, empty, eidx, eidx
    # Output row of each intermediate product.
    row_of_entry = np.repeat(
        np.arange(row_start, row_end, dtype=a.indices.dtype),
        np.diff(a.indptr[row_start : row_end + 1]),
    )
    out_rows = np.repeat(row_of_entry, reps)
    # Positions into B's arrays: starts[j] + (0..reps[j]-1), vectorized.
    starts = b.indptr[a_cols]
    offs = np.arange(total, dtype=INDPTR_DTYPE)
    seg_begin = np.concatenate([[0], np.cumsum(reps)[:-1]])
    offs -= np.repeat(seg_begin, reps)
    b_src = np.repeat(starts, reps) + offs
    out_cols = b.indices[b_src]
    a_src = np.repeat(np.arange(lo, hi, dtype=INDPTR_DTYPE), reps)
    return out_rows, out_cols, a_src, b_src


def expand_rows(
    a: CSR,
    b: CSR,
    row_start: int,
    row_end: int,
    *,
    with_values: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Materialize all intermediate products for output rows [row_start, row_end).

    Returns ``(out_rows, out_cols, a_vals_expanded_x_b_vals_or_None)`` where
    the value array is only the *gathered pair* ``(a_ik, b_kj)`` combined by
    ordinary multiplication; semiring-specific combination is done by the
    caller (ESC passes the raw gathers through ``semiring.mul``).

    Structure discovery is delegated to :func:`expand_structure`; this
    wrapper just gathers the factor values on top.
    """
    out_rows, out_cols, a_src, b_src = expand_structure(a, b, row_start, row_end)
    if not with_values:
        return out_rows, out_cols, None
    if len(out_rows) == 0:
        return out_rows, out_cols, np.empty(0)
    # Keep the two factor gathers separate so semirings other than
    # plus_times can combine them; we return a 2-row stack.
    vals = np.stack([a.data[a_src], b.data[b_src]])
    return out_rows, out_cols, vals


def segment_mask(
    rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Boolean mask marking where a new ``(row, col)`` segment begins.

    ``rows``/``cols`` must already be grouped so equal coordinates are
    contiguous (any stable (row, col) sort does).  Shared by the ESC
    compress step, the batched engine and the two-key fallback of the
    exact counts — and cached by the plan layer, for which the mask *is*
    the symbolic result.
    """
    n = len(rows)
    if out is None:
        out = np.empty(n, dtype=bool)
    if n == 0:
        return out
    out[0] = True
    np.not_equal(rows[1:], rows[:-1], out=out[1:])
    np.logical_or(out[1:], cols[1:] != cols[:-1], out=out[1:])
    return out


def mask_membership(
    rows: np.ndarray,
    cols: np.ndarray,
    mask: CSR,
    row_start: int,
    row_end: int,
) -> np.ndarray:
    """Which coordinates ``(rows[p], cols[p])`` are stored entries of ``mask``.

    ``rows`` holds absolute row indices inside ``[row_start, row_end)``.
    The test is order-independent, so an unsorted mask works: the mask
    block's entries are flattened to fused ``(row - row_start) * ncols +
    col`` keys and sorted once, then every query key is located with one
    ``searchsorted``.  This is a *symbolic builder* like everything else in
    this module — the fused masked kernel and the plan inspector call it;
    numeric-only ``execute`` replays never do (the membership outcome is
    baked into the cached gather order).
    """
    n = len(rows)
    out = np.empty(n, dtype=bool)
    if n == 0:
        return out
    lo = int(mask.indptr[row_start])
    hi = int(mask.indptr[row_end])
    if lo == hi:
        out[:] = False
        return out
    ncols = mask.ncols
    if fused_key_fits(row_end - row_start, ncols):
        m_rows = np.repeat(
            np.arange(row_start, row_end, dtype=INDPTR_DTYPE),
            np.diff(mask.indptr[row_start : row_end + 1]),
        )
        mkeys = np.sort((m_rows - row_start) * ncols + mask.indices[lo:hi])
        pkeys = (rows.astype(INDPTR_DTYPE) - row_start) * ncols + cols
        pos = np.searchsorted(mkeys, pkeys)
        valid = pos < len(mkeys)
        out[:] = False
        out[valid] = mkeys[pos[valid]] == pkeys[valid]
        return out
    # Fused keys would overflow int64 (astronomical ncols): fall back to a
    # per-row membership test against each mask row's sorted columns.
    out[:] = False
    for i in range(row_start, row_end):
        sel = rows == i
        if not sel.any():
            continue
        mc = np.sort(mask.indices[mask.indptr[i] : mask.indptr[i + 1]])
        qc = cols[sel]
        pos = np.searchsorted(mc, qc)
        ok = pos < len(mc)
        hit = np.zeros(len(qc), dtype=bool)
        hit[ok] = mc[pos[ok]] == qc[ok]
        out[sel] = hit
    return out


def masked_row_nnz(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    complement: bool = False,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
) -> np.ndarray:
    """Exact per-row ``nnz`` of the masked product ``(A B) .* M``.

    The mask gates by *output coordinate*, so the count is the number of
    distinct expanded coordinates that are stored (resp. absent, with
    ``complement``) in the mask.  Drives the perfmodel's fusion accounting
    (saved materialization and sort volume).
    """
    out = np.zeros(a.nrows, dtype=INDPTR_DTYPE)
    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, _ = expand_rows(a, b, r0, r1, with_values=False)
        if len(rows) == 0:
            continue
        allowed = mask_membership(rows, cols, mask, r0, r1) != complement
        rows = rows[allowed]
        if len(rows) == 0:
            continue
        out[r0:r1] = _distinct_per_row(
            rows, cols[allowed], r0, r1 - r0, b.ncols
        )
    return out


def iter_row_blocks(
    a: CSR, b: CSR, max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP
) -> Iterator[Tuple[int, int]]:
    """Yield ``(row_start, row_end)`` blocks whose expansion stays bounded.

    A single row whose flop exceeds the cap still forms its own block (the
    cap is a soft target, correctness first).
    """
    n = a.nrows
    if n == 0:
        yield 0, 0
        return
    csum = np.cumsum(flop_per_row(a, b))
    start = 0
    while start < n:
        base = csum[start - 1] if start else 0
        end = int(np.searchsorted(csum, base + max_block_flop, side="right"))
        end = max(end, start + 1)  # an oversized single row forms its own block
        end = min(end, n)
        yield start, end
        start = end


def _distinct_per_row(
    rows: np.ndarray, cols: np.ndarray, r0: int, span: int, ncols: int
) -> np.ndarray:
    """Distinct ``(row, col)`` coordinates per row of a ``span``-row block.

    Each coordinate becomes one fused ``(row - r0) * ncols + col`` int64
    key, built in the calling thread's scratch arena and sorted in place,
    so equal coordinates are adjacent and a key's block row is
    ``key // ncols``.  When the fused key would overflow, a two-key
    lexsort over ``(row, col)`` counts the same runs.
    """
    n = len(rows)
    if fused_key_fits(span, ncols):
        arena = get_thread_arena()
        key = arena.take("key", n, INDPTR_DTYPE)
        np.subtract(rows, r0, out=key)
        key *= ncols
        key += cols
        key.sort()
        new_run = arena.take("new_run", n, bool)
        new_run[0] = True
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        distinct_rows = key[new_run] // ncols
    else:
        order = np.lexsort((cols, rows))
        r = rows[order]
        distinct_rows = r[segment_mask(r, cols[order])] - r0
    return np.bincount(distinct_rows, minlength=span)


def symbolic_row_nnz(
    a: CSR, b: CSR, max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP
) -> np.ndarray:
    """Exact ``nnz(c_i*)`` for every output row of ``C = A B`` (vectorized).

    Expands intermediate products block-by-block and counts distinct
    coordinates per row with one in-place sort of fused coordinate keys.
    ``O(flop log flop)`` time, ``O(max_block_flop)`` extra space.
    """
    out = np.zeros(a.nrows, dtype=INDPTR_DTYPE)
    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, _ = expand_rows(a, b, r0, r1, with_values=False)
        if len(rows) == 0:
            continue
        out[r0:r1] = _distinct_per_row(rows, cols, r0, r1 - r0, b.ncols)
    return out
