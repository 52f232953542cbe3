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
from ..matrix.csr import (
    CSR,
    INDEX_DTYPE,
    INDPTR_DTYPE,
    VALUE_DTYPE,
    fused_key_fits,
)
from ..matrix.stats import flop_per_row
from .engine import ScratchArena, get_thread_arena

__all__ = [
    "expand_rows",
    "expand_structure",
    "fused_key_fits",
    "iter_row_blocks",
    "mask_membership",
    "masked_row_nnz",
    "segment_mask",
    "structure_product",
    "symbolic_row_nnz",
]

#: Default cap on intermediate products materialized at once (~8M entries
#: = a few hundred MB of scratch), keeping peak memory laptop-friendly.
DEFAULT_MAX_BLOCK_FLOP = 1 << 23


#: Entries of the mask gate's bool table (1 MiB): the vectorised
#: ``mask_stamp`` of the faithful masked kernel, covering as many output
#: rows per stamp as fit.
MASK_TABLE_ENTRIES = 1 << 20

#: Products a table sub-block must gate on average to pay for its stamp
#: and clear; sparser streams over wide masks use the sorted-key search.
MASK_TABLE_MIN_PRODUCTS = 512

#: Entries of the first-touch table (int64, 2 MiB): the vectorised SPA
#: the batched kernels accumulate unsorted output through.
TOUCH_TABLE_ENTRIES = 1 << 18

#: Products a first-touch sub-block must hold on average to pay for its
#: walk; sparser streams take the coordinate sort.
TOUCH_TABLE_MIN_PRODUCTS = 1024


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

    Everything is vectorized: the classic "ragged gather" is one repeat of
    each run's start shifted by its offset, plus one arange.
    """
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    lo = int(a.indptr[row_start])
    hi = int(a.indptr[row_end])
    a_cols = a.indices[lo:hi]
    b_starts = b.indptr[a_cols]
    reps = b.indptr[a_cols + 1] - b_starts  # nnz(b_k*) per a-nonzero
    # offsets[j] = first product of a-nonzero j (exclusive prefix sum).
    offsets = np.zeros(hi - lo + 1, dtype=INDPTR_DTYPE)
    np.cumsum(reps, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        empty = np.empty(0, dtype=a.indices.dtype)
        eidx = np.empty(0, dtype=INDPTR_DTYPE)
        return empty, empty, eidx, eidx
    # Positions into B's arrays: b_starts[j] + (0..reps[j]-1), vectorized.
    b_src = np.repeat(b_starts - offsets[:-1], reps)
    b_src += np.arange(total, dtype=INDPTR_DTYPE)
    out_cols = b.indices[b_src]
    # Output row of each intermediate product: row i's products occupy
    # offsets[a.indptr[i] - lo] .. offsets[a.indptr[i + 1] - lo].
    row_products = np.diff(offsets[a.indptr[row_start : row_end + 1] - lo])
    out_rows = np.repeat(
        np.arange(row_start, row_end, dtype=a.indices.dtype), row_products
    )
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
    caller (through ``semiring.mul``).

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
    contiguous (any stable (row, col) sort does).  The two-key lexsort
    fallbacks use it when fused keys would overflow; otherwise runs are
    read off the sorted fused keys directly.  The plan layer caches the
    mask, for which it *is* the symbolic result.
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


def _table_span(
    n: int, nrows: int, ncols: int, entries: int, min_products: int
) -> int:
    """Rows per sub-block of a dense ``entries``-entry table over ``ncols``
    columns, or 0 when one row does not fit or ``n`` products spread over
    the ``nrows`` rows' sub-blocks average fewer than ``min_products``."""
    span = min(entries // ncols, nrows) if ncols else 0
    if span and n >= (-(-nrows // span) - 1) * min_products:
        return span
    return 0


def _row_sub_blocks(
    rows: np.ndarray, row_start: int, row_end: int, span: int
) -> Iterator[Tuple[int, int, int]]:
    """Walk ``[row_start, row_end)`` in sub-blocks of ``span`` rows.

    ``rows`` holds absolute row indices in non-decreasing order, as the
    expansion emits them.  Yields ``(s, ps, pe)`` for every sub-block that
    has products: its first row and the range of its products in ``rows``.
    """
    firsts = range(row_start, row_end, span)
    cuts = np.searchsorted(rows, [*firsts, row_end]).tolist()
    for s, ps, pe in zip(firsts, cuts, cuts[1:]):
        if ps < pe:
            yield s, ps, pe


def mask_membership(
    rows: np.ndarray,
    cols: np.ndarray,
    mask: CSR,
    row_start: int,
    row_end: int,
    arena: ScratchArena | None = None,
) -> np.ndarray:
    """Which coordinates ``(rows[p], cols[p])`` are stored entries of ``mask``.

    ``rows`` holds absolute row indices inside ``[row_start, row_end)`` in
    non-decreasing order, as the expansion emits them; ``mask`` may be
    unsorted.  The block is walked in row sub-blocks of ``span =
    MASK_TABLE_ENTRIES // ncols`` rows.  Each sub-block's mask entries are
    stamped as fused ``(row - s) * ncols + col`` keys into a bool table in
    the thread's scratch arena, every product reads one byte of it, and the
    stamps are cleared again — the vectorised form of the faithful masked
    kernel's ``mask_stamp``.  When ``ncols`` exceeds the table, or the
    sub-blocks would gate too few products each to pay for their stamps,
    the mask keys are sorted instead and each product key is located with
    one ``searchsorted``, over sub-blocks short enough that the keys never
    overflow int64.

    This is a *symbolic builder* like everything else in this module — the
    fused masked kernel and the plan inspector call it; numeric-only
    ``execute`` replays never do (the membership outcome is baked into the
    cached gather order).
    """
    n = len(rows)
    out = np.zeros(n, dtype=bool)
    m_indptr, m_indices = mask.indptr, mask.indices
    if n == 0 or m_indptr[row_start] == m_indptr[row_end]:
        return out
    if arena is None:
        arena = get_thread_arena()
    ncols = mask.ncols
    span = _table_span(
        n, row_end - row_start, ncols, MASK_TABLE_ENTRIES,
        MASK_TABLE_MIN_PRODUCTS,
    )
    table = None
    if span:
        table = arena.take("mask_table", span * ncols, bool)
        table[:] = False
    else:
        span = max(1, (2**62) // ncols)
    for s, ps, pe in _row_sub_blocks(rows, row_start, row_end, span):
        e = min(s + span, row_end)
        lo, hi = int(m_indptr[s]), int(m_indptr[e])
        if lo == hi:
            continue
        mkeys = np.repeat(
            np.arange(0, (e - s) * ncols, ncols, dtype=INDPTR_DTYPE),
            np.diff(m_indptr[s : e + 1]),
        )
        mkeys += m_indices[lo:hi]
        pkeys = arena.take("mask_key", pe - ps, INDPTR_DTYPE)
        np.subtract(rows[ps:pe], s, out=pkeys)
        pkeys *= ncols
        pkeys += cols[ps:pe]
        if table is not None:
            table[mkeys] = True
            np.take(table, pkeys, out=out[ps:pe])
            table[mkeys] = False
        else:
            mkeys.sort()
            pos = np.searchsorted(mkeys, pkeys)
            np.minimum(pos, len(mkeys) - 1, out=pos)
            np.equal(mkeys[pos], pkeys, out=out[ps:pe])
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
        rows, cols, _, _ = expand_structure(a, b, r0, r1)
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
    a: CSR,
    b: CSR,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
    *,
    total_flop: "int | None" = None,
) -> Iterator[Tuple[int, int]]:
    """Yield ``(row_start, row_end)`` blocks whose expansion stays bounded.

    A single row whose flop exceeds the cap still forms its own block (the
    cap is a soft target, correctness first).  A known ``total_flop`` within
    the cap yields the one block without counting flop per row.
    """
    n = a.nrows
    if n == 0 or (total_flop is not None and total_flop <= max_block_flop):
        yield 0, n
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


def _distinct_coordinates(
    rows: np.ndarray, cols: np.ndarray, r0: int, span: int, ncols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``(row - r0, col)`` pairs of a ``span``-row block, in
    ascending ``(row, col)`` order.

    Each coordinate becomes one fused ``(row - r0) * ncols + col`` int64
    key, built in the calling thread's scratch arena and sorted in place,
    so equal coordinates are adjacent and a key splits back into its block
    row and column by one ``divmod``.  When the fused key would overflow,
    a two-key lexsort over ``(row, col)`` finds the same runs.
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
        return np.divmod(key[new_run], ncols)
    order = np.lexsort((cols, rows))
    r = rows[order]
    c = cols[order]
    first = segment_mask(r, c)
    return r[first] - r0, c[first]


def _distinct_per_row(
    rows: np.ndarray, cols: np.ndarray, r0: int, span: int, ncols: int
) -> np.ndarray:
    """Distinct ``(row, col)`` coordinates per row of a ``span``-row block."""
    block_rows, _ = _distinct_coordinates(rows, cols, r0, span, ncols)
    return np.bincount(block_rows, minlength=span)


def structure_product(
    a: CSR, b: CSR, max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP
) -> CSR:
    """The pattern of ``A B``: every coordinate some product reaches.

    Value-free: the expansion's coordinates go through the same in-place
    fused-key sort as the exact counts, and every stored value is 1.0 with
    rows sorted — the same matrix as the pattern of a boolean (``or_and``)
    ESC product, without gathering or multiplying a single value.
    """
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    row_nnz = np.zeros(a.nrows, dtype=INDPTR_DTYPE)
    block_cols: "list[np.ndarray]" = []
    for r0, r1 in iter_row_blocks(a, b, max_block_flop):
        rows, cols, _, _ = expand_structure(a, b, r0, r1)
        if len(rows) == 0:
            continue
        block_rows, distinct_cols = _distinct_coordinates(
            rows, cols, r0, r1 - r0, b.ncols
        )
        row_nnz[r0:r1] = np.bincount(block_rows, minlength=r1 - r0)
        block_cols.append(distinct_cols)
    indptr = np.zeros(a.nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(row_nnz, out=indptr[1:])
    indices = (
        np.concatenate(block_cols) if block_cols else np.empty(0, INDEX_DTYPE)
    )
    return CSR(
        (a.nrows, b.ncols), indptr, indices,
        np.ones(len(indices), dtype=VALUE_DTYPE), sorted_rows=True,
    )


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
        rows, cols, _, _ = expand_structure(a, b, r0, r1)
        if len(rows) == 0:
            continue
        out[r0:r1] = _distinct_per_row(rows, cols, r0, r1 - r0, b.ncols)
    return out
