"""Batched (numpy-vectorized) execution of the hash-family kernels and SPA.

This is the ``engine="fast"`` implementation behind :func:`repro.spgemm`.
Instead of probing a hash table per element in Python, a whole flop-bounded
row block is processed at once:

1. **expand** — materialize every intermediate product of the block with the
   existing :func:`repro.core.symbolic.expand_structure` machinery (the
   classic ragged gather) and multiply the gathered factor pairs;
2. **bucket** — group colliding products by output coordinate.  Unsorted
   first-occurrence output walks row sub-blocks over a dense first-touch
   table (the vectorised SPA, ``O(flop)``): ``np.minimum.at`` leaves each
   coordinate's first arrival, and the first products, in arrival order,
   are the output.  Everything else sorts one unique int64 key per
   product, ``(row * ncols + col) << bits | arrival``, in place, which
   lands colliding products in contiguous segments in arrival order (the
   unstable SIMD sort returns the stable permutation,
   :func:`repro.matrix.csr.stable_coordinate_order`);
3. **reduce** — each coordinate starts as its first product's value and
   an ordered ``ufunc.at`` applies the later ones one at a time in
   *arrival order* (:meth:`repro.semiring.Semiring.accumulate_segments`
   on the sort path) — exactly how the scalar kernels accumulate,
   float-for-float the same values (``reduceat`` would sum pairwise and
   drift by ULPs).

Output *ordering* is then emulated per algorithm so the result is
indistinguishable from the faithful kernel's:

* sorted output — ascending column (all kernels agree);
* ``hash`` / ``spa`` / ``mkl_inspector`` unsorted — **first-occurrence
  order**.  The scalar hash table extracts via its ``occupied`` list,
  which records keys in first insertion order, and SPA (the MKL
  inspector-executor proxy is an always-unsorted SPA) harvests in
  first-touch order: both equal the order each distinct column first
  appears in the expansion stream — the first-touch table's output order,
  or the sorted segments listed by ascending first arrival;
* ``hashvec`` unsorted — chunk-table order.  The chunked accumulator emits
  chunks in first-touch order and keys within a chunk in insertion order.
  When no chunk overflows (the common case, detected exactly) this equals a
  lexsort by (chunk first-touch, key first-occurrence) with the chunk id
  computed by the same multiplicative hash as the scalar table; rows where
  a chunk *does* overflow are re-ordered through a real
  :class:`~repro.core.accumulators.VectorHashAccumulator`, so the emulation
  is exact in all cases.

The rows run as flop-balanced parts on real threads
(:func:`repro.core.threads.run_row_parts`).  Scratch (fused keys, the
first-touch table, segment flags) lives in the
:class:`~repro.core.engine.ScratchArena` of the thread running the part —
allocated once, reused across row blocks and across calls, mirroring the
paper's §5.3.1 parallel allocation scheme.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, ShapeError
from ..matrix.csr import (
    CSR,
    INDEX_DTYPE,
    INDPTR_DTYPE,
    VALUE_DTYPE,
    stable_coordinate_order,
)
from ..matrix.stats import flop_per_row
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .accumulators import HASH_SCALE, VectorHashAccumulator, lowest_p2
from .engine import ScratchArena, get_thread_arena
from .hash_vector import lanes_for_vector_bits
from .instrument import KernelStats
from .scheduler import ThreadPartition, rows_to_threads
from .symbolic import (
    DEFAULT_MAX_BLOCK_FLOP,
    TOUCH_TABLE_ENTRIES,
    TOUCH_TABLE_MIN_PRODUCTS,
    _row_sub_blocks,
    _table_span,
    expand_structure,
    flop_blocks,
    mask_membership,
    segment_mask,
)
from .threads import run_row_parts

__all__ = ["batch_hash_spgemm"]

#: A first-touch table entry no walk is using: past every arrival index.
_UNTOUCHED = np.iinfo(INDPTR_DTYPE).max


def _coordinate_segments(
    rows: np.ndarray,
    cols: np.ndarray,
    r0: int,
    span: int,
    ncols: int,
    arena: ScratchArena,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Group a product stream into its distinct output coordinates.

    Returns ``(order, new_run, starts, seg_rows, seg_cols)``: the stable
    coordinate permutation (:func:`~repro.matrix.csr.stable_coordinate_order`),
    the flag marking where each coordinate's run begins in sorted order,
    the run starts, and each run's absolute row and column.  Runs are found
    on the sorted fused keys, so the products' rows and columns are never
    gathered; only the overflow fallback does that.  Shared by the batched
    engine, ESC, the masked kernel and the plan inspectors.  ``order`` and
    ``new_run`` are arena buffers — copy them to keep them.
    """
    n = len(rows)
    order, keys = stable_coordinate_order(
        rows, cols, r0, span, ncols,
        key=arena.take("key", n, INDPTR_DTYPE),
        order=arena.take("order", n, INDPTR_DTYPE),
    )
    new_run = arena.take("new_run", n, bool)
    if keys is None:
        r_s = rows[order]
        c_s = cols[order]
        segment_mask(r_s, c_s, out=new_run)
        starts = np.flatnonzero(new_run)
        return order, new_run, starts, r_s[starts], c_s[starts]
    new_run[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    seg_rows, seg_cols = np.divmod(keys[starts], ncols)
    seg_rows += r0
    return order, new_run, starts, seg_rows, seg_cols


def _first_touch_segments(
    rows: np.ndarray,
    cols: np.ndarray,
    r0: int,
    r1: int,
    ncols: int,
    arena: ScratchArena,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Group a block's product stream by coordinate in first-touch order.

    Walks row sub-blocks over a dense int64 table where ``np.minimum.at``
    leaves each coordinate's first arrival, resetting only the touched
    entries.  Returns ``(first, owner)`` (arena buffers): ``first`` flags
    each coordinate's first product, and ``owner[p]`` is the arrival index
    of product ``p``'s first product.  None when ``ncols`` is wider than
    the table or the sub-blocks hold too few products to pay for the walk.
    """
    n = len(rows)
    span = _table_span(
        n, r1 - r0, ncols, TOUCH_TABLE_ENTRIES, TOUCH_TABLE_MIN_PRODUCTS
    )
    if not span:
        return None
    # Every walk resets the entries it touches, so the table holds the
    # sentinel between walks and is filled only when the arena allocates
    # it (or after a walk that raised).
    table = arena.take(
        "touch_table", span * ncols, INDPTR_DTYPE, fill=_UNTOUCHED
    )
    key = arena.take("key", n, INDPTR_DTYPE)
    owner = arena.take("order", n, INDPTR_DTYPE)
    first = arena.take("new_run", n, bool)
    clean = False
    try:
        for s, ps, pe in _row_sub_blocks(rows, r0, r1, span):
            k = np.subtract(rows[ps:pe], s, out=key[ps:pe])
            k *= ncols
            k += cols[ps:pe]
            arrival = np.arange(ps, pe, dtype=INDPTR_DTYPE)
            np.minimum.at(table, k, arrival)
            np.take(table, k, out=owner[ps:pe])
            table[k[np.equal(owner[ps:pe], arrival, out=first[ps:pe])]] = (
                _UNTOUCHED
            )
        clean = True
    finally:
        if not clean:
            table.fill(_UNTOUCHED)
    return first, owner


def _max_flop_per_thread(
    partition: ThreadPartition, flop: np.ndarray
) -> "list[int]":
    """Per-thread row-flop upper bound — identical to the faithful kernel's
    table sizing input (Fig. 7 l.5-8)."""
    caps = []
    for tid in range(partition.nthreads):
        cap = 0
        for s, e in partition.rows_of(tid):
            if e > s:
                cap = max(cap, int(flop[s:e].max(initial=0)))
        caps.append(cap)
    return caps


def _vhash_geometry(
    a: CSR,
    b: CSR,
    nthreads: int,
    partition: ThreadPartition | None,
    lanes: int,
    flop: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row ``(chunk_mask, table_capacity)`` of the faithful HashVector.

    The chunked table's shape depends on the owning *simulated* thread's
    row-flop cap, so the ``nthreads`` partition must be reproduced exactly
    (same default call as :func:`repro.core.hash_spgemm.hash_spgemm`),
    whatever real threads run the rows.  Computed once over all rows and
    indexed by absolute row, so every row range reads its own slice.
    """
    if partition is None:
        partition = rows_to_threads(a, b, nthreads, row_cost=flop)
    caps = _max_flop_per_thread(partition, flop)
    chunk_mask = np.zeros(a.nrows, dtype=INDEX_DTYPE)
    cap_row = np.zeros(a.nrows, dtype=INDEX_DTYPE)
    ncols_floor = max(b.ncols, 1)
    for tid in range(partition.nthreads):
        bound = min(max(caps[tid], 0), ncols_floor)
        base = lowest_p2(bound + 1)
        nchunks = lowest_p2((base + lanes - 1) // lanes)
        for s, e in partition.rows_of(tid):
            chunk_mask[s:e] = nchunks - 1
            cap_row[s:e] = caps[tid]
    return chunk_mask, cap_row


def _emulate_vhash_row(
    cols_arrival: np.ndarray, capacity: int, ncols: int, lanes: int
) -> np.ndarray:
    """Exact chunk-table extraction order for one row, via the real
    accumulator (only used for the rare rows where a chunk overflows)."""
    table = VectorHashAccumulator(capacity, ncols, lane_width=lanes)
    for col in cols_arrival.tolist():
        table.insert_symbolic(int(col))
    order_cols, _ = table.extract(sort=False)
    return order_cols


def _vhash_order(
    seg_rows: np.ndarray,
    seg_cols: np.ndarray,
    first_idx: np.ndarray,
    chunk_mask: np.ndarray,
    cap_row: np.ndarray,
    ncols: int,
    lanes: int,
) -> np.ndarray:
    """Permutation putting (row, col)-sorted segments into chunk-table order.

    Rows occupy disjoint ranges of the arrival-index space (the expansion
    enumerates rows in order), so one global lexsort keyed on
    (chunk-first-touch arrival, key arrival) realizes the per-row ordering.
    """
    masks = chunk_mask[seg_rows]
    home = (seg_cols * HASH_SCALE) & masks
    # Group by (row, home chunk), arrival order inside the group.
    grp = np.lexsort((first_idx, home, seg_rows))
    g_rows = seg_rows[grp]
    g_home = home[grp]
    g_first = first_idx[grp]
    n = len(grp)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(g_rows[1:], g_rows[:-1], out=boundary[1:])
    np.logical_or(boundary[1:], g_home[1:] != g_home[:-1], out=boundary[1:])
    g_starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(g_starts, n))
    # First-touch time of each chunk = arrival of its earliest key.
    chunk_touch = np.repeat(g_first[g_starts], sizes)
    perm_grp = np.lexsort((g_first, chunk_touch))
    perm = grp[perm_grp]

    overflow = sizes > lanes
    if overflow.any():
        # A full home chunk spills keys into neighbouring chunks, perturbing
        # both fills and first-touch order — emulate those rows exactly.
        bad_rows = np.unique(g_rows[g_starts][overflow])
        perm_rows = seg_rows[perm]
        for row in bad_rows.tolist():
            sel = np.flatnonzero(seg_rows == row)
            arrival = sel[np.argsort(first_idx[sel])]
            cols_arrival = seg_cols[arrival]
            order_cols = _emulate_vhash_row(
                cols_arrival, int(cap_row[row]), ncols, lanes
            )
            pos_of_col = {int(c): int(p) for c, p in zip(seg_cols[sel], sel)}
            emulated = np.fromiter(
                (pos_of_col[int(c)] for c in order_cols),
                dtype=perm.dtype,
                count=len(order_cols),
            )
            slot = np.flatnonzero(perm_rows == row)
            perm[slot] = emulated
    return perm


def batch_hash_spgemm(
    a: CSR,
    b: CSR,
    *,
    algorithm: str = "hash",
    semiring: "str | Semiring" = PLUS_TIMES,
    sort_output: bool = True,
    nthreads: int = 1,
    partition: ThreadPartition | None = None,
    stats: KernelStats | None = None,
    vector_bits: int = 512,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
    arena: ScratchArena | None = None,
    tracer=None,
) -> CSR:
    """Batched ``C = A (x) B`` — bit-identical to the faithful kernel.

    Parameters mirror :func:`repro.core.hash_spgemm.hash_spgemm`;
    ``algorithm`` selects whose output conventions to reproduce (a row
    of :data:`repro.core.spgemm.ALGORITHMS` with a ``batch_order``).
    ``stats`` receives the coarse ledger entries only (flop, output nnz,
    rows, sort volume) — per-probe counts exist only on the faithful
    engine, by design.  With a ``tracer``,
    per-block expand/bucket/reduce times accumulate into numeric/sort/stitch
    phase spans reported once at the end (like the ESC kernel).
    """
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    from .spgemm import ALGORITHMS  # deferred: spgemm imports this module

    info = ALGORITHMS.get(algorithm)
    order = None if info is None else info.batch_output_order(sort_output)
    if order is None:
        batched = [name for name, row in ALGORITHMS.items() if row.batch_order]
        raise ConfigError(
            f"batch engine has no implementation for {algorithm!r}; "
            f"available: {batched}"
        )
    if partition is not None and partition.nrows != a.nrows:
        raise ConfigError(
            f"partition covers {partition.nrows} rows, matrix has {a.nrows}"
        )
    flop = flop_per_row(a, b)
    vhash = None
    if order == "hashvec":
        lanes = lanes_for_vector_bits(vector_bits)
        vhash = (
            *_vhash_geometry(a, b, nthreads, partition, lanes, flop), lanes
        )
    return _batch_blocks(
        a, b, get_semiring(semiring), order, vhash=vhash, flop=flop,
        stats=stats, max_block_flop=max_block_flop, arena=arena,
        tracer=tracer,
    )


def _batch_blocks(
    a: CSR,
    b: CSR,
    sr: Semiring,
    order: str,
    *,
    mask: CSR | None = None,
    complement: bool = False,
    vhash: "tuple | None" = None,
    flop: "np.ndarray | None" = None,
    stats: KernelStats | None = None,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
    arena: ScratchArena | None = None,
    tracer=None,
) -> CSR:
    """The block loop of both batched kernels, on real threads.

    Each flop-bounded row block is expanded, optionally gated by ``mask``
    membership (filtering keeps the arrival order), multiplied, grouped by
    output coordinate, folded in arrival order and emitted in ``order``
    (``"sorted"``, ``"first_touch"`` or ``"hashvec"``; ``vhash`` carries
    the ``hashvec`` chunk geometry).  The blocks live in the row ranges of
    :func:`~repro.core.threads.run_row_parts`, cut from ``flop`` (per-row
    flop, counted here when not given); parts run by the calling thread
    use ``arena``.  ``stats`` gets the coarse ledger entries, and with a
    ``mask`` the evaluated and kept product counts.

    Only the calling thread touches ``tracer``: it records its own phase
    times (the parts it ran), files everything else — counting flop,
    waiting for the workers, assembling — under ``stitch``, so the spans
    still sum to the call's wall, and puts the parts' seconds on the open
    span as counters.
    """
    t0 = time.perf_counter()
    if flop is None:
        flop = flop_per_row(a, b)
    parts = run_row_parts(
        _batch_part, flop, a, b, sr, order, mask, complement, vhash, flop,
        max_block_flop, tracer is not None, arena=arena,
    )
    nrows, ncols = a.nrows, b.ncols
    indptr = np.zeros(nrows + 1, dtype=INDPTR_DTYPE)
    if nrows:
        np.concatenate([p.value.row_nnz for p in parts], out=indptr[1:])
        np.cumsum(indptr, out=indptr)
    nnz_total = int(indptr[-1])
    out_indices = np.empty(nnz_total, dtype=INDEX_DTYPE)
    out_data = np.empty(nnz_total, dtype=VALUE_DTYPE)
    cursor = 0
    for part in parts:
        for bc, bv in zip(part.value.cols, part.value.vals):
            out_indices[cursor : cursor + len(bc)] = bc
            out_data[cursor : cursor + len(bv)] = bv
            cursor += len(bc)
    if stats is not None:
        for part in parts:
            stats.merge(part.value.stats)
    if tracer is not None:
        own = dict.fromkeys(("numeric", "mask", "sort"), 0.0)
        for part in parts:
            if part.inline:
                for phase, seconds in part.value.seconds.items():
                    own[phase] += seconds
        tracer.record(
            "expand+reduce", own["numeric"], phase="numeric",
            what="expand/mul/reduce",
        )
        if mask is not None:
            tracer.record(
                "mask-gate", own["mask"], phase="mask",
                what="mask membership filter",
            )
        tracer.record(
            "bucket", own["sort"], phase="sort", what="coordinate grouping"
        )
        tracer.record(
            "assemble", time.perf_counter() - t0 - sum(own.values()),
            phase="stitch", what="flop count, part wait, block assembly",
        )
        if len(parts) > 1:
            tracer.counter("parts", len(parts))
            tracer.counter("part_seconds", sum(p.seconds for p in parts))
            tracer.counter(
                "part_seconds_max", max(p.seconds for p in parts)
            )
    return CSR(
        (nrows, ncols), indptr, out_indices, out_data,
        sorted_rows=order == "sorted",
    )


class _BlockPart(NamedTuple):
    """One row range of :func:`_batch_blocks`: its row nnz, its blocks'
    columns and values in row order, its ledger and its phase seconds."""

    row_nnz: np.ndarray
    cols: "list[np.ndarray]"
    vals: "list[np.ndarray]"
    stats: KernelStats
    seconds: "dict[str, float]"


def _batch_part(
    lo: int,
    hi: int,
    arena: ScratchArena,
    a: CSR,
    b: CSR,
    sr: Semiring,
    order: str,
    mask: CSR | None,
    complement: bool,
    vhash: "tuple | None",
    flop: np.ndarray,
    max_block_flop: int,
    timed: bool,
) -> _BlockPart:
    """Rows ``[lo, hi)`` of :func:`_batch_blocks`, block by block.

    Reads the operands and writes only fresh arrays and ``arena``; phase
    seconds are measured when ``timed``.
    """
    ncols = b.ncols
    row_nnz = np.zeros(hi - lo, dtype=INDPTR_DTYPE)
    block_cols: "list[np.ndarray]" = []
    block_vals: "list[np.ndarray]" = []
    total_flop = kept_total = 0
    seconds = dict.fromkeys(("numeric", "mask", "sort"), 0.0)
    clock = time.perf_counter
    mark = clock()

    def lap(phase: str) -> None:
        nonlocal mark
        if timed:
            now = clock()
            seconds[phase] += now - mark
            mark = now

    for r0, r1 in flop_blocks(flop, lo, hi, max_block_flop):
        rows, cols, a_src, b_src = expand_structure(a, b, r0, r1)
        n = len(rows)
        total_flop += n
        if mask is not None and n:
            lap("numeric")
            # Mask gate: drop disallowed products from the stream before
            # any multiplying or grouping — the fused saving happens here.
            allowed = mask_membership(rows, cols, mask, r0, r1, arena)
            if complement:
                np.logical_not(allowed, out=allowed)
            kept = np.flatnonzero(allowed)
            rows, cols = np.take(rows, kept), np.take(cols, kept)
            a_src, b_src = np.take(a_src, kept), np.take(b_src, kept)
            n = len(kept)
            kept_total += n
            lap("mask")
        if n == 0:
            continue
        # Each index stream is dropped once gathered; the product lands in
        # the (fresh) A gather when mul is a ufunc.  The gathers use
        # np.take, which releases the GIL where fancy indexing holds it.
        vals = np.take(a.data, a_src)
        del a_src
        b_vals = np.take(b.data, b_src)
        del b_src
        if isinstance(sr.mul, np.ufunc):
            sr.mul(vals, b_vals, out=vals)
        else:
            vals = np.asarray(sr.mul(vals, b_vals), dtype=VALUE_DTYPE)
        del b_vals
        lap("numeric")

        grouped = None
        if order == "first_touch":
            grouped = _first_touch_segments(rows, cols, r0, r1, ncols, arena)
        if grouped is not None:
            first, owner = grouped
            seg_rows, seg_cols = rows[first], cols[first]
            del rows, cols
            later = ~first
            lap("sort")
            # Each first product's value seeds its coordinate verbatim and
            # the later ones fold into it one at a time in arrival order:
            # accumulate_segments' sequence.
            sr.add.at(vals, owner[later], vals[later])
            seg_vals = vals[first]
        else:
            # Stable bucketing by fused (row, col) key: collisions become
            # contiguous segments, arrival order preserved inside each.
            perm, new_run, starts, seg_rows, seg_cols = _coordinate_segments(
                rows, cols, r0, r1 - r0, ncols, arena
            )
            del rows, cols
            # The fused keys are dead once the segments are found; their
            # buffer (8 bytes a product, like a value) takes the permuted
            # values, so no part's arena holds a third such buffer.
            v_s = np.take(
                vals, perm,
                out=arena.take("key", n, INDPTR_DTYPE).view(VALUE_DTYPE),
            )
            lap("sort")
            # ufunc.reduceat sums pairwise for float accuracy, which is
            # *not* the scalar kernels' left-to-right sequence.
            seg_vals = sr.accumulate_segments(v_s, new_run, starts)
        del vals
        row_nnz[r0 - lo : r1 - lo] += np.bincount(
            seg_rows - r0, minlength=r1 - r0
        )
        lap("numeric")

        if grouped is None and order != "sorted":
            first_idx = perm[starts]  # arrival of each distinct key
            if order == "first_touch":
                # Rows are disjoint in arrival space, so listing segments by
                # ascending first arrival is row-major and per-row
                # first-occurrence order at once: a scatter, not a sort.
                seen = arena.take("new_run", n, bool)
                seen[:] = False
                seen[first_idx] = True
                seg_at = arena.take("key", n, INDPTR_DTYPE)
                seg_at[first_idx] = np.arange(len(first_idx))
                reorder = seg_at[seen]
            else:
                chunk_mask, cap_row, lanes = vhash
                reorder = _vhash_order(
                    seg_rows, seg_cols, first_idx, chunk_mask, cap_row,
                    ncols, lanes,
                )
            seg_cols, seg_vals = seg_cols[reorder], seg_vals[reorder]
        block_cols.append(np.ascontiguousarray(seg_cols, dtype=INDEX_DTYPE))
        block_vals.append(np.ascontiguousarray(seg_vals, dtype=VALUE_DTYPE))
        lap("sort")

    nnz = int(row_nnz.sum())
    stats = KernelStats(flops=total_flop, output_nnz=nnz, rows=hi - lo)
    if order == "sorted":
        stats.sorted_elements = nnz
    if mask is not None:
        stats.spa_touches = total_flop
        stats.masked_kept = kept_total
    return _BlockPart(row_nnz, block_cols, block_vals, stats, seconds)
