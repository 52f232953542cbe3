"""Masked SpGEMM — compute only the output entries a mask allows.

Triangle counting (§5.6, after Azad/Buluç/Gilbert) really wants
``A .* (L·U)``: every wedge that does not close into an existing edge is
computed and then immediately discarded by the elementwise mask.  A *masked*
multiplication pushes the mask inside the kernel: intermediate products
whose output column is not in the mask row are dropped at accumulation
time, so the accumulator only ever holds maskable entries and the full
wedge matrix is never materialized.  This is the fused primitive of the
GraphBLAS ecosystem (the paper's CombBLAS lineage).

Two executable engines, bit-for-bit identical:

* ``engine="faithful"`` — a mask-gated SPA: the mask row is splatted into a
  stamp array once per row (O(nnz(mask_i*))), and scatters are filtered
  against it — an ``O(1)`` membership test per product;
* ``engine="fast"`` — the batched expansion pipeline of
  :mod:`repro.core.hash_batch` with the mask filter applied to the
  value-free product stream *before* grouping (a block table lookup per
  product, :func:`repro.core.symbolic.mask_membership`).
  Filtering a stream preserves relative order, so every surviving output
  entry receives its products in exactly the faithful kernel's arrival
  sequence — same folds, same bits — while the multiply/sort/accumulate
  volume collapses from ``flop`` to the kept count.

The mask gates by *output coordinate*: a kept entry accumulates **all** of
its intermediate products, so its value equals the unmasked product's entry
exactly (not approximately) under every registered semiring.

Repeated-structure traffic can skip the symbolic work entirely: pass
``plan=`` (a :class:`repro.core.plan.MaskedSpgemmPlan` from
:func:`repro.core.plan.inspect_masked`) or ``plan_cache=`` (a
:class:`repro.core.plan.PlanCache`) and the call replays numeric-only.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ConfigError, ShapeError
from ..matrix.csr import CSR, INDEX_DTYPE, INDPTR_DTYPE, VALUE_DTYPE
from ..observability import tracer_from_env
from ..semiring import Semiring
from .engine import ENGINES
from .hash_batch import _batch_blocks
from .instrument import KernelStats
from .options import ChainOptions
from .scheduler import ThreadPartition, rows_to_threads
from .spgemm import _debug_validate_enabled, _phase_seconds_into_stats
from .symbolic import DEFAULT_MAX_BLOCK_FLOP

__all__ = ["masked_spgemm"]

#: Shared zero-length placeholders for rows the mask empties out — hoisted
#: to module level so the per-row hot loop never allocates (they are only
#: ever read by ``np.concatenate``, never written).
_EMPTY_COLS = np.empty(0, dtype=INDEX_DTYPE)
_EMPTY_VALS = np.empty(0, dtype=VALUE_DTYPE)


def _check_shapes(a: CSR, b: CSR, mask: CSR) -> None:
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if mask.shape != (a.nrows, b.ncols):
        raise ShapeError(
            f"mask shape {mask.shape} != output shape {(a.nrows, b.ncols)}"
        )


# Deliberately NOT in the spgemm() dispatch: the mask is a third operand, so
# this is a different surface (GraphBLAS mxm-with-mask), exported directly.
def masked_spgemm(  # repro-lint: disable=kernel-dispatch
    a: CSR,
    b: CSR,
    mask: CSR,
    opts: ChainOptions | None = None,
    *,
    max_block_flop: int = DEFAULT_MAX_BLOCK_FLOP,
    **kwargs,
) -> CSR:
    """Compute ``(A (x) B) .* pattern(mask)`` without materializing the rest.

    Configuration arrives the same way as :func:`repro.spgemm`'s: a frozen
    :class:`~repro.core.options.ChainOptions` (a plain
    :class:`~repro.core.options.SpgemmOptions` is promoted), loose keywords
    (``semiring``, ``complement``, ``sort_output``, ``engine``,
    ``nthreads``, ``partition``, ``stats``, ``plan``, ``plan_cache``,
    ``tracer``), or both — keywords override the options object's fields,
    validated in one place by :meth:`ChainOptions.from_kwargs`.  The
    ``algorithm`` and ``fuse`` fields are ignored here (the masked kernel
    is its own algorithm and nothing streams); ``max_block_flop`` is a
    kernel tuning knob, not configuration, and stays a direct keyword.

    Parameters
    ----------
    mask:
        Matrix whose *pattern* gates the output: entry ``(i, j)`` of the
        product is kept iff ``mask[i, j]`` is stored (values ignored).
        Must have the output shape ``(a.nrows, b.ncols)``.
    complement:
        Keep entries *not* in the mask instead (GraphBLAS ``!M`` semantics).
    engine:
        ``"faithful"`` runs the scalar mask-gated SPA; ``"fast"`` runs the
        batched mask-gated scatter — identical output at the float64 bit
        level.  ``"auto"`` resolves to ``"fast"`` (the engines are
        bit-identical; the batched one wins on volume).
    plan, plan_cache:
        Inspector–executor replay: ``plan`` must be a
        :class:`~repro.core.plan.MaskedSpgemmPlan` (its options win);
        ``plan_cache`` a :class:`~repro.core.plan.PlanCache`, keyed on the
        three structure fingerprints.
    stats:
        ``stats.flops``/``spa_touches`` count products *evaluated* (masking
        saves accumulator growth, sorting and materialization, not flops);
        ``stats.masked_kept`` counts the products that survived the mask —
        the gap between the two is the fused saving.

    Returns
    -------
    CSR
        The masked product; pattern is a subset of ``mask``'s pattern
        (or its complement).

    With ``REPRO_DEBUG_VALIDATE=1`` the full CSR invariant suite runs on
    all three operands at entry and on the result at exit, as in
    :func:`repro.spgemm`.
    """
    options = ChainOptions.from_kwargs(opts, **kwargs)
    complement = options.complement
    sort_output = options.sort_output
    nthreads = options.nthreads
    partition = options.partition
    stats = options.stats
    plan = options.plan
    plan_cache = options.plan_cache
    tracer = options.tracer
    engine = "fast" if options.engine == "auto" else options.engine
    _check_shapes(a, b, mask)
    sr = options.semiring
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; available: {list(ENGINES)}"
        )
    if plan is not None and not hasattr(plan, "execute"):
        raise ConfigError(
            f"masked_spgemm's plan must provide .execute(a, b, mask), "
            f"got {type(plan).__name__}"
        )
    if tracer is None:
        tracer = tracer_from_env()
    debug_validate = _debug_validate_enabled()
    if debug_validate:
        a.validate()
        b.validate()
        mask.validate()
    if plan is not None:
        c = plan.execute(a, b, mask, semiring=sr, stats=stats, tracer=tracer)
    elif plan_cache is not None:
        c = plan_cache.execute_masked(
            a, b, mask, semiring=sr, complement=complement,
            sort_output=sort_output, engine=engine, nthreads=nthreads,
            stats=stats, tracer=tracer,
        )
    elif tracer is None:
        c = _dispatch_masked(
            a, b, mask, sr=sr, complement=complement, sort_output=sort_output,
            engine=engine, nthreads=nthreads, partition=partition,
            stats=stats, tracer=None, max_block_flop=max_block_flop,
        )
    else:
        with tracer.span(
            "masked_spgemm", phase="other",
            engine=engine, complement=complement,
            nrows=a.nrows, ncols=b.ncols, mask_nnz=mask.nnz,
            nthreads=nthreads,
        ) as root:
            before = stats.scalar_snapshot() if stats is not None else None
            c = _dispatch_masked(
                a, b, mask, sr=sr, complement=complement,
                sort_output=sort_output, engine=engine, nthreads=nthreads,
                partition=partition, stats=stats, tracer=tracer,
                max_block_flop=max_block_flop,
            )
            root.add_counter("nnz", float(c.nnz))
            if stats is not None:
                for key, value in stats.scalar_snapshot().items():
                    delta = value - before[key]
                    if delta:
                        root.add_counter(key, delta)
                _phase_seconds_into_stats(root, stats)
    if debug_validate:
        c.validate()
    return c


def _dispatch_masked(
    a, b, mask, *, sr, complement, sort_output, engine, nthreads,
    partition, stats, tracer, max_block_flop,
):
    if engine == "fast":
        # The batched block loop with the mask gate applied to the
        # value-free stream before grouping: filtering keeps the arrival
        # order, so each kept coordinate folds the faithful kernel's value
        # sequence, and unsorted output is the first-touch order of the
        # kept stream — the faithful kernel's first-touch list.
        return _batch_blocks(
            a, b, sr, "sorted" if sort_output else "first_touch",
            mask=mask, complement=complement, stats=stats,
            max_block_flop=max_block_flop, tracer=tracer,
        )
    return _faithful_masked(
        a, b, mask, sr=sr, complement=complement, sort_output=sort_output,
        nthreads=nthreads, partition=partition, stats=stats, tracer=tracer,
    )


def _faithful_masked(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    sr: Semiring,
    complement: bool,
    sort_output: bool,
    nthreads: int,
    partition: ThreadPartition | None,
    stats: KernelStats | None,
    tracer,
) -> CSR:
    """The scalar mask-gated SPA — the paper-faithful operation stream."""
    if partition is None:
        partition = rows_to_threads(a, b, nthreads)
    elif partition.nrows != a.nrows:
        raise ConfigError(
            f"partition covers {partition.nrows} rows, matrix has {a.nrows}"
        )

    a_indptr, a_indices, a_data = a.indptr, a.indices, a.data
    b_indptr, b_indices, b_data = b.indptr, b.indices, b.data
    m_indptr, m_indices = mask.indptr, mask.indices

    nrows, ncols = a.nrows, b.ncols
    row_nnz = np.zeros(nrows, dtype=INDPTR_DTYPE)
    pieces: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
    touches = 0
    kept = 0

    traced = tracer is not None
    numeric_seconds = mask_seconds = sort_seconds = 0.0
    clock = time.perf_counter

    for tid in range(partition.nthreads):
        vals = np.zeros(ncols, dtype=VALUE_DTYPE)
        live_stamp = np.full(ncols, -1, dtype=INDEX_DTYPE)  # accumulated cols
        mask_stamp = np.full(ncols, -1, dtype=INDEX_DTYPE)  # allowed cols
        for s, e in partition.rows_of(tid):
            row_cols: "list[np.ndarray]" = []
            row_vals: "list[np.ndarray]" = []
            for i in range(s, e):
                if traced:
                    t0 = clock()
                mask_cols = m_indices[m_indptr[i] : m_indptr[i + 1]]
                mask_stamp[mask_cols] = i
                if traced:
                    t1 = clock()
                    mask_seconds += t1 - t0
                # First-touch runs are discovered per row by the mask/live
                # stamping; the list holds views (no copies) and is bounded
                # by the row's mask population, not by flop — the masked
                # kernel's sanctioned exception to the Section 4.3 contract.
                first_touch: "list[np.ndarray]" = []  # repro-lint: disable=hot-loop-alloc
                for j in range(a_indptr[i], a_indptr[i + 1]):
                    k = a_indices[j]
                    lo, hi = b_indptr[k], b_indptr[k + 1]
                    if lo == hi:
                        continue
                    cols = b_indices[lo:hi]
                    allowed = (mask_stamp[cols] == i) != complement
                    touches += hi - lo
                    nkept = int(allowed.sum())
                    kept += nkept
                    if not nkept:
                        continue
                    cols = cols[allowed]
                    contrib = np.atleast_1d(
                        sr.mul(a_data[j], b_data[lo:hi])
                    )[allowed]
                    fresh = live_stamp[cols] != i
                    fresh_cols = cols[fresh]
                    if len(fresh_cols):
                        live_stamp[fresh_cols] = i
                        vals[fresh_cols] = contrib[fresh]
                        first_touch.append(fresh_cols)
                    live_cols = cols[~fresh]
                    if len(live_cols):
                        vals[live_cols] = sr.add(vals[live_cols], contrib[~fresh])
                if traced:
                    t2 = clock()
                    numeric_seconds += t2 - t1
                if first_touch:
                    # One output-sized gather per *emitted* row (<= mask
                    # population elements), assembling the row's column set —
                    # not the flop-sized churn the rule targets.
                    out_cols = np.concatenate(first_touch)  # repro-lint: disable=hot-loop-alloc
                    if sort_output and len(out_cols) > 1:
                        out_cols = np.sort(out_cols)
                    row_cols.append(out_cols)
                    row_vals.append(vals[out_cols].copy())
                    row_nnz[i] = len(out_cols)
                else:
                    row_cols.append(_EMPTY_COLS)
                    row_vals.append(_EMPTY_VALS)
                if traced:
                    sort_seconds += clock() - t2
            pieces[s] = (
                np.concatenate(row_cols) if row_cols else np.empty(0, INDEX_DTYPE),
                np.concatenate(row_vals) if row_vals else np.empty(0, VALUE_DTYPE),
            )

    indptr = np.zeros(nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(row_nnz, out=indptr[1:])
    out_indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    out_data = np.empty(int(indptr[-1]), dtype=VALUE_DTYPE)
    for s, (ccols, cvals) in pieces.items():
        out_indices[indptr[s] : indptr[s] + len(ccols)] = ccols
        out_data[indptr[s] : indptr[s] + len(cvals)] = cvals

    if traced:
        tracer.record(
            "spa-accumulate", numeric_seconds, phase="numeric",
            what="mask-gated scatter",
        )
        tracer.record(
            "mask-stamp", mask_seconds, phase="mask", what="mask row stamping"
        )
        tracer.record(
            "extract+sort", sort_seconds, phase="sort", what="row harvest"
        )

    if stats is not None:
        stats.flops += touches
        stats.spa_touches += touches
        stats.masked_kept += kept
        stats.output_nnz += int(indptr[-1])
        stats.rows += nrows
        if sort_output:
            stats.sorted_elements += int(indptr[-1])

    return CSR(
        (nrows, ncols), indptr, out_indices, out_data, sorted_rows=sort_output
    )
