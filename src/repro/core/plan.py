"""Inspector–executor plan layer: pay structure discovery once, replay it.

The paper's fastest one-phase baseline is MKL's *inspector–executor* mode,
which wins on repeated products precisely because the symbolic work —
output pattern, table sizes, load balance — is paid once and amortized
across numeric executions.  Our two-phase kernels already compute exactly
that structure, then throw it away on every call.  This module keeps it:

* :func:`inspect` runs the symbolic phase once and returns an
  :class:`SpgemmPlan`;
* :meth:`SpgemmPlan.execute` runs *numeric-only* against any operands with
  the same sparsity pattern (validated by a cheap structure fingerprint,
  always before any numeric work), optionally substituting the semiring;
* :class:`PlanCache` is a bounded LRU keyed by structure fingerprints,
  wired behind ``spgemm(..., plan_cache=...)`` so iterative apps (AMG's
  Galerkin products, Markov clustering, multi-source BFS) get numeric-only
  inner loops without restructuring their call sites.  A matched key *is*
  the structure check (one fingerprint per operand per call); chain plans
  are memoized there too.

Two plan modes cover the plan-capable algorithms (the table rows of
:data:`repro.core.spgemm.ALGORITHMS` marked ``planned``):

* **batched** — ``engine="fast"`` hash/hashvec/spa, and ``esc`` on either
  engine.  The inspector caches, per flop-bounded row block, the gather
  sources into both operands *already in fold order*, plus the full output
  ``indptr``/``indices``.  Execution is then gather → ``semiring.mul`` →
  ordered fold → one output gather: **zero sorting**, which is where the
  fresh kernel spends most of its time.  The fold is *rank-major* (see
  :meth:`repro.semiring.Semiring.fold_ranks`): one vectorized ``add`` per
  rank; ESC keeps its grouped order and pairwise compress.
* **faithful** — ``engine="faithful"`` hash/hashvec/spa.  The inspector
  caches the thread partition, the per-thread table capacities and the
  output ``indptr`` (via the vectorized :func:`symbolic_row_nnz`, which
  counts exactly what the scalar symbolic pass would), and execution runs
  only the kernel's numeric phase (:func:`repro.core.hash_spgemm.hash_numeric`
  / :func:`repro.core.spa_spgemm.spa_numeric`).

Either way the executed output is **bit-for-bit identical** to a fresh
``spgemm`` call with the same options: the cached permutations are the
unique stable-sort orders the fresh kernels compute, elementwise
``semiring.mul`` commutes with permutation, and the rank-major fold applies
each segment's values one at a time in arrival order, starting from its
first value verbatim — the fresh kernels' sequence.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, PlanError, ShapeError
from ..matrix.csr import CSR, INDEX_DTYPE, INDPTR_DTYPE, VALUE_DTYPE
from ..matrix.stats import flop_per_row
from ..observability import NULL_TRACER, tracer_from_env
from ..semiring import Semiring, get_semiring
from .engine import get_thread_arena, resolve_engine
from .hash_batch import (
    _coordinate_segments,
    _max_flop_per_thread,
    _vhash_geometry,
    _vhash_order,
)
from .hash_spgemm import hash_numeric
from .hash_vector import lanes_for_vector_bits
from .instrument import KernelStats
from .options import SpgemmOptions
from .scheduler import ThreadPartition, rows_to_threads
from .spa_spgemm import spa_numeric
from .spgemm import ALGORITHMS, _resolve_auto, _spgemm_resolved
from .symbolic import (
    expand_structure,
    iter_row_blocks,
    mask_membership,
    symbolic_row_nnz,
)

__all__ = [
    "MaskedSpgemmPlan",
    "SpgemmPlan",
    "PlanCache",
    "inspect",
    "inspect_masked",
    "structure_fingerprint",
]

#: Hits between calibrated re-evaluations of a cached ``"auto"`` entry
#: (see :meth:`PlanCache._maybe_revisit`); low enough that serve-style
#: repeated-structure traffic converges within a few hundred requests,
#: high enough that the selector re-run is amortized noise.
AUTO_REVISIT_PERIOD = 32


def structure_fingerprint(m: CSR) -> "tuple[int, int, int, int]":
    """Cheap O(nnz) fingerprint of a matrix's sparsity *structure*.

    ``(nrows, ncols, nnz, crc32(indptr || indices))`` — values are excluded
    (that is the point: a plan replays against new values), and so is the
    ``sorted_rows`` flag, because the ``indices`` bytes already capture the
    ordering that matters to the plan-capable kernels.
    """
    crc = zlib.crc32(np.ascontiguousarray(m.indptr))
    crc = zlib.crc32(np.ascontiguousarray(m.indices), crc)
    return (m.nrows, m.ncols, m.nnz, crc)


#: Replay folds a rank with one vectorized ``add`` while at least this many
#: segments of a block are open, and the rest with one ``add.at``: the
#: per-rank Python loop runs at most ``n / FOLD_TAIL`` times.
FOLD_TAIL = 256


@dataclass(frozen=True)
class _BlockRecipe:
    """Cached structure for one flop-bounded row block (batched mode).

    ``a_src``/``b_src`` gather the operands' ``data`` arrays directly in
    fold order.  For the ordered fold that order is rank-major (see
    :meth:`~repro.semiring.Semiring.fold_ranks`, which reads ``counts`` and
    ``tail_ids``) and ``seg_out`` gathers the folded segments into the
    kernel's output order.  ESC keeps the grouped (row, col)-stable order
    and compresses at the segment ``starts``; its ``seg_out`` is None.
    """

    a_src: np.ndarray
    b_src: np.ndarray
    starts: np.ndarray | None = None
    counts: "tuple[int, ...]" = ()
    tail_ids: np.ndarray | None = None
    seg_out: np.ndarray | None = None


def _block_recipe(
    a_src: np.ndarray, b_src: np.ndarray, order: np.ndarray,
    starts: np.ndarray, reorder: "np.ndarray | None", esc: bool,
) -> _BlockRecipe:
    """Lay out one block's gather sources for replay.

    ``order`` is the block's stable coordinate permutation, ``starts`` its
    segment starts in grouped order, ``reorder`` the segments' output order
    (None: grouped).  The ordered fold ranks segments by descending length
    and lays the sources out rank by rank while :data:`FOLD_TAIL` segments
    remain open, then segment by segment — all by slicing and repeats of
    ``starts``, composed with ``order`` once.
    """
    if esc:
        return _BlockRecipe(a_src[order], b_src[order], starts=starts)
    n, nseg = len(order), len(starts)
    lens = np.diff(starts, append=n)
    longest = int(lens.max())
    # The narrowest unsigned key: numpy radix-sorts 8- and 16-bit keys.
    key = (longest - lens).astype(np.min_scalar_type(longest))
    segorder = np.argsort(key, kind="stable")
    # counts[k]: segments longer than k, i.e. the size of rank k
    counts = nseg - np.cumsum(np.bincount(lens))[:longest]
    nhead = max(1, int(np.count_nonzero(counts >= FOLD_TAIL)))
    first = starts[segorder]
    pos = np.empty(n, dtype=INDPTR_DTYPE)
    o = 0
    for k, c in enumerate(counts[:nhead].tolist()):
        np.add(first[:c], k, out=pos[o : o + c])
        o += c
    ntail = int(counts[nhead]) if nhead < longest else 0
    rest = lens[segorder[:ntail]] - nhead
    tail_ids = np.repeat(np.arange(ntail, dtype=INDPTR_DTYPE), rest)
    pos[o:] = np.repeat(first[:ntail] + nhead - np.cumsum(rest) + rest, rest)
    pos[o:] += np.arange(n - o, dtype=INDPTR_DTYPE)
    rank_of = np.empty(nseg, dtype=INDPTR_DTYPE)
    rank_of[segorder] = np.arange(nseg, dtype=INDPTR_DTYPE)
    src = order[pos]
    return _BlockRecipe(
        a_src[src], b_src[src],
        counts=tuple(counts[:nhead].tolist()),
        tail_ids=tail_ids,
        seg_out=rank_of if reorder is None else rank_of[reorder],
    )


class _Plan:
    """What both plan kinds share: the cached output structure and its
    unchecked replay."""

    __slots__ = ()

    @property
    def nnz(self) -> int:
        """Output nonzeros the plan will produce."""
        return int(self.indptr[-1])

    def _check_structure(self, *operands: "CSR | None") -> None:
        """Raise :class:`PlanError` on any structure mismatch (a None
        operand is skipped) — always before numeric work touches the
        cached arrays."""
        names = ("operand A", "operand B", "mask")
        for name, m, want in zip(names, operands, self._fps):
            got = want if m is None else structure_fingerprint(m)
            if got != want:
                raise PlanError(
                    f"{name} structure {got} does not match the inspected "
                    f"structure {want}; re-run {self._inspector}() for this "
                    "pattern"
                )

    def _run(
        self, a: CSR, b: CSR, semiring: "str | Semiring",
        stats: KernelStats | None, tracer,
    ) -> CSR:
        """Replay without checking the operands: the caller has matched
        their structure fingerprints already (``execute``, or a
        :class:`PlanCache` key)."""
        t0 = time.perf_counter()
        sr = get_semiring(semiring)
        obs = tracer if tracer is not None else NULL_TRACER
        with obs.span(
            "plan.execute", phase="execute",
            algorithm=self.algorithm, engine=self.engine, mode=self.mode,
        ):
            if self.mode == "batched":
                c = self._replay(a, b, sr, stats)
            else:
                c = self._execute_faithful(a, b, sr, stats, tracer)
        if stats is not None:
            stats.execute_seconds += time.perf_counter() - t0
        return c

    def _replay(
        self, a: CSR, b: CSR, sr: Semiring, stats: KernelStats | None
    ) -> CSR:
        nnz_total = self.nnz
        out_data = np.empty(nnz_total, dtype=VALUE_DTYPE)
        cursor = 0
        total_flop = 0
        for rec in self._blocks:
            # The gathers are fresh arrays, never operand data, so the
            # product may land in one.
            ga = np.take(a.data, rec.a_src, mode="clip")
            gb = np.take(b.data, rec.b_src, mode="clip")
            if isinstance(sr.mul, np.ufunc):
                vals = sr.mul(ga, gb, out=ga)
            else:
                vals = np.asarray(sr.mul(ga, gb), dtype=VALUE_DTYPE)
            total_flop += len(vals)
            if rec.seg_out is None:
                # Replays the ESC compress: same sorted segments, same
                # pairwise reduceat — bitwise the fresh kernel's values.
                seg_vals = sr.reduce_segments(vals, rec.starts)  # repro-lint: disable=accum-order
                out_data[cursor : cursor + len(seg_vals)] = seg_vals
            else:
                # Strict arrival-order fold, exactly like the fresh batched
                # engine (and therefore the scalar kernels).
                seg_vals = sr.fold_ranks(vals, rec.counts, rec.tail_ids)
                np.take(
                    seg_vals, rec.seg_out, mode="clip",
                    out=out_data[cursor : cursor + len(seg_vals)],
                )
            cursor += len(seg_vals)
        if stats is not None:
            # Coarse ledger only, like the fast engine; no sort happens at
            # execute time (that is the whole point), so no sort volume.
            # A masked replay multiplies only the kept products, which
            # masked_kept mirrors to stay comparable with fresh masked calls.
            stats.flops += total_flop
            if self.algorithm == "masked":
                stats.masked_kept += total_flop
            stats.output_nnz += nnz_total
            stats.rows += self._shape_c[0]
        return CSR(
            self._shape_c, self.indptr, self.indices, out_data,
            sorted_rows=self._sorted_rows,
        )


class SpgemmPlan(_Plan):
    """Reusable symbolic structure for one ``(A-pattern, B-pattern)`` pair.

    Build with :func:`inspect`; call :meth:`execute` against any operands
    sharing the inspected sparsity patterns.  Plans are immutable once
    built and safe to reuse across calls.
    """

    _inspector = "inspect"
    __slots__ = (
        "options", "algorithm", "engine", "mode", "_fps", "_shape_c",
        "indptr", "indices", "_blocks", "_sorted_rows",
        "partition", "_caps", "_vector_width",
    )

    def __init__(
        self,
        *,
        options: SpgemmOptions,
        algorithm: str,
        engine: str,
        mode: str,
        fps: tuple,
        shape_c: "tuple[int, int]",
        indptr: np.ndarray,
        indices: np.ndarray | None = None,
        blocks: "list[_BlockRecipe] | None" = None,
        sorted_rows: bool = True,
        partition: ThreadPartition | None = None,
        caps: "list[int] | None" = None,
        vector_width: int = 0,
    ) -> None:
        self.options = options
        self.algorithm = algorithm
        self.engine = engine
        self.mode = mode
        self._fps = fps
        self._shape_c = shape_c
        self.indptr = indptr
        self.indices = indices
        self._blocks = blocks
        self._sorted_rows = sorted_rows
        self.partition = partition
        self._caps = caps
        self._vector_width = vector_width

    def __repr__(self) -> str:
        return (
            f"SpgemmPlan(algorithm={self.algorithm!r}, engine={self.engine!r}, "
            f"mode={self.mode!r}, shape={self._shape_c}, nnz={self.nnz})"
        )

    def execute(
        self,
        a: CSR,
        b: CSR,
        *,
        semiring: "str | Semiring | None" = None,
        stats: KernelStats | None = None,
        tracer=None,
    ) -> CSR:
        """Numeric-only ``C = A (x) B`` against the cached structure.

        ``semiring`` substitutes the plan's semiring for this execution
        (the cached structure is semiring-independent); ``stats`` overrides
        the plan options' collector; ``tracer`` (or the plan options' one)
        opens an ``execute``-phase span around the replay.  Output is
        bit-for-bit what a fresh ``spgemm`` call with the plan's options
        would return.
        """
        self._check_structure(a, b)
        return self._run(
            a, b, self.options.semiring if semiring is None else semiring,
            self.options.stats if stats is None else stats,
            self.options.tracer if tracer is None else tracer,
        )

    def _execute_faithful(
        self, a: CSR, b: CSR, sr: Semiring, stats: KernelStats | None, tracer=None
    ) -> CSR:
        if self.algorithm == "spa":
            return spa_numeric(
                a, b, semiring=sr, sort_output=self.options.sort_output,
                partition=self.partition, indptr=self.indptr, stats=stats,
                tracer=tracer,
            )
        return hash_numeric(
            a, b, semiring=sr, sort_output=self.options.sort_output,
            partition=self.partition, caps=self._caps, indptr=self.indptr,
            stats=stats, vector_width=self._vector_width, tracer=tracer,
        )


class MaskedSpgemmPlan(_Plan):
    """Reusable symbolic structure for ``(A (x) B) .* pattern(mask)``.

    The fusion tier's plan node: build with :func:`inspect_masked`, replay
    with :meth:`execute` against any operand triple sharing the three
    inspected sparsity patterns.  The cached gather sources are already
    mask-filtered, so execution touches only the *kept* products — the
    replay does strictly less numeric work than a fresh masked call, and no
    membership testing or sorting at all.

    There is a single replay mode (batched): the masked faithful and fast
    engines are bit-identical by construction (the mask gates whole output
    coordinates, so every kept entry folds its full product sequence in
    arrival order), so one cached structure serves both.
    """

    __slots__ = (
        "engine", "complement", "sort_output", "semiring", "_fps", "_shape_c",
        "indptr", "indices", "_blocks", "_sorted_rows",
    )

    #: reported as the plan's algorithm in spans and reprs
    algorithm = "masked"
    mode = "batched"
    _inspector = "inspect_masked"

    def __init__(
        self,
        *,
        engine: str,
        complement: bool,
        sort_output: bool,
        semiring: "str | Semiring",
        fps: tuple,
        shape_c: "tuple[int, int]",
        indptr: np.ndarray,
        indices: np.ndarray,
        blocks: "list[_BlockRecipe]",
    ) -> None:
        self.engine = engine
        self.complement = complement
        self.sort_output = sort_output
        self.semiring = semiring
        self._fps = fps
        self._shape_c = shape_c
        self.indptr = indptr
        self.indices = indices
        self._blocks = blocks
        self._sorted_rows = sort_output

    def __repr__(self) -> str:
        return (
            f"MaskedSpgemmPlan(complement={self.complement}, "
            f"sort_output={self.sort_output}, shape={self._shape_c}, "
            f"nnz={self.nnz})"
        )

    def execute(
        self,
        a: CSR,
        b: CSR,
        mask: CSR | None = None,
        *,
        semiring: "str | Semiring | None" = None,
        stats: KernelStats | None = None,
        tracer=None,
    ) -> CSR:
        """Numeric-only masked product against the cached structure.

        ``mask`` may be omitted — its membership outcome is baked into the
        cached gathers; when given, its structure fingerprint is validated
        like the operands'.  ``semiring`` substitutes the plan's per call.
        Output is bit-for-bit what a fresh :func:`repro.core.masked.masked_spgemm`
        call (either engine) would return.
        """
        self._check_structure(a, b, mask)
        sr = self.semiring if semiring is None else semiring
        return self._run(a, b, sr, stats, tracer)


def inspect(
    a: CSR,
    b: CSR,
    opts: SpgemmOptions | None = None,
    **kwargs,
) -> SpgemmPlan:
    """Run the symbolic phase of ``C = A (x) B`` once; return the plan.

    Accepts the same options surface as :func:`repro.spgemm` (an
    :class:`SpgemmOptions` and/or loose keywords).  ``algorithm="auto"``
    resolves through the Table-4 recipe first; the resolved algorithm's
    table row must be ``planned``, otherwise a
    :class:`~repro.errors.ConfigError` explains the choices.

    If the options carry a ``stats`` collector, the inspection wall time is
    added to its ``inspect_seconds`` counter.
    """
    options = SpgemmOptions.from_kwargs(opts, **kwargs)
    fps = (structure_fingerprint(a), structure_fingerprint(b))
    return _inspect(a, b, options, fps)


def _inspect(a: CSR, b: CSR, options: SpgemmOptions, fps: tuple) -> SpgemmPlan:
    """:func:`inspect` with validated options and the operands' known
    structure fingerprints."""
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    t0 = time.perf_counter()
    algorithm = options.algorithm
    if algorithm == "auto":
        algorithm = _resolve_auto(a, b, options)[0]
    info = ALGORITHMS[algorithm]
    if not info.planned:
        planned = sorted(name for name, row in ALGORITHMS.items() if row.planned)
        raise ConfigError(
            f"algorithm {algorithm!r} has no inspector–executor split; "
            f"plan-capable algorithms: {planned}"
        )
    engine = resolve_engine(options.engine, algorithm)
    tracer = options.tracer if options.tracer is not None else tracer_from_env()
    obs = tracer if tracer is not None else NULL_TRACER
    with obs.span(
        "plan.inspect", phase="inspect",
        algorithm=algorithm, engine=engine, nrows=a.nrows,
    ):
        if engine == "fast" or info.vectorized:
            # Mirrors batch_hash_spgemm (and the ESC kernel) step for step,
            # minus the value arithmetic.
            sort_output = info.sorts(options.sort_output)
            vhash = None
            if info.batch_output_order(sort_output) == "hashvec":
                lanes = lanes_for_vector_bits(options.vector_bits)
                vhash = (
                    *_vhash_geometry(
                        a, b, options.nthreads, options.partition, lanes,
                        flop_per_row(a, b),
                    ),
                    lanes,
                )
            indptr, indices, blocks = _inspect_blocks(
                a, b, sort_output, esc=algorithm == "esc", vhash=vhash
            )
            plan = SpgemmPlan(
                options=options, algorithm=algorithm, engine=engine,
                mode="batched", fps=fps,
                shape_c=(a.nrows, b.ncols), indptr=indptr, indices=indices,
                blocks=blocks, sorted_rows=sort_output,
            )
        else:
            plan = _inspect_faithful(a, b, algorithm, engine, options, fps)
    if options.stats is not None:
        options.stats.inspect_seconds += time.perf_counter() - t0
    return plan


def _inspect_blocks(
    a: CSR,
    b: CSR,
    sort_output: bool,
    *,
    esc: bool = False,
    vhash: "tuple | None" = None,
    mask: CSR | None = None,
    complement: bool = False,
) -> "tuple[np.ndarray, np.ndarray, list[_BlockRecipe]]":
    """Structure pass of the batched kernels, caching every permutation.

    The block loop of :func:`repro.core.hash_batch.batch_hash_spgemm`, the
    ESC kernel and the batched masked kernel (``mask``/``complement``: the
    same membership filter), minus the value arithmetic: same blocks, the
    stable coordinate sort, same output order — first occurrence, or the
    HashVector chunk-table order when ``vhash`` carries its
    ``(chunk_mask, cap_row, lanes)`` geometry.  Returns the output
    ``indptr``/``indices`` and one recipe per non-empty block.
    """
    nrows, ncols = a.nrows, b.ncols
    arena = get_thread_arena()
    row_nnz = np.zeros(nrows, dtype=INDPTR_DTYPE)
    blocks: "list[_BlockRecipe]" = []
    block_cols: "list[np.ndarray]" = []
    for r0, r1 in iter_row_blocks(a, b):
        rows, cols, a_src, b_src = expand_structure(a, b, r0, r1)
        if mask is not None and len(rows):
            allowed = mask_membership(rows, cols, mask, r0, r1, arena)
            if complement:
                np.logical_not(allowed, out=allowed)
            rows = rows[allowed]
            cols = cols[allowed]
            a_src = a_src[allowed]
            b_src = b_src[allowed]
        if len(rows) == 0:
            continue
        order, _, starts, seg_rows, seg_cols = _coordinate_segments(
            rows, cols, r0, r1 - r0, ncols, arena
        )
        row_nnz[r0:r1] += np.bincount(seg_rows - r0, minlength=r1 - r0)
        reorder = None
        if not sort_output:
            first_idx = order[starts]
            if vhash is None:
                reorder = np.argsort(first_idx)
            else:
                chunk_mask, cap_row, lanes = vhash
                reorder = _vhash_order(
                    seg_rows, seg_cols, first_idx,
                    chunk_mask, cap_row, ncols, lanes,
                )
            seg_cols = seg_cols[reorder]
        blocks.append(_block_recipe(a_src, b_src, order, starts, reorder, esc))
        block_cols.append(np.ascontiguousarray(seg_cols, dtype=INDEX_DTYPE))

    indptr = np.zeros(nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(row_nnz, out=indptr[1:])
    indices = (
        np.concatenate(block_cols)
        if block_cols
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    return indptr, indices, blocks


def _inspect_faithful(
    a: CSR, b: CSR, algorithm: str, engine: str, options: SpgemmOptions,
    fps: tuple,
) -> SpgemmPlan:
    """Symbolic phase for the faithful scalar kernels.

    Caches the flop-balanced partition, the per-thread table capacities
    (the hash kernels' Fig. 7 sizing) and the exact output ``indptr`` —
    computed with the vectorized :func:`symbolic_row_nnz`, which counts
    precisely what the scalar symbolic pass would, just faster.
    """
    flop = flop_per_row(a, b)
    partition = options.partition
    if partition is None:
        partition = rows_to_threads(a, b, options.nthreads, row_cost=flop)
    elif partition.nrows != a.nrows:
        raise ConfigError(
            f"partition covers {partition.nrows} rows, matrix has {a.nrows}"
        )
    caps = _max_flop_per_thread(partition, flop)
    vector_width = lanes_for_vector_bits(options.vector_bits) if algorithm == "hashvec" else 0
    row_nnz = symbolic_row_nnz(a, b)
    indptr = np.zeros(a.nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(row_nnz, out=indptr[1:])
    return SpgemmPlan(
        options=options,
        algorithm=algorithm,
        engine=engine,
        mode="faithful",
        fps=fps,
        shape_c=(a.nrows, b.ncols),
        indptr=indptr,
        sorted_rows=options.sort_output,
        partition=partition,
        caps=caps,
        vector_width=vector_width,
    )


def inspect_masked(
    a: CSR,
    b: CSR,
    mask: CSR,
    *,
    semiring: "str | Semiring" = "plus_times",
    complement: bool = False,
    sort_output: bool = True,
    engine: str = "fast",
    stats: KernelStats | None = None,
    tracer=None,
) -> MaskedSpgemmPlan:
    """Run the symbolic phase of a masked product once; return the plan.

    Mirrors the batched masked kernel's structure pass step for step —
    expansion, mask-membership filter, stable coordinate sort, segment
    boundaries, output-order emulation — minus the value arithmetic, so
    the cached ``indices`` and per-block recipes reproduce the fresh
    masked output exactly (either engine; they are bit-identical).

    ``engine`` is advisory metadata: replay is always batched.  If
    ``stats`` is supplied, the inspection wall time is added to its
    ``inspect_seconds`` counter.
    """
    fps = tuple(structure_fingerprint(m) for m in (a, b, mask))
    return _inspect_masked(
        a, b, mask, fps, semiring=semiring, complement=complement,
        sort_output=sort_output, engine=engine, stats=stats, tracer=tracer,
    )


def _inspect_masked(
    a: CSR, b: CSR, mask: CSR, fps: tuple, *, semiring, complement: bool,
    sort_output: bool, engine: str, stats: KernelStats | None, tracer,
) -> MaskedSpgemmPlan:
    """:func:`inspect_masked` with the three operands' known structure
    fingerprints."""
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if mask.shape != (a.nrows, b.ncols):
        raise ShapeError(
            f"mask shape {mask.shape} != output shape {(a.nrows, b.ncols)}"
        )
    t0 = time.perf_counter()
    if tracer is None:
        tracer = tracer_from_env()
    obs = tracer if tracer is not None else NULL_TRACER
    with obs.span(
        "plan.inspect", phase="inspect",
        algorithm="masked", engine=engine, nrows=a.nrows,
    ):
        # First-occurrence order over the kept stream is the masked
        # kernels' unsorted convention on both engines.
        indptr, indices, blocks = _inspect_blocks(
            a, b, sort_output, mask=mask, complement=complement
        )
        plan = MaskedSpgemmPlan(
            engine=engine, complement=complement, sort_output=sort_output,
            semiring=semiring, fps=fps, shape_c=(a.nrows, b.ncols),
            indptr=indptr, indices=indices, blocks=blocks,
        )
    if stats is not None:
        stats.inspect_seconds += time.perf_counter() - t0
    return plan


def _partition_key(partition: ThreadPartition | None):
    """Hashable content fingerprint of a partition (ndarrays aren't)."""
    if partition is None:
        return None
    crc = 0
    if partition.offsets is not None:
        crc = zlib.crc32(np.ascontiguousarray(partition.offsets), crc)
    if partition.chunks is not None:
        crc = zlib.crc32(repr(partition.chunks).encode(), crc)
    return (partition.policy, partition.nthreads, crc)


class PlanCache:
    """Bounded LRU of :class:`SpgemmPlan` keyed by structure fingerprints.

    ``spgemm(a, b, plan_cache=cache)`` routes through :meth:`execute`: a
    hit replays the cached plan numeric-only; a miss pays one inspection
    (plan-capable algorithms) and caches the plan.  Plan-less algorithms —
    including an ``"auto"`` resolution landing on one — are remembered as
    resolved-name markers so the Table-4 recipe is not re-run per
    iteration, and fall back to an ordinary full multiplication.  Each
    call fingerprints every operand once: a matched key is the structure
    check, so a hit replays unchecked.  Cached plans carry no ``stats`` or
    ``tracer``; each call reports into its own.  :meth:`chain_plan`
    memoizes ``multiply_chain``'s association plans in the same LRU.

    Hit/miss totals live on :attr:`hits`/:attr:`misses` and are also pushed
    into each call's :class:`~repro.core.instrument.KernelStats` (as
    ``plan_hits``/``plan_misses``) when one is supplied.

    The cache is thread-safe: lookup, counters and store run under an
    internal lock, while inspection (the expensive part of a miss) runs
    outside it.  Two threads missing on the same key may therefore both
    inspect — wasted work, never wrong results, since the later store just
    overwrites the identical plan.  This is the sharing model the serving
    layer relies on (one process-wide cache, many request threads).
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ConfigError(f"PlanCache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        #: hits per ``"auto"``-resolved key since its last (re)resolution —
        #: the online-refinement revisit counter (see :meth:`execute`)
        self._auto_hits: "dict[tuple, int]" = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def _key(self, a: CSR, b: CSR, options: SpgemmOptions) -> tuple:
        # The semiring is deliberately absent: a plan is semiring-agnostic
        # and execute() substitutes the caller's per call.
        return (
            structure_fingerprint(a),
            structure_fingerprint(b),
            options.algorithm,
            options.sort_output,
            options.nthreads,
            options.engine,
            options.vector_bits,
            _partition_key(options.partition),
        )

    def _store(self, key: tuple, entry) -> None:
        with self._lock:
            self._entries[key] = entry
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            if len(self._auto_hits) > 4 * self.maxsize:
                # drop revisit counters whose entries were evicted
                self._auto_hits = {
                    k: v for k, v in self._auto_hits.items()
                    if k in self._entries
                }

    def _lookup(self, key: tuple, stats: "KernelStats | None"):
        """LRU-touch + counter bump under the lock; None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if stats is not None:
            if entry is not None:
                stats.plan_hits += 1
            else:
                stats.plan_misses += 1
        return entry

    def execute(
        self,
        a: CSR,
        b: CSR,
        options: SpgemmOptions | None = None,
        **kwargs,
    ) -> CSR:
        """``C = A (x) B`` through the cache (inspect on miss, replay on hit)."""
        options = SpgemmOptions.from_kwargs(options, **kwargs)
        if options.plan is not None or options.plan_cache is not None:
            # Strip routing fields so the fallback dispatch cannot recurse.
            options = options.replace(plan=None, plan_cache=None)
        key = self._key(a, b, options)
        stats = options.stats
        entry = self._lookup(key, stats)
        if entry is not None and options.algorithm == "auto":
            entry = self._maybe_revisit(key, entry, a, b, options)
        if entry is not None:
            if isinstance(entry, str):  # plan-less algorithm marker
                return _spgemm_resolved(a, b, options.replace(algorithm=entry))
            # The key matched, which already proves the operands' structure.
            return entry._run(a, b, options.semiring, stats, options.tracer)
        algorithm = options.algorithm
        observe = None
        if algorithm == "auto":
            algorithm, observe, _ = _resolve_auto(a, b, options)
            with self._lock:
                self._auto_hits[key] = 0
        t0 = time.perf_counter() if observe is not None else 0.0
        if not ALGORITHMS[algorithm].planned:
            self._store(key, algorithm)
            c = _spgemm_resolved(a, b, options.replace(algorithm=algorithm))
        else:
            plan = _inspect(a, b, options.replace(algorithm=algorithm), key[:2])
            # A shared plan must not report into (or keep alive) the
            # collectors of whichever call happened to inspect it.
            plan.options = plan.options.replace(stats=None, tracer=None)
            self._store(key, plan)
            c = plan._run(a, b, options.semiring, stats, options.tracer)
        if observe is not None:
            # full inspect+execute seconds: the quantity the calibrated
            # curves predict, fed back into the online refiner
            observe(time.perf_counter() - t0)
        return c

    def _maybe_revisit(
        self, key: tuple, entry, a: CSR, b: CSR, options: SpgemmOptions
    ):
        """Re-run the calibrated selector on long-lived ``"auto"`` entries.

        A cached ``"auto"`` resolution freezes the selector's verdict at
        first sight, which would lock out everything the online refiner
        learns afterwards.  Every :data:`AUTO_REVISIT_PERIOD` hits on such
        a key (and only while a calibration profile is active), the
        selector runs again with the current corrections; if the winner
        changed, the stale entry is dropped and the call proceeds as a
        miss — re-inspecting under the new algorithm.  Static (profile-
        absent) resolutions are deterministic, so they are never revisited.
        """
        from ..autotune import active_profile  # deferred: autotune imports core

        profile = options.calibration
        if profile is None:
            profile = active_profile()
        if profile is None:
            return entry
        with self._lock:
            count = self._auto_hits.get(key, 0) + 1
            self._auto_hits[key] = count
            if count % AUTO_REVISIT_PERIOD:
                return entry
        algorithm = _resolve_auto(a, b, options)[0]
        current = entry if isinstance(entry, str) else entry.algorithm
        if algorithm == current:
            return entry
        with self._lock:
            self._entries.pop(key, None)
        return None  # counted as a hit already; rebuilt as a silent miss

    def execute_masked(
        self,
        a: CSR,
        b: CSR,
        mask: CSR,
        *,
        semiring: "str | Semiring" = "plus_times",
        complement: bool = False,
        sort_output: bool = True,
        engine: str = "fast",
        nthreads: int = 1,
        stats: KernelStats | None = None,
        tracer=None,
    ) -> CSR:
        """Masked product through the cache (inspect on miss, replay on hit).

        The key is the three structure fingerprints plus the options that
        shape the cached structure (``complement``, ``sort_output``).  The
        engine and thread count are deliberately absent — the masked
        engines are bit-identical and the batched replay is engine- and
        partition-independent, so one plan serves every configuration that
        can reuse it.  ``nthreads`` is accepted for signature symmetry with
        :func:`repro.core.masked.masked_spgemm`.
        """
        del nthreads  # replay is partition-independent; see docstring
        fps = tuple(structure_fingerprint(m) for m in (a, b, mask))
        key = ("masked", *fps, complement, sort_output)
        plan = self._lookup(key, stats)
        if plan is None:
            plan = _inspect_masked(
                a, b, mask, fps, semiring=semiring, complement=complement,
                sort_output=sort_output, engine=engine, stats=stats,
                tracer=tracer,
            )
            self._store(key, plan)
        return plan._run(a, b, semiring, stats, tracer)

    def chain_plan(
        self,
        matrices: "list[CSR]",
        *,
        mask: CSR | None = None,
        complement: bool = False,
    ):
        """:func:`repro.core.chain.plan_chain`, memoized per structure.

        Keyed by the operands' structure fingerprints in order, the mask's
        and ``complement``; chain plans share the LRU and the hit/miss
        counters with the product plans.
        """
        key = (
            "chain",
            tuple(structure_fingerprint(m) for m in matrices),
            None if mask is None else structure_fingerprint(mask),
            complement,
        )
        plan = self._lookup(key, None)
        if plan is None:
            from .chain import plan_chain  # deferred: chain imports spgemm

            plan = plan_chain(matrices, mask=mask, complement=complement)
            self._store(key, plan)
        return plan
