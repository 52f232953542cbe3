"""Flop-aware multiplication chains (e.g. AMG's Galerkin triple product).

The paper's introduction lists Algebraic Multigrid among SpGEMM's major
consumers: the coarse operator is the triple product ``A_c = R A P``, and
the association order — ``(R A) P`` vs ``R (A P)`` — can change the work by
large factors.  :func:`multiply_chain` picks the order by the *exact* flop
count of every candidate association (computed by the same machinery as the
paper's load balancer, Fig. 6's FLOPS vector) via the classic
matrix-chain dynamic program, then evaluates it with any registered kernel.

Flop counts of products that involve intermediate results are themselves
exact: the DP materializes intermediate *patterns* bottom-up with the
value-free :func:`repro.core.symbolic.structure_product` (cheap relative to
the numeric multiplies it saves).

On top of the association order, the planner recognizes two **fusable
shapes** (see ``docs/fusion.md``):

* **trailing elementwise mask** — ``(A · B) .* M``: pass ``mask=`` and the
  final product runs through the fused :func:`repro.core.masked.masked_spgemm`
  instead of materializing the full product and filtering it;
* **sandwich triple products** — ``R · A · P`` evaluated left-deep with
  sorted output streams the narrow intermediate block-by-block
  (:meth:`CSR.row_block` views + :func:`repro.matrix.ops.vstack_rows`), so
  the full ``R · A`` is never resident at once.

Each :class:`ChainPlan` node carries a :class:`StagePlan` with the stage's
symbolic quantities.  ``algorithm="auto"`` resolves every stage the way a
fresh :func:`repro.spgemm` call does; ``engine="auto"`` runs every stage on
the batched engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError, ShapeError
from ..matrix.csr import CSR
from ..matrix.ops import pattern, pattern_filter, vstack_rows
from ..matrix.stats import total_flop
from ..observability import tracer_from_env
from ..semiring import PLUS_TIMES, Semiring
from .engine import resolve_engine
from .masked import masked_spgemm
from .options import ChainOptions, SpgemmOptions
from .plan import _calibrating
from .spgemm import _debug_validate_enabled, _spgemm_resolved, spgemm
from .symbolic import iter_row_blocks, structure_product

__all__ = [
    "ChainPlan",
    "StagePlan",
    "multiply_chain",
    "plan_chain",
    "matrix_power",
]

@dataclass(frozen=True)
class StagePlan:
    """Symbolic facts of one chain node."""

    #: the nested order node this stage evaluates, e.g. ``(0, 1)``
    node: tuple
    #: multiplications of this stage alone
    flop: int
    #: output pattern nonzeros of this stage (unmasked)
    nnz: int
    #: True on the final stage when the chain carries a fused mask
    masked: bool = False
    #: output nonzeros after the mask (None when ``masked`` is False)
    masked_nnz: "int | None" = None


@dataclass(frozen=True)
class ChainPlan:
    """Chosen association order and its predicted cost."""

    #: nested tuple over operand indices, e.g. ``((0, 1), 2)``
    order: tuple
    #: total multiplication count of the chosen order
    flop: int
    #: flop of the worst order, for reporting the saving
    worst_flop: int
    #: per-stage choices, bottom-up (the root stage is last)
    stages: "tuple[StagePlan, ...]" = ()
    #: recognized fusable shape: None, "masked", "sandwich" or
    #: "masked-sandwich"
    fusable: "str | None" = None

    @property
    def saving(self) -> float:
        """Worst-order flop divided by chosen-order flop (>= 1)."""
        return self.worst_flop / self.flop if self.flop else 1.0

    def render(self, names: "list[str] | None" = None) -> str:
        """Human-readable association, e.g. ``((R x A) x P)``."""

        def rec(node) -> str:
            if isinstance(node, int):
                return names[node] if names else f"M{node}"
            return f"({rec(node[0])} x {rec(node[1])})"

        out = rec(self.order)
        if self.fusable in ("masked", "masked-sandwich"):
            out += " .* M"
        return out


def plan_chain(
    matrices: "list[CSR]",
    *,
    mask: CSR | None = None,
    complement: bool = False,
) -> ChainPlan:
    """Matrix-chain DP over **exact** flop counts.

    For up to a handful of operands (the practical case: RAP is three) the
    DP evaluates every split of every interval, computing each chosen
    intermediate's pattern once via the value-free
    :func:`~repro.core.symbolic.structure_product`.  With ``mask=``,
    the final stage is planned as a fused masked product and its
    ``masked_nnz`` records what fusion keeps off the output path.

    On a flop tie the split with the longest left part wins, so a Galerkin
    product ``R A Rᵀ`` with symmetric ``A`` gets the left-deep order the
    streamed sandwich runs.
    """
    n = len(matrices)
    if n == 0:
        raise ConfigError("multiply_chain needs at least one matrix")
    for x, y in zip(matrices, matrices[1:]):
        if x.ncols != y.nrows:
            raise ShapeError(
                f"chain dimension mismatch: {x.shape} then {y.shape}"
            )
    if n > 8:
        raise ConfigError(
            f"chain of {n} operands: the exact-flop DP materializes "
            "O(n^2) intermediate patterns; split the chain manually"
        )
    if mask is not None:
        if n < 2:
            raise ConfigError(
                "a chain mask gates a product; it needs at least two operands"
            )
        if mask.shape != (matrices[0].nrows, matrices[-1].ncols):
            raise ShapeError(
                f"mask shape {mask.shape} != chain output shape "
                f"{(matrices[0].nrows, matrices[-1].ncols)}"
            )
    patterns = [pattern(m) for m in matrices]

    # best[(i, j)] = (flop, order, pattern) for the product of i..j inclusive
    best: "dict[tuple[int, int], tuple[int, tuple, CSR]]" = {}
    worst: "dict[tuple[int, int], int]" = {}
    for i in range(n):
        best[(i, i)] = (0, i, patterns[i])
        worst[(i, i)] = 0
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            candidates = []
            worst_here = 0
            for k in range(i, j):
                lf, lo, lp = best[(i, k)]
                rf, ro, rp = best[(k + 1, j)]
                step = total_flop(lp, rp)
                candidates.append((lf + rf + step, (lo, ro), lp, rp))
                worst_here = max(
                    worst_here, worst[(i, k)] + worst[(k + 1, j)] + step
                )
            # reversed: the first minimum is then the left-deepest split
            flop, order, lp, rp = min(reversed(candidates), key=lambda t: t[0])
            best[(i, j)] = (flop, order, structure_product(lp, rp))
            worst[(i, j)] = worst_here
    flop, order, _ = best[(0, n - 1)]

    # Walk the chosen tree bottom-up, pricing each stage from the patterns
    # the DP already materialized.
    stages: "list[StagePlan]" = []

    def walk(node) -> "tuple[int, int, CSR]":
        if isinstance(node, int):
            return node, node, patterns[node]
        li, _, lp = walk(node[0])
        _, rj, rp = walk(node[1])
        pat = best[(li, rj)][2]
        stages.append(StagePlan(node=node, flop=total_flop(lp, rp), nnz=pat.nnz))
        return li, rj, pat

    root_pat = walk(order)[2] if not isinstance(order, int) else patterns[order]
    sandwich = n == 3 and order == ((0, 1), 2)
    fusable = None
    if mask is not None:
        fusable = "masked-sandwich" if sandwich else "masked"
        root = stages[-1]
        masked_nnz = pattern_filter(root_pat, mask, complement=complement).nnz
        stages[-1] = StagePlan(
            node=root.node, flop=root.flop, nnz=root.nnz,
            masked=True, masked_nnz=masked_nnz,
        )
    elif sandwich:
        fusable = "sandwich"
    return ChainPlan(
        order=order,
        flop=flop,
        worst_flop=worst[(0, n - 1)],
        stages=tuple(stages),
        fusable=fusable,
    )


def multiply_chain(
    matrices: "list[CSR]",
    opts: ChainOptions | None = None,
    *,
    mask: CSR | None = None,
    **kwargs,
) -> CSR:
    """Multiply a chain of matrices in the flop-optimal association order.

    Configuration arrives the same way as :func:`repro.spgemm`'s: a frozen
    :class:`~repro.core.options.ChainOptions` (``multiply_chain(mats,
    opts)``), loose keywords (``multiply_chain(mats, algorithm="hash",
    fuse="off")``), or both — keywords override the options object's
    fields, and a plain :class:`~repro.core.options.SpgemmOptions` is
    promoted field-by-field.  Everything is validated in one place
    (:meth:`ChainOptions.from_kwargs`); unknown keywords raise
    :class:`~repro.errors.ConfigError` listing the valid names.

    ``mask`` (an operand, so not part of the options) gates the chain's
    *final* product through the fused
    :func:`repro.core.masked.masked_spgemm` (``complement`` as there) — the
    unmasked result is never materialized.  ``algorithm`` goes to every
    stage's :func:`repro.spgemm` call as given, so ``"auto"`` resolves each
    stage exactly as a fresh call on its operands does; ``engine="auto"``
    runs every stage on the batched ``"fast"`` engine (bit-identical to the
    faithful one, and faster even on a stage of a few thousand flops).

    ``fuse`` controls the sandwich streaming tier: ``"auto"``/``"on"``
    stream a left-deep sorted triple product block-by-block through
    row-block views (the full intermediate is never resident), ``"off"``
    materializes every intermediate as before.  Streaming applies only when
    it is exact: a left-deep order (every per-row result is independent of
    the surrounding rows, so blocks stack to the unfused product verbatim)
    with sorted output (unsorted orderings depend on block boundaries).

    ``plan`` carries a pre-built :class:`ChainPlan`.  Without one,
    ``plan_cache`` (a :class:`repro.core.plan.PlanCache`) keeps a *chain
    entry* keyed by the operands' and the mask's structure fingerprints and
    the stage-shaping options: the :class:`ChainPlan` plus the stage plans
    the first evaluation ran.  Re-evaluating a chain whose operands keep
    their sparsity patterns (AMG's Galerkin triple product per cycle,
    Markov iterations) then fingerprints each operand once and replays the
    saved stages numeric-only (see ``docs/plans.md``).  With a ``plan``,
    the cache serves each product on its own.  ``stats`` and ``tracer`` go
    to every product, so each association step reports its counters and
    shows up as its own root span.
    """
    options = ChainOptions.from_kwargs(opts, **kwargs)
    plan = options.plan
    if plan is not None and not isinstance(plan, ChainPlan):
        raise ConfigError(
            f"multiply_chain's plan must be a ChainPlan (from plan_chain), "
            f"got {type(plan).__name__}"
        )
    n = len(matrices)
    if mask is not None:
        if n < 2:
            raise ConfigError(
                "a chain mask gates a product; it needs at least two operands"
            )
        if mask.shape != (matrices[0].nrows, matrices[-1].ncols):
            raise ShapeError(
                f"mask shape {mask.shape} != chain output shape "
                f"{(matrices[0].nrows, matrices[-1].ncols)}"
            )
    run = _Stages(options)
    if run.validate:
        for m in matrices if mask is None else (*matrices, mask):
            m.validate()
    if plan is None and options.plan_cache is not None:
        return _cached_chain(matrices, mask, run)
    if plan is None:
        plan = plan_chain(matrices, mask=mask, complement=options.complement)
    spans = _stream_spans(matrices, plan, options)
    return _evaluate(matrices, mask, plan.order, spans, run)


@dataclass(frozen=True)
class _ChainEntry:
    """What a :class:`~repro.core.plan.PlanCache` keeps for one chain."""

    plan: ChainPlan
    #: row blocks of the streamed sandwich; None when the chain does not
    #: stream
    spans: "tuple[tuple[int, int], ...] | None"
    #: per product, in evaluation order: the plan that ran it, or the
    #: resolved algorithm name of a plan-less stage
    stages: tuple


def _cached_chain(matrices: "list[CSR]", mask: CSR | None, run: "_Stages") -> CSR:
    """:func:`multiply_chain` through the cache's chain entry.

    A miss plans the chain and evaluates it through the cache's per-product
    lookups, saving the entry that served each product.  A hit replays the
    saved stages: its key fingerprinted every operand, and each
    intermediate's structure is the previous saved plan's output, so no
    stage needs options, a key or a fingerprint.  While a calibration
    profile is active an ``"auto"`` chain takes the per-product lookups on
    hits too, so each stage keeps its periodic re-selection
    (:meth:`~repro.core.plan.PlanCache._maybe_revisit`).
    """
    options = run.options
    cache = options.plan_cache
    key = cache._chain_key(matrices, mask, options, run.engine)
    entry = cache._lookup(key, options.stats)
    if entry is None:
        plan = plan_chain(matrices, mask=mask, complement=options.complement)
        spans = _stream_spans(matrices, plan, options)
        run.record = []
        c = _evaluate(matrices, mask, plan.order, spans, run)
        cache._store(key, _ChainEntry(plan, spans, tuple(run.record)))
        return c
    if not (options.algorithm == "auto" and _calibrating(options)):
        run.saved = iter(entry.stages)
    return _evaluate(matrices, mask, entry.plan.order, entry.spans, run)


class _Stages:
    """Runs one chain evaluation's products, in evaluation order.

    Without a cache each product is a fresh :func:`repro.spgemm` /
    :func:`repro.core.masked.masked_spgemm` call.  With one, each goes
    through the cache's own lookup, and ``record`` (when a list) collects
    the entry that served it.  With ``saved`` (a chain hit) each product
    replays the next saved entry unchecked.
    """

    def __init__(self, options: ChainOptions) -> None:
        self.options = options
        self.engine = resolve_engine(options.engine)
        self.tracer = (
            options.tracer if options.tracer is not None else tracer_from_env()
        )
        self.validate = _debug_validate_enabled()
        self.record: "list | None" = None
        self.saved = None

    @cached_property
    def spgemm_options(self) -> SpgemmOptions:
        """Options of an unmasked product."""
        o = self.options
        return SpgemmOptions(
            algorithm=o.algorithm, semiring=o.semiring,
            sort_output=o.sort_output, nthreads=o.nthreads,
            engine=self.engine, stats=o.stats, tracer=self.tracer,
        )

    def __call__(self, left: CSR, right: CSR, mask: CSR | None = None) -> CSR:
        """``left (x) right``, gated by ``mask`` when given."""
        o = self.options
        if self.saved is not None:
            entry = next(self.saved)
            if isinstance(entry, str):
                c = _spgemm_resolved(
                    left, right, self.spgemm_options.replace(algorithm=entry)
                )
            else:
                c = entry._run(left, right, o.semiring, o.stats, self.tracer)
        elif o.plan_cache is None:
            if mask is None:
                c = spgemm(
                    left, right,
                    algorithm=o.algorithm, semiring=o.semiring,
                    sort_output=o.sort_output, nthreads=o.nthreads,
                    engine=self.engine, stats=o.stats, tracer=self.tracer,
                )
            else:
                c = masked_spgemm(
                    left, right, mask,
                    semiring=o.semiring, complement=o.complement,
                    sort_output=o.sort_output, engine=self.engine,
                    nthreads=o.nthreads, stats=o.stats, tracer=self.tracer,
                )
        else:
            if mask is None:
                c, entry = o.plan_cache._execute(
                    left, right, self.spgemm_options
                )
            else:
                c, entry = o.plan_cache._execute_masked(
                    left, right, mask,
                    semiring=o.semiring, complement=o.complement,
                    sort_output=o.sort_output, engine=self.engine,
                    stats=o.stats, tracer=self.tracer,
                )
            if self.record is not None:
                self.record.append(entry)
        if self.validate:
            c.validate()
        return c


def _stream_spans(
    matrices: "list[CSR]", plan: ChainPlan, options: ChainOptions
) -> "tuple[tuple[int, int], ...] | None":
    """The row blocks a streamed sandwich evaluates, or None when the chain
    does not stream.

    Streaming needs a left-deep triple product with sorted output and
    ``fuse`` not ``"off"``.  The planned ``M0 · M1`` stage flop spares the
    block walk its per-row flop count when the intermediate fits one block.
    """
    if (
        options.fuse == "off"
        or not options.sort_output
        or len(matrices) != 3
        or plan.order != ((0, 1), 2)
    ):
        return None
    inner_flop = next((s.flop for s in plan.stages if s.node == (0, 1)), None)
    return tuple(iter_row_blocks(matrices[0], matrices[1], total_flop=inner_flop))


def _evaluate(
    matrices: "list[CSR]", mask: CSR | None, order, spans, run: _Stages
) -> CSR:
    """Evaluate ``order`` bottom-up with ``run``; the mask gates the root
    product.  With ``spans`` the left-deep triple product streams."""
    if spans is not None:
        return _stream_sandwich(matrices, mask, spans, run)

    def evaluate(node, apply_mask: bool = False) -> CSR:
        if isinstance(node, int):
            return matrices[node]
        left = evaluate(node[0])
        right = evaluate(node[1])
        return run(left, right, mask if apply_mask else None)

    return evaluate(order, apply_mask=mask is not None)


def _stream_sandwich(
    matrices: "list[CSR]", mask: CSR | None, spans, run: _Stages
) -> CSR:
    """Evaluate a left-deep triple product in flop-bounded row blocks.

    Every SpGEMM algorithm here is row-local (output row ``i`` depends only
    on row ``i`` of the left operand), so evaluating ``(M0 · M1) · M2`` on
    row-block views of ``M0`` and stacking yields the unfused sorted result
    bit-for-bit — while only one block of the intermediate is ever alive.
    """
    m0, m1, m2 = matrices
    blocks: "list[CSR]" = []
    for r0, r1 in spans:
        t = run(m0.row_block(r0, r1), m1)
        block_mask = None if mask is None else mask.row_block(r0, r1)
        blocks.append(run(t, m2, block_mask))
    return blocks[0] if len(blocks) == 1 else vstack_rows(blocks)


def matrix_power(
    a: CSR,
    exponent: int,
    *,
    algorithm: str = "hash",
    semiring: "str | Semiring" = PLUS_TIMES,
    nthreads: int = 1,
    engine: str = "faithful",
    plan_cache=None,
) -> CSR:
    """``A^k`` by repeated squaring — ceil(log2 k) SpGEMMs instead of k-1.

    Over the boolean semiring this is k-hop reachability; over plus-times
    it is the walk-counting power used by spectral-style graph statistics.
    ``exponent`` must be >= 1 (sparse identity is well-defined, but an
    explicit ``identity(n)`` call is clearer at call sites).  The squaring
    sequence produces a fresh pattern at every step, so ``plan_cache``
    mostly pays off across *repeated* ``matrix_power`` calls on the same
    matrix (each step's plan is recalled the second time around).
    """
    if a.nrows != a.ncols:
        raise ShapeError("matrix_power requires a square matrix")
    if exponent < 1:
        raise ConfigError(f"exponent must be >= 1, got {exponent}")
    result: "CSR | None" = None
    base = a
    e = exponent
    while True:
        if e & 1:
            result = base if result is None else spgemm(
                result, base,
                algorithm=algorithm, semiring=semiring, nthreads=nthreads,
                engine=engine, plan_cache=plan_cache,
            )
        e >>= 1
        if not e:
            break
        base = spgemm(
            base, base,
            algorithm=algorithm, semiring=semiring, nthreads=nthreads,
            engine=engine, plan_cache=plan_cache,
        )
    return result
