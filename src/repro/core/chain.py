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

Each :class:`ChainPlan` node carries a :class:`StagePlan` with a per-stage
algorithm choice derived from the symbolic quantities (the stage's
compression ratio), used when the caller asks for ``algorithm="auto"``;
``engine="auto"`` runs every stage on the batched engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, ShapeError
from ..matrix.csr import CSR
from ..matrix.ops import pattern, pattern_filter, vstack_rows
from ..matrix.stats import total_flop
from ..semiring import PLUS_TIMES, Semiring
from .masked import masked_spgemm
from .options import ChainOptions
from .recipe import HIGH_CR_THRESHOLD
from .spgemm import spgemm
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
    """Per-stage execution choice of one chain node, from symbolic facts."""

    #: the nested order node this stage evaluates, e.g. ``(0, 1)``
    node: tuple
    #: multiplications of this stage alone
    flop: int
    #: output pattern nonzeros of this stage (unmasked)
    nnz: int
    #: algorithm picked from the stage's compression ratio
    algorithm: str
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
            flop, order, lp, rp = min(candidates, key=lambda t: t[0])
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
        step = total_flop(lp, rp)
        pat = best[(li, rj)][2]
        cr = step / max(pat.nnz, 1)
        stages.append(
            StagePlan(
                node=node,
                flop=step,
                nnz=pat.nnz,
                # Above Table 4's CR boundary collisions dominate and the
                # vector-probing hash wins.
                algorithm="hashvec" if cr > HIGH_CR_THRESHOLD else "hash",
            )
        )
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
            algorithm=root.algorithm,
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
    unmasked result is never materialized.  ``algorithm="auto"`` takes
    each stage's algorithm from the :class:`ChainPlan`'s symbolic
    quantities instead of one global setting; ``engine="auto"`` runs every
    stage on the batched ``"fast"`` engine (bit-identical to the faithful
    one, and faster even on a stage of a few thousand flops).

    ``fuse`` controls the sandwich streaming tier: ``"auto"``/``"on"``
    stream a left-deep sorted triple product block-by-block through
    row-block views (the full intermediate is never resident), ``"off"``
    materializes every intermediate as before.  Streaming applies only when
    it is exact: a left-deep order (every per-row result is independent of
    the surrounding rows, so blocks stack to the unfused product verbatim)
    with sorted output (unsorted orderings depend on block boundaries).

    ``plan`` carries a pre-built :class:`ChainPlan`; ``plan_cache`` (a
    :class:`repro.core.plan.PlanCache`) memoizes the :class:`ChainPlan`
    itself when no ``plan`` is given (keyed by the operands' and the mask's
    structure fingerprints and ``complement``) and is forwarded to every
    product — including masked and streamed ones — so re-evaluating a chain
    whose operands keep their sparsity patterns (AMG's Galerkin triple
    product per cycle, Markov iterations) pays structure discovery, the
    association DP included, only on the first evaluation.  ``tracer`` is
    forwarded to every product, so each association step shows up as its
    own root span.
    """
    options = ChainOptions.from_kwargs(opts, **kwargs)
    algorithm = options.algorithm
    semiring = options.semiring
    sort_output = options.sort_output
    nthreads = options.nthreads
    engine = "fast" if options.engine == "auto" else options.engine
    complement = options.complement
    fuse = options.fuse
    plan = options.plan
    plan_cache = options.plan_cache
    tracer = options.tracer
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
    if plan is None:
        planner = plan_chain if plan_cache is None else plan_cache.chain_plan
        plan = planner(matrices, mask=mask, complement=complement)
    stage_map = {s.node: s for s in plan.stages}

    def choose(node) -> str:
        if algorithm != "auto":
            return algorithm
        st = stage_map.get(node)
        return st.algorithm if st is not None else "hash"

    if (
        fuse != "off"
        and sort_output
        and n == 3
        and plan.order == ((0, 1), 2)
    ):
        return _stream_sandwich(
            matrices, choose=choose, engine=engine, mask=mask,
            complement=complement,
            semiring=semiring, nthreads=nthreads,
            plan_cache=plan_cache, tracer=tracer,
        )

    def evaluate(node, *, apply_mask: bool = False) -> CSR:
        if isinstance(node, int):
            return matrices[node]
        left = evaluate(node[0])
        right = evaluate(node[1])
        if apply_mask:
            return masked_spgemm(
                left, right, mask,
                semiring=semiring, complement=complement,
                sort_output=sort_output, engine=engine, nthreads=nthreads,
                plan_cache=plan_cache, tracer=tracer,
            )
        return spgemm(
            left, right,
            algorithm=choose(node), semiring=semiring,
            sort_output=sort_output, nthreads=nthreads, engine=engine,
            plan_cache=plan_cache, tracer=tracer,
        )

    return evaluate(plan.order, apply_mask=mask is not None)


def _stream_sandwich(
    matrices: "list[CSR]",
    *,
    choose,
    engine: str,
    mask: CSR | None,
    complement: bool,
    semiring: "str | Semiring",
    nthreads: int,
    plan_cache,
    tracer,
) -> CSR:
    """Evaluate a left-deep triple product in flop-bounded row blocks.

    Every SpGEMM algorithm here is row-local (output row ``i`` depends only
    on row ``i`` of the left operand), so evaluating ``(M0 · M1) · M2`` on
    row-block views of ``M0`` and stacking yields the unfused sorted result
    bit-for-bit — while only one block of the intermediate is ever alive.
    """
    m0, m1, m2 = matrices
    alg1 = choose((0, 1))
    alg2 = choose(((0, 1), 2))
    blocks: "list[CSR]" = []
    for r0, r1 in iter_row_blocks(m0, m1):
        left = m0.row_block(r0, r1)
        t = spgemm(
            left, m1,
            algorithm=alg1, semiring=semiring, sort_output=True,
            nthreads=nthreads, engine=engine,
            plan_cache=plan_cache, tracer=tracer,
        )
        if mask is not None:
            blocks.append(
                masked_spgemm(
                    t, m2, mask.row_block(r0, r1),
                    semiring=semiring, complement=complement,
                    sort_output=True, engine=engine, nthreads=nthreads,
                    plan_cache=plan_cache, tracer=tracer,
                )
            )
        else:
            blocks.append(
                spgemm(
                    t, m2,
                    algorithm=alg2, semiring=semiring, sort_output=True,
                    nthreads=nthreads, engine=engine,
                    plan_cache=plan_cache, tracer=tracer,
                )
            )
    return vstack_rows(blocks)


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
