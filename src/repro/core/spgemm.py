"""Uniform SpGEMM entry point and the algorithm table (Table 1).

:func:`spgemm` is the public one-call API: pick an algorithm by name (or let
the Table-4 recipe pick), and the dispatcher handles each kernel's input
requirements (e.g. sorting B for the Heap kernel) and output conventions.

The table :data:`ALGORITHMS` is the executable form of the paper's Table 1
("Summary of SpGEMM codes studied in this paper") and the one home of every
per-algorithm fact: each row carries its kernels, which engines run it,
whether it has a plan, what may select it and its output rule.  Dispatch,
engine resolution, the plan layer and the selectors all read the row.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..matrix.csr import CSR
from ..semiring import Semiring
from .blocked_spa import blocked_spa_spgemm
from .engine import available_engines, resolve_engine
from .esc_spgemm import esc_spgemm
from .hash_batch import batch_hash_spgemm
from .hash_spgemm import hash_spgemm
from .merge_spgemm import merge_spgemm
from .hash_vector import hash_vector_spgemm
from .heap_spgemm import heap_spgemm
from .instrument import KernelStats
from ..observability import tracer_from_env
from .kokkos_like import kokkos_proxy_spgemm
from .mkl_like import mkl_inspector_spgemm, mkl_proxy_spgemm
from .options import SpgemmOptions
from .recipe import table4_branch
from .scheduler import ThreadPartition
from .spa_spgemm import spa_spgemm

__all__ = [
    "AlgorithmInfo",
    "ALGORITHMS",
    "available_algorithms",
    "available_engines",
    "spgemm",
    "SpgemmOptions",
]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One row of Table 1, plus everything the code acts on.

    Attributes
    ----------
    name:
        Table key.
    phases:
        1 (one-phase, output buffers grow) or 2 (symbolic + numeric).
    accumulator:
        Human-readable accumulator description (Table 1 column).
    input_sorted:
        ``"any"`` or ``"sorted"`` — what the kernel accepts as B; a
        ``"sorted"`` row gets a sorted copy of an unsorted B.
    output_sorted:
        ``"select"`` (caller chooses), ``"sorted"``, or ``"unsorted"``
        (see :meth:`sorts`).
    kernel:
        The faithful (scalar, instrumented) kernel.
    selected_by:
        What may pick the row for ``algorithm="auto"``: ``"table4"`` (a
        Table-4 ``decision(...)`` names it; the calibrated selector prices
        it too), ``"calibrated"`` (only the calibrated selector of
        :mod:`repro.autotune`), or ``"never"`` (behavioural proxies, kept
        as comparators).
    batch_order:
        The order the batched
        :func:`~repro.core.hash_batch.batch_hash_spgemm` reproduces when it
        runs the row's unsorted output (``"first_touch"`` or
        ``"hashvec"``), or, for an always-sorted row, the block-loop order
        it always runs (``"esc"``: sorted rows folded pairwise, which the
        ``"sorted"`` order's arrival-order fold does not reproduce).  None
        when the batched kernel does not run the row: the row is
        faithful-only (see :attr:`fast_kernel`).
    planned:
        Whether the row has an inspector–executor split
        (:func:`repro.core.plan.inspect`).
    is_proxy:
        True for behavioural stand-ins for closed-source libraries.
    """

    name: str
    phases: int
    accumulator: str
    input_sorted: str
    output_sorted: str
    kernel: Callable
    selected_by: str
    batch_order: "str | None" = None
    planned: bool = False
    is_proxy: bool = False

    @property
    def fast_kernel(self) -> "Callable | None":
        """The kernel ``engine="fast"`` runs; None for a faithful-only row
        (``engine="fast"`` falls back to ``kernel``)."""
        return None if self.batch_order is None else batch_hash_spgemm

    def sorts(self, sort_output: bool) -> bool:
        """Whether the output rows come out sorted for the caller's
        ``sort_output`` — the result's ``sorted_rows`` flag."""
        if self.output_sorted == "select":
            return sort_output
        return self.output_sorted == "sorted"

    def batch_output_order(self, sort_output: bool) -> "str | None":
        """The batched kernel's output order: ``"sorted"`` or
        :attr:`batch_order` (None: no batched kernel).  Two rows with one
        order produce the same bytes."""
        if self.batch_order is None or self.output_sorted == "sorted":
            return self.batch_order
        return "sorted" if self.sorts(sort_output) else self.batch_order

    def table_row(self) -> str:
        """Format as a Table-1 style line."""
        sortedness = f"{self.input_sorted.capitalize()}/{self.output_sorted.capitalize()}"
        proxy = " (proxy)" if self.is_proxy else ""
        return (
            f"{self.name:<14s} {self.phases:^6d} {self.accumulator:<18s} "
            f"{sortedness:<18s}{proxy}"
        )


#: Executable table mirroring Table 1 of the paper.  Rows without a
#: ``batch_order`` are faithful-only: the Heap family's element-level merge
#: order and the proxies' operation streams are their purpose.  Rows
#: without a plan either have no symbolic artifact to cache (the one-phase
#: Heap/Merge/blocked-SPA designs discover structure and values together)
#: or are proxies whose measured behaviour a plan would change
#: (``mkl_inspector`` is the *model* of an inspector, not a host for ours;
#: it is one-phase SPA with an unsorted harvest, so the batched SPA runs
#: it).
ALGORITHMS: "dict[str, AlgorithmInfo]" = {
    "hash": AlgorithmInfo(
        "hash", 2, "Hash Table", "any", "select", kernel=hash_spgemm,
        selected_by="table4", batch_order="first_touch", planned=True,
    ),
    "hashvec": AlgorithmInfo(
        "hashvec", 2, "Hash Table (vec)", "any", "select",
        kernel=hash_vector_spgemm, selected_by="table4",
        batch_order="hashvec", planned=True,
    ),
    "heap": AlgorithmInfo(
        "heap", 1, "Heap", "sorted", "sorted", kernel=heap_spgemm,
        selected_by="table4",
    ),
    # Dense-accumulator baseline: dominated by the hash family on the
    # paper's machines (Fig. 12's cache-residency cliff) but competitive
    # on small or dense problems other hosts may see.
    "spa": AlgorithmInfo(
        "spa", 1, "Dense SPA", "any", "select", kernel=spa_spgemm,
        selected_by="calibrated", batch_order="first_touch", planned=True,
    ),
    "mkl": AlgorithmInfo(
        "mkl", 2, "- (unknown)", "any", "select", kernel=mkl_proxy_spgemm,
        selected_by="never", is_proxy=True,
    ),
    # The one proxy Table 4(a) names: unsorted inspector-executor output is
    # a mode the native kernels expose directly.
    "mkl_inspector": AlgorithmInfo(
        "mkl_inspector", 1, "- (unknown)", "any", "unsorted",
        kernel=mkl_inspector_spgemm, selected_by="table4",
        batch_order="first_touch", is_proxy=True,
    ),
    "kokkos": AlgorithmInfo(
        "kokkos", 2, "HashMap", "any", "unsorted", kernel=kokkos_proxy_spgemm,
        selected_by="never", is_proxy=True,
    ),
    # Distributed/GPU-lineage kernel studied for SUMMA node-local use
    # (§5.7), outside Table 4's shared-memory scope; inherently
    # vectorized, so both engines run its batched order.
    "esc": AlgorithmInfo(
        "esc", 2, "Sort+Reduce", "any", "sorted", kernel=esc_spgemm,
        selected_by="calibrated", batch_order="esc", planned=True,
    ),
    # Extensions beyond the paper's Table 1, from its related-work section:
    # column-blocked SPA (Patwary et al. 2015) and iterative row merging
    # (ViennaCL / Gremse et al. 2015).
    "blocked_spa": AlgorithmInfo(
        "blocked_spa", 1, "Blocked SPA", "any", "sorted",
        kernel=blocked_spa_spgemm, selected_by="calibrated",
    ),
    "merge": AlgorithmInfo(
        "merge", 1, "Merge Tree", "sorted", "sorted", kernel=merge_spgemm,
        selected_by="calibrated",
    ),
}


def _debug_validate_enabled() -> bool:
    """Whether ``REPRO_DEBUG_VALIDATE=1`` CSR invariant checking is on.

    Read per call (not at import) so tests and debugging sessions can
    toggle it; the lookup is two dict probes and does not perturb
    benchmarks, which only pay when the mode is enabled.
    """
    return os.environ.get("REPRO_DEBUG_VALIDATE", "") == "1"


def available_algorithms() -> "list[str]":
    """Names accepted by :func:`spgemm`, in registry order."""
    return list(ALGORITHMS)


def spgemm(a: CSR, b: CSR, opts: SpgemmOptions | None = None, **kwargs) -> CSR:
    """Compute ``C = A (x) B`` over a semiring with a selectable algorithm.

    Configuration arrives either as a ready-made
    :class:`~repro.core.options.SpgemmOptions` (``spgemm(a, b, opts)``), as
    loose keywords (``spgemm(a, b, algorithm="hash", engine="fast")``), or
    both — keywords override the options object's fields.  Everything is
    canonicalized through :meth:`SpgemmOptions.from_kwargs`, which is the
    single place configuration is validated: unknown ``algorithm`` /
    ``engine`` / ``vector_bits`` values raise
    :class:`~repro.errors.ConfigError` listing the valid choices.

    Options
    -------
    algorithm:
        One of :func:`available_algorithms`, or ``"auto"`` to apply the
        paper's Table-4 recipe (:func:`repro.core.recipe.recommend`).
    semiring, sort_output, nthreads, partition, stats:
        Forwarded to the kernel (see :func:`repro.core.hash_spgemm.hash_spgemm`).
    vector_bits:
        Simulated register width for ``hashvec`` (512 = KNL, 256 = Haswell).
    engine:
        ``"faithful"`` (default) runs the scalar instrumented kernels;
        ``"fast"`` runs the batched numpy implementation
        (:mod:`repro.core.hash_batch`) for the hash family, SPA and
        ``mkl_inspector`` —
        bit-for-bit identical output at numpy speed.  Algorithms without a
        batched implementation fall back to the faithful kernel (see
        :func:`repro.core.engine.resolve_engine`).
    plan:
        A pre-built :class:`~repro.core.plan.SpgemmPlan` (from
        :func:`repro.core.plan.inspect`): the multiplication replays the
        cached structure numeric-only.  The operands must match the
        inspected sparsity patterns (:class:`~repro.errors.PlanError`
        otherwise).
    plan_cache:
        A :class:`~repro.core.plan.PlanCache`: plans are looked up by the
        operands' structure fingerprints, inspected on miss and replayed on
        hit — the drop-in way to make iterative workloads (AMG, Markov,
        BFS) numeric-only after their first iteration.

    Notes
    -----
    Rows with a fixed output convention override ``sort_output``
    (:meth:`AlgorithmInfo.sorts`): ``heap``/``esc``/``merge``/
    ``blocked_spa`` always return sorted rows, ``mkl_inspector``/``kokkos``
    unsorted ones.  The Heap and Merge kernels need sorted B; the
    dispatcher sorts a copy transparently when needed (charging that cost is
    the perfmodel's job, mirroring the paper's fairness argument that
    sorted-input algorithms must emit sorted output).

    With ``REPRO_DEBUG_VALIDATE=1`` in the environment, the full CSR
    invariant suite (monotone indptr, index bounds, sorted-flag
    truthfulness, duplicate detection) runs on both operands at entry and
    on the result at exit — off by default so benchmarks are unaffected.

    With a ``tracer`` (explicit or via ``REPRO_TRACE``), the dispatch and
    every phase seam below it open spans — see ``docs/observability.md``.
    """
    options = SpgemmOptions.from_kwargs(opts, **kwargs)
    if options.tracer is None:
        env_tracer = tracer_from_env()
        if env_tracer is not None:
            options = options.replace(tracer=env_tracer)
    debug_validate = _debug_validate_enabled()
    if debug_validate:
        a.validate()
        b.validate()
    if options.plan is not None:
        c = options.plan.execute(
            a, b, semiring=options.semiring, stats=options.stats,
            tracer=options.tracer,
        )
    elif options.plan_cache is not None:
        c = options.plan_cache.execute(a, b, options)
    else:
        c = _spgemm_resolved(a, b, options)
    if debug_validate:
        c.validate()
    return c


def _spgemm_resolved(a: CSR, b: CSR, options: SpgemmOptions) -> CSR:
    """Plan-free dispatch: resolve ``auto`` + engine, then run the kernel.

    Also the fallback the :class:`~repro.core.plan.PlanCache` uses for
    plan-less algorithms, which is why it is factored out of :func:`spgemm`.
    """
    algorithm = options.algorithm
    observe = branch = None
    if algorithm == "auto":
        algorithm, observe, branch = _resolve_auto(a, b, options)
    engine = resolve_engine(options.engine, algorithm)
    tracer = options.tracer
    if tracer is None:
        t0 = time.perf_counter() if observe is not None else 0.0
        c = _dispatch_kernel(
            algorithm, a, b, engine=engine, semiring=options.semiring,
            sort_output=options.sort_output, nthreads=options.nthreads,
            partition=options.partition, stats=options.stats,
            vector_bits=options.vector_bits, tracer=None,
        )
        if observe is not None:
            observe(time.perf_counter() - t0)
        return c
    stats = options.stats
    t0 = time.perf_counter() if observe is not None else 0.0
    with tracer.span(
        "spgemm", phase="other",
        algorithm=algorithm, engine=engine,
        nrows=a.nrows, ncols=b.ncols, nthreads=options.nthreads,
    ) as root:
        before = stats.scalar_snapshot() if stats is not None else None
        c = _dispatch_kernel(
            algorithm, a, b, engine=engine, semiring=options.semiring,
            sort_output=options.sort_output, nthreads=options.nthreads,
            partition=options.partition, stats=stats,
            vector_bits=options.vector_bits, tracer=tracer,
        )
        root.add_counter("nnz", float(c.nnz))
        if branch is not None:
            root.meta["algorithm"] = branch.verdict(branch.flop / c.nnz)[0]
        if stats is not None:
            # Counters and spans in one report: the KernelStats delta of
            # this call lands on the root span, and the traced phase times
            # flow back into the stats' *_seconds counters.
            for key, value in stats.scalar_snapshot().items():
                delta = value - before[key]
                if delta:
                    root.add_counter(key, delta)
            _phase_seconds_into_stats(root, stats)
    if observe is not None:
        observe(time.perf_counter() - t0)
    return c


def _resolve_auto(a: CSR, b: CSR, options: SpgemmOptions):
    """Resolve ``algorithm="auto"`` to ``(algorithm, observe, branch)``.

    A calibration profile or the faithful engine goes through
    :func:`repro.autotune.resolve_auto`.  On the fast engine, when the
    Table-4 branch keys on the compression ratio and both its verdicts run
    one batched kernel with one output order, the kernel runs under either
    and ``branch`` names the verdict from the result's exact ``flop /
    nnz(C)`` — no symbolic pass.  The low verdict runs (``hash``, which has
    a plan), and the plan layer resolves ``auto`` here too, so a
    :class:`~repro.core.plan.PlanCache` replays such a product
    numeric-only.
    """
    from ..autotune import active_profile, resolve_auto  # deferred: autotune imports core

    so = options.sort_output
    if (
        options.engine == "fast"
        and options.calibration is None
        and active_profile() is None
    ):
        branch = table4_branch(a, b, sort_output=so)
        low, high = branch.low[0], branch.high[0]
        if not branch.reads_cr:
            return low, None, None
        order = ALGORITHMS[low].batch_output_order(so)
        if order is not None and order == ALGORITHMS[high].batch_output_order(so):
            return low, None, branch
    algorithm, observe = resolve_auto(
        a, b, sort_output=so, profile=options.calibration
    )
    return algorithm, observe, None


#: Traced phases mirrored into KernelStats wall-time counters.
_PHASE_STAT_FIELDS = {
    "symbolic": "symbolic_seconds",
    "numeric": "numeric_seconds",
    "sort": "sort_seconds",
}


def _phase_seconds_into_stats(root, stats: KernelStats) -> None:
    """Fold a finished span tree's phase times into the stats collector."""
    for span in root.walk():
        attr = _PHASE_STAT_FIELDS.get(span.phase)
        if attr is not None:
            setattr(stats, attr, getattr(stats, attr) + span.exclusive_seconds())


@lru_cache(maxsize=None)
def _parameters(kernel: Callable) -> "frozenset[str]":
    """The keyword parameters a kernel accepts."""
    return frozenset(inspect.signature(kernel).parameters)


def _dispatch_kernel(
    algorithm: str,
    a: CSR,
    b: CSR,
    *,
    engine: str,
    semiring: "str | Semiring",
    sort_output: bool,
    nthreads: int,
    partition: ThreadPartition | None,
    stats: KernelStats | None,
    vector_bits: int,
    tracer=None,
) -> CSR:
    """Run the row's kernel for one resolved (algorithm, engine) pair.

    B is sorted first when the row needs sorted input, ``sort_output``
    becomes the row's effective sortedness, and each kernel receives the
    options its signature names.
    """
    info = ALGORITHMS[algorithm]
    kernel = info.fast_kernel if engine == "fast" else info.kernel
    if info.input_sorted == "sorted" and not b.sorted_rows:
        if tracer is None:
            b = b.sort_rows()
        else:
            with tracer.span(
                "sort_b", phase="sort", reason=f"{algorithm} needs sorted B"
            ):
                b = b.sort_rows()
    options = {
        "algorithm": algorithm, "semiring": semiring,
        "sort_output": info.sorts(sort_output), "nthreads": nthreads,
        "partition": partition, "stats": stats, "vector_bits": vector_bits,
        "tracer": tracer,
    }
    accepted = _parameters(kernel)
    return kernel(a, b, **{k: v for k, v in options.items() if k in accepted})
