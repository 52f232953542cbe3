"""Uniform SpGEMM entry point and the algorithm registry (Table 1).

:func:`spgemm` is the public one-call API: pick an algorithm by name (or let
the Table-4 recipe pick), and the dispatcher handles each kernel's input
requirements (e.g. sorting B for the Heap kernel) and output conventions.

The registry :data:`ALGORITHMS` is the executable form of the paper's
Table 1 ("Summary of SpGEMM codes studied in this paper").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError
from ..matrix.csr import CSR
from ..semiring import Semiring
from .blocked_spa import blocked_spa_spgemm
from .engine import (
    FAITHFUL_ONLY_ALGORITHMS,
    FAST_ALGORITHMS,
    VECTORIZED_ALGORITHMS,
    available_engines,
    resolve_engine,
)
from .esc_spgemm import esc_spgemm
from .hash_batch import batch_hash_spgemm, batch_output_order
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
    """One row of Table 1, plus dispatch metadata.

    Attributes
    ----------
    name:
        Registry key.
    phases:
        1 (one-phase, output buffers grow) or 2 (symbolic + numeric).
    accumulator:
        Human-readable accumulator description (Table 1 column).
    input_sorted:
        ``"any"`` or ``"sorted"`` — what the kernel accepts.
    output_sorted:
        ``"select"`` (caller chooses), ``"sorted"``, or ``"unsorted"``.
    is_proxy:
        True for behavioural stand-ins for closed-source libraries.
    """

    name: str
    phases: int
    accumulator: str
    input_sorted: str
    output_sorted: str
    is_proxy: bool = False

    def table_row(self) -> str:
        """Format as a Table-1 style line."""
        sortedness = f"{self.input_sorted.capitalize()}/{self.output_sorted.capitalize()}"
        proxy = " (proxy)" if self.is_proxy else ""
        return (
            f"{self.name:<14s} {self.phases:^6d} {self.accumulator:<18s} "
            f"{sortedness:<18s}{proxy}"
        )


#: Executable registry mirroring Table 1 of the paper.
ALGORITHMS: "dict[str, AlgorithmInfo]" = {
    "hash": AlgorithmInfo("hash", 2, "Hash Table", "any", "select"),
    "hashvec": AlgorithmInfo("hashvec", 2, "Hash Table (vec)", "any", "select"),
    "heap": AlgorithmInfo("heap", 1, "Heap", "sorted", "sorted"),
    "spa": AlgorithmInfo("spa", 1, "Dense SPA", "any", "select"),
    "mkl": AlgorithmInfo("mkl", 2, "- (unknown)", "any", "select", is_proxy=True),
    "mkl_inspector": AlgorithmInfo(
        "mkl_inspector", 1, "- (unknown)", "any", "unsorted", is_proxy=True
    ),
    "kokkos": AlgorithmInfo(
        "kokkos", 2, "HashMap", "any", "unsorted", is_proxy=True
    ),
    "esc": AlgorithmInfo("esc", 2, "Sort+Reduce", "any", "sorted"),
    # Extensions beyond the paper's Table 1, from its related-work section:
    # column-blocked SPA (Patwary et al. 2015) and iterative row merging
    # (ViennaCL / Gremse et al. 2015).
    "blocked_spa": AlgorithmInfo("blocked_spa", 1, "Blocked SPA", "any", "sorted"),
    "merge": AlgorithmInfo("merge", 1, "Merge Tree", "sorted", "sorted"),
}


def _check_registry_coverage() -> None:
    """Fail import when the engine coverage sets drift from the registry.

    Every registered algorithm must be claimed by exactly one of
    ``FAST_ALGORITHMS`` / ``VECTORIZED_ALGORITHMS`` /
    ``FAITHFUL_ONLY_ALGORITHMS`` (see :mod:`repro.core.engine`).  The
    contract linter checks the same partition statically; this runtime
    twin makes the drift impossible to import, not just impossible to
    merge.
    """
    coverage = (FAST_ALGORITHMS, VECTORIZED_ALGORITHMS, FAITHFUL_ONLY_ALGORITHMS)
    problems = []
    registered = set(ALGORITHMS)
    claimed: "set[str]" = set()
    for cover in coverage:
        overlap = claimed & cover
        if overlap:
            problems.append(f"claimed by multiple engine sets: {sorted(overlap)}")
        claimed |= cover
    missing = registered - claimed
    if missing:
        problems.append(f"in ALGORITHMS but no engine coverage set: {sorted(missing)}")
    stale = claimed - registered
    if stale:
        problems.append(f"in an engine coverage set but unregistered: {sorted(stale)}")
    if problems:
        raise ConfigError(
            "algorithm registry / engine coverage mismatch: " + "; ".join(problems)
        )


_check_registry_coverage()


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
    Kernels with fixed output conventions override ``sort_output``:
    ``heap``/``esc`` always return sorted rows; ``mkl_inspector``/``kokkos``
    always return unsorted rows.  The Heap kernel needs sorted B; the
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
    nnz(C)`` — no symbolic pass.
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
        order = batch_output_order(low, so)
        if order is not None and order == batch_output_order(high, so):
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
    """Route one (algorithm, engine) pair to its kernel (resolved inputs)."""
    if engine == "fast" and algorithm in FAST_ALGORITHMS:
        return batch_hash_spgemm(
            a, b, algorithm=algorithm, semiring=semiring,
            sort_output=sort_output, nthreads=nthreads, partition=partition,
            stats=stats, vector_bits=vector_bits, tracer=tracer,
        )

    if algorithm == "hash":
        return hash_spgemm(
            a, b, semiring=semiring, sort_output=sort_output,
            nthreads=nthreads, partition=partition, stats=stats,
            tracer=tracer,
        )
    if algorithm == "hashvec":
        return hash_vector_spgemm(
            a, b, semiring=semiring, sort_output=sort_output,
            nthreads=nthreads, partition=partition, stats=stats,
            vector_bits=vector_bits, tracer=tracer,
        )
    if algorithm == "heap":
        if b.sorted_rows:
            b_sorted = b
        elif tracer is None:
            b_sorted = b.sort_rows()
        else:
            with tracer.span("sort_b", phase="sort", reason="heap needs sorted B"):
                b_sorted = b.sort_rows()
        return heap_spgemm(
            a, b_sorted, semiring=semiring, sort_output=True,
            nthreads=nthreads, partition=partition, stats=stats,
            tracer=tracer,
        )
    if algorithm == "spa":
        return spa_spgemm(
            a, b, semiring=semiring, sort_output=sort_output,
            nthreads=nthreads, partition=partition, stats=stats,
            tracer=tracer,
        )
    if algorithm == "mkl":
        return mkl_proxy_spgemm(
            a, b, semiring=semiring, sort_output=sort_output,
            nthreads=nthreads, partition=partition, stats=stats,
        )
    if algorithm == "mkl_inspector":
        return mkl_inspector_spgemm(
            a, b, semiring=semiring,
            nthreads=nthreads, partition=partition, stats=stats,
        )
    if algorithm == "kokkos":
        return kokkos_proxy_spgemm(
            a, b, semiring=semiring,
            nthreads=nthreads, partition=partition, stats=stats,
        )
    if algorithm == "esc":
        return esc_spgemm(
            a, b, semiring=semiring, sort_output=True, stats=stats,
            tracer=tracer,
        )
    if algorithm == "blocked_spa":
        return blocked_spa_spgemm(
            a, b, semiring=semiring, sort_output=True,
            nthreads=nthreads, partition=partition, stats=stats,
        )
    if algorithm == "merge":
        b_sorted = b if b.sorted_rows else b.sort_rows()
        return merge_spgemm(
            a, b_sorted, semiring=semiring, sort_output=True,
            nthreads=nthreads, partition=partition, stats=stats,
        )
    raise AssertionError(f"registry/dispatch mismatch for {algorithm!r}")
