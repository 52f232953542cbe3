"""repro — high-performance SpGEMM on KNL/multicore, reproduced in Python.

A faithful, laptop-runnable reproduction of

    Nagasaka, Matsuoka, Azad, Buluç:
    "High-Performance Sparse Matrix-Matrix Products on Intel KNL and
    Multicore Architectures", ICPP 2018 (arXiv:1804.01698).

Public surface (see README for a tour):

* :func:`repro.spgemm` — one-call SpGEMM with selectable algorithm
  (hash / hashvec / heap / spa / mkl / mkl_inspector / kokkos / esc) and
  semiring, over :class:`repro.CSR` matrices; configuration canonicalizes
  into frozen :class:`repro.SpgemmOptions` / :class:`repro.ChainOptions`
  values shared by every entry point (``multiply_chain`` and
  ``masked_spgemm`` accept the same shape); fresh batched products run
  their rows as flop-balanced parts on real threads
  (:mod:`repro.core.threads`, ``docs/concurrency.md``);
* :class:`repro.SpgemmPlan` / :class:`repro.PlanCache` — the
  inspector–executor plan layer: pay structure discovery once, replay it
  numeric-only on every same-structure product (``docs/plans.md``);
* :func:`repro.multiply_chain` / :func:`repro.masked_spgemm` — chain and
  masked products with streamed sandwich fusion, so R·A·P never
  materializes an intermediate (``docs/fusion.md``);
* :mod:`repro.serve` — SpGEMM-as-a-service: a multi-tenant asyncio server
  on the ``repro-job/1`` wire schema, with admission control, shared plan
  cache and a metrics endpoint (``docs/serving.md``);
* :mod:`repro.rmat` — ER / G500 synthetic matrix generation;
* :mod:`repro.machine` + :mod:`repro.perfmodel` — the KNL/Haswell machine
  model and the operation-level performance simulator that regenerates the
  paper's figures;
* :mod:`repro.datasets` — proxies for the SuiteSparse suite of Table 2;
* :mod:`repro.apps` — SpGEMM-powered graph algorithms (multi-source BFS,
  triangle counting, Markov clustering);
* :mod:`repro.profiling` — Dolan–Moré performance profiles and speedup
  statistics;
* :mod:`repro.observability` — phase-level span tracing across every
  kernel (enable with ``tracer=`` or ``REPRO_TRACE=1``; see
  ``docs/observability.md``);
* :mod:`repro.analysis` — the project's own static analyzers (layering,
  race, span-discipline, hot-loop allocation and dataflow checkers) with
  SARIF output: ``python -m repro.analysis src/repro``.
"""

from .errors import (
    ConfigError,
    DatasetError,
    FormatError,
    PlanError,
    ReproError,
    ServeError,
    ShapeError,
)
from .matrix import CSR, COO
from .matrix.construct import (
    csr_from_coo,
    csr_from_dense,
    csr_from_scipy,
    identity,
    random_csr,
)
from .matrix.stats import compression_ratio, matrix_stats
from .semiring import (
    MAX_TIMES,
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    Semiring,
    get_semiring,
)
from .core import (
    ChainOptions,
    ChainPlan,
    KernelStats,
    MaskedSpgemmPlan,
    PlanCache,
    SpgemmOptions,
    SpgemmPlan,
    options_from_wire,
    available_algorithms,
    available_engines,
    inspect,
    inspect_masked,
    masked_spgemm,
    multiply_chain,
    plan_chain,
    recommend,
    rows_to_threads,
    spgemm,
)
from .observability import (
    Span,
    Tracer,
    json_trace,
    phase_breakdown,
    render_breakdown,
    render_tree,
    tracer_from_env,
)
from .autotune import (
    CalibrationProfile,
    active_profile,
    load_profile,
    recommend_calibrated,
    run_calibration,
    set_active_profile,
)
from .serve import Client, ServeOptions, Server, serve_in_thread, submit_job

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "ConfigError",
    "DatasetError",
    "CSR",
    "COO",
    "csr_from_coo",
    "csr_from_dense",
    "csr_from_scipy",
    "identity",
    "random_csr",
    "compression_ratio",
    "matrix_stats",
    "Semiring",
    "get_semiring",
    "PLUS_TIMES",
    "OR_AND",
    "MIN_PLUS",
    "MAX_TIMES",
    "spgemm",
    "SpgemmOptions",
    "ChainOptions",
    "options_from_wire",
    "SpgemmPlan",
    "MaskedSpgemmPlan",
    "PlanCache",
    "PlanError",
    "inspect",
    "inspect_masked",
    "masked_spgemm",
    "multiply_chain",
    "plan_chain",
    "ChainPlan",
    "available_algorithms",
    "available_engines",
    "recommend",
    "recommend_calibrated",
    "CalibrationProfile",
    "run_calibration",
    "load_profile",
    "active_profile",
    "set_active_profile",
    "rows_to_threads",
    "KernelStats",
    "Tracer",
    "Span",
    "tracer_from_env",
    "json_trace",
    "render_tree",
    "render_breakdown",
    "phase_breakdown",
    "Server",
    "Client",
    "submit_job",
    "ServeOptions",
    "serve_in_thread",
    "ServeError",
    "__version__",
]
