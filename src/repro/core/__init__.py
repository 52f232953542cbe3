"""The paper's primary contribution: optimized row-wise SpGEMM kernels.

Executable algorithms (all validated against a dense oracle):

* :mod:`repro.core.hash_spgemm` — two-phase hash-table SpGEMM (§4.2.1);
* :mod:`repro.core.hash_vector` — vector-register (chunked) hash probing
  (§4.2.2);
* :mod:`repro.core.heap_spgemm` — one-phase heap (k-way merge) SpGEMM
  (§4.2.3);
* :mod:`repro.core.spa_spgemm` — Gustavson dense sparse-accumulator SpGEMM;
* :mod:`repro.core.mkl_like` — behavioural proxies for Intel MKL and
  MKL-inspector (closed-source baselines of the paper);
* :mod:`repro.core.kokkos_like` — behavioural proxy for KokkosKernels'
  two-level hashmap (`kkmem`);
* :mod:`repro.core.esc_spgemm` — fully vectorized expand-sort-compress
  SpGEMM used as the fast oracle at scale: the ``"esc"`` order of the
  batched block loop (:mod:`repro.core.hash_batch`), which every batched
  kernel shares.

Shared machinery:

* :mod:`repro.core.scheduler` — the paper's light-weight load-balanced
  thread assignment (Fig. 6) plus static/dynamic/guided models;
* :mod:`repro.core.threads` — the one real parallel tier: a product's
  rows as flop-balanced parts on a shared thread executor, each part in
  its thread's scratch arena;
* :mod:`repro.core.symbolic` — vectorized symbolic phase (exact per-row
  ``nnz(C)``) and expansion helpers;
* :mod:`repro.core.accumulators` — reusable hash-table / heap / SPA
  accumulator objects with operation instrumentation;
* :mod:`repro.core.spgemm` — uniform entry point and algorithm registry
  (Table 1);
* :mod:`repro.core.recipe` — the Table-4 recipe and the Eq. (1)/(2) cost
  formulas behind it.
"""

from .spgemm import (
    ALGORITHMS,
    AlgorithmInfo,
    available_algorithms,
    available_engines,
    spgemm,
)
from .engine import ENGINES, EngineInfo, ScratchArena, get_thread_arena
from .hash_batch import batch_hash_spgemm
from .options import ChainOptions, SpgemmOptions, options_from_wire
from .plan import (
    MaskedSpgemmPlan,
    PlanCache,
    SpgemmPlan,
    inspect,
    inspect_masked,
    structure_fingerprint,
)
from .scheduler import (
    ThreadPartition,
    rows_to_threads,
    static_partition,
    dynamic_assignment,
    guided_assignment,
    lowbnd,
)
from .symbolic import symbolic_row_nnz, expand_rows
from .chain import ChainPlan, StagePlan, multiply_chain, plan_chain
from .masked import masked_spgemm
from .recipe import recommend, RecipeDecision, heap_cost_model, hash_cost_model
from .instrument import KernelStats

__all__ = [
    "ALGORITHMS",
    "AlgorithmInfo",
    "available_algorithms",
    "available_engines",
    "ENGINES",
    "EngineInfo",
    "ScratchArena",
    "get_thread_arena",
    "batch_hash_spgemm",
    "spgemm",
    "SpgemmOptions",
    "ChainOptions",
    "options_from_wire",
    "SpgemmPlan",
    "MaskedSpgemmPlan",
    "PlanCache",
    "inspect",
    "inspect_masked",
    "structure_fingerprint",
    "ThreadPartition",
    "rows_to_threads",
    "static_partition",
    "dynamic_assignment",
    "guided_assignment",
    "lowbnd",
    "symbolic_row_nnz",
    "expand_rows",
    "ChainPlan",
    "StagePlan",
    "multiply_chain",
    "plan_chain",
    "masked_spgemm",
    "recommend",
    "RecipeDecision",
    "heap_cost_model",
    "hash_cost_model",
    "KernelStats",
]
