"""Amortized inspector–executor speedup.

Writes ``benchmarks/results/BENCH_plan.json``.

The plan layer's bargain is MKL-inspector's (§4.1, Table 3): pay the
symbolic phase once, replay numeric-only while the sparsity pattern holds.
This bench measures, on this machine, what that buys per kernel/engine:

* ``fresh_seconds`` — one full ``spgemm`` call (symbolic + numeric + sort);
* ``inspect_seconds`` — one :func:`repro.core.plan.inspect`;
* ``execute_seconds`` — one :meth:`SpgemmPlan.execute` (numeric-only);
* ``speedup_at[k]`` — ``fresh / ((inspect + k * execute) / k)``, the
  amortized per-product gain after ``k`` repeated executions.

The batched engine's execute skips the coordinate sort entirely (the
dominant fresh-call cost), so its curve saturates high; the faithful
engine's execute skips only the scalar symbolic pass, bounding it near 2x.
Every executed product is asserted bit-identical to its fresh counterpart.
"""

import os

import numpy as np

from _util import record_json, time_call
from repro import spgemm
from repro.core.plan import PlanCache, inspect as inspect_plan
from repro.rmat import er_matrix

EDGE_FACTOR = 8

#: Matrix scale for the plan-reuse record (the ISSUE's acceptance bar is a
#: >= 2x amortized hash-family speedup at k >= 8 on scale >= 14; CI smoke
#: runs use a smaller scale via this knob).
DEFAULT_PLAN_SCALE = 14
PLAN_SCALE = int(os.environ.get("REPRO_BENCH_PLAN_SCALE", str(DEFAULT_PLAN_SCALE)))

REPEAT_COUNTS = (1, 2, 4, 8, 16, 32, 64)

#: (algorithm, engine, warmup, repeats) — the scalar faithful kernels get
#: single-shot timing (one call is already seconds at scale 14), the
#: vectorized paths get best-of-3.
CODES = (
    ("hash", "faithful", 0, 1),
    ("hash", "fast", 1, 3),
    ("hashvec", "fast", 1, 3),
    ("spa", "fast", 1, 3),
    ("esc", "fast", 1, 3),
)


def _assert_bit_identical(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def test_plan_reuse_record():
    """Fresh vs inspect-once/execute-k for every plan-capable code path."""
    m = er_matrix(PLAN_SCALE, EDGE_FACTOR, seed=1)
    entries = []
    out_nnz = 0
    for algorithm, engine, warmup, repeats in CODES:
        fresh_s, fresh_all, fresh_c = time_call(
            spgemm, m, m, algorithm=algorithm, engine=engine,
            warmup=warmup, repeats=repeats,
        )
        t_inspect, _, plan = time_call(
            inspect_plan, m, m, algorithm=algorithm, engine=engine,
            warmup=0, repeats=1,
        )
        exec_s, exec_all, exec_c = time_call(
            plan.execute, m, m, warmup=warmup, repeats=repeats,
        )
        _assert_bit_identical(exec_c, fresh_c)
        out_nnz = fresh_c.nnz
        speedup_at = {
            k: fresh_s / ((t_inspect + k * exec_s) / k) for k in REPEAT_COUNTS
        }
        entries.append(
            {
                "algorithm": algorithm,
                "engine": engine,
                "mode": plan.mode,
                "fresh_seconds": fresh_s,
                "fresh_samples": fresh_all,
                "inspect_seconds": t_inspect,
                "execute_seconds": exec_s,
                "execute_samples": exec_all,
                "speedup_at": speedup_at,
                "bit_identical": True,
            }
        )

    # The cache path adds only a fingerprint + dict probe per hit.
    cache = PlanCache()
    for _ in range(4):
        spgemm(m, m, algorithm="hash", engine="fast", plan_cache=cache)
    assert (cache.misses, cache.hits) == (1, 3)

    record_json(
        "BENCH_plan",
        {
            "benchmark": "spgemm plan reuse: fresh vs inspect-once/execute-k",
            "matrix": f"er(scale={PLAN_SCALE}, edge_factor={EDGE_FACTOR})",
            "nrows": m.nrows,
            "nnz": m.nnz,
            "output_nnz": out_nnz,
            "repeat_counts": list(REPEAT_COUNTS),
            "entries": entries,
            "cache_probe": {"misses": cache.misses, "hits": cache.hits},
        },
        reduced=PLAN_SCALE < DEFAULT_PLAN_SCALE,
    )
    if PLAN_SCALE >= 14:
        for algorithm in ("hash", "hashvec"):
            best = max(
                e["speedup_at"][8] for e in entries if e["algorithm"] == algorithm
            )
            assert best >= 2.0, (
                f"{algorithm} amortized speedup {best:.2f}x at k=8 "
                "below the 2x bar"
            )
