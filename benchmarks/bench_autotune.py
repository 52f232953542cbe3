"""Calibrated selector vs the static Table-4 recipe.

Writes ``benchmarks/results/BENCH_autotune.json``.

The static recipe transplants the paper's Table 4 verbatim — including
its faith in the MKL-inspector proxy for unsorted high-CR products, which
on *this* interpreter is often not where the fast engine's wins are.  The
autotuner replaces that table with measurement: a calibration pass fits
per-algorithm cost curves on this host (``python -m repro calibrate``),
and the online refinement loop then corrects the curves from observed
production traffic until repeated-structure workloads converge on the
true winner.

This bench exercises the full loop the way a serve deployment would see
it: calibrate, run a few passes of ``algorithm="auto"`` traffic over the
Table-2 proxy suite (each multiply feeding its measured wall time back
through the refiner), and finally time the verdicts of both selectors
for real.

Acceptance gate (ISSUE 9): the calibrated selector must beat the static
recipe in aggregate — ``totals.calibrated_seconds <= totals.static_seconds``.
"""

import os

from _util import SUITE_MAX_N, record_json, time_call
from repro import recommend, recommend_calibrated, run_calibration, spgemm
from repro.autotune import resolve_auto
from repro.core.engine import resolve_engine
from repro.datasets import load_suite

#: Calibration grid scale (2**scale rows per generated problem).
DEFAULT_AUTOTUNE_SCALE = 10
AUTOTUNE_SCALE = int(
    os.environ.get("REPRO_BENCH_AUTOTUNE_SCALE", str(DEFAULT_AUTOTUNE_SCALE))
)

#: Proxy-suite dimension cap for the comparison jobs.
AUTOTUNE_MAX_N = int(
    os.environ.get("REPRO_BENCH_AUTOTUNE_MAX_N", str(SUITE_MAX_N))
)

#: Upper bound on refinement warm-up passes (stops early once the
#: selector's verdicts stop changing between passes).
REFINE_PASSES = int(os.environ.get("REPRO_BENCH_AUTOTUNE_PASSES", "3"))

#: A grid or suite below its default makes the run a smoke run.
REDUCED = AUTOTUNE_SCALE < DEFAULT_AUTOTUNE_SCALE or AUTOTUNE_MAX_N < SUITE_MAX_N


def _timed(m, algorithm, sort_output):
    """Best-of wall seconds of one verdict, sized to the engine it gets.

    Kernels the batched engine covers are cheap enough for best-of-2 with
    warmup; faithful-only verdicts (e.g. the static recipe's
    MKL-inspector cells) already take seconds per call, so they run
    single-shot.
    """
    if resolve_engine("fast", algorithm) == "fast":
        warmup, repeats = 1, 2
    else:
        warmup, repeats = 0, 1
    best, _, _ = time_call(
        spgemm, m, m, algorithm=algorithm, engine="fast",
        sort_output=sort_output, warmup=warmup, repeats=repeats,
    )
    return best


def _refine(profile, jobs):
    """Run ``algorithm="auto"`` traffic until the verdicts stabilize.

    Each pass resolves every job through the calibrated selector and
    feeds the measured wall seconds of the chosen kernel back into the
    profile's online refiner — exactly what production ``auto`` traffic
    does.  Returns the per-pass verdict history.
    """
    import time as _time

    history = []
    previous = None
    for _ in range(REFINE_PASSES):
        verdicts = {}
        for name, m, sort_output in jobs:
            algorithm, observe = resolve_auto(
                m, m, sort_output=sort_output, profile=profile
            )
            t0 = _time.perf_counter()
            spgemm(
                m, m, algorithm=algorithm, engine="fast",
                sort_output=sort_output,
            )
            observe(_time.perf_counter() - t0)
            verdicts[(name, sort_output)] = algorithm
        history.append(verdicts)
        if verdicts == previous:
            break
        previous = verdicts
    return history


def test_autotune_record():
    profile = run_calibration(
        scale=AUTOTUNE_SCALE, repeats=1, engine="fast", nthreads=1
    )
    suite = load_suite(max_n=AUTOTUNE_MAX_N)
    jobs = [
        (name, m, sort_output)
        for name, m in sorted(suite.items())
        for sort_output in (True, False)
    ]

    history = _refine(profile, jobs)

    records = []
    static_total = calibrated_total = 0.0
    agreements = 0
    for name, m, sort_output in jobs:
        d_static = recommend(m, sort_output=sort_output)
        d_cal = recommend_calibrated(
            m, sort_output=sort_output, profile=profile
        )
        t_static = _timed(m, d_static.algorithm, sort_output)
        if d_cal.algorithm == d_static.algorithm:
            t_cal = t_static
            agreements += 1
        else:
            t_cal = _timed(m, d_cal.algorithm, sort_output)
        static_total += t_static
        calibrated_total += t_cal
        records.append({
            "matrix": name,
            "n": m.nrows,
            "nnz": m.nnz,
            "sort_output": sort_output,
            "static_algorithm": d_static.algorithm,
            "static_seconds": t_static,
            "calibrated_algorithm": d_cal.algorithm,
            "calibrated_seconds": t_cal,
        })

    speedup = static_total / calibrated_total if calibrated_total else 1.0
    record_json(
        "BENCH_autotune",
        {
            "description": (
                "aggregate wall seconds of following each selector's "
                "verdict over the Table-2 proxy suite (engine='fast'), "
                "after calibration + online refinement warm-up"
            ),
            "calibration": {
                "scale": AUTOTUNE_SCALE,
                "machine": profile.machine,
                "engine": profile.engine,
                "grid_problems": profile.grid["problems"],
                "curves": {
                    alg: {
                        "coefficients": list(curve.coefficients),
                        "rmse_seconds": curve.rmse_seconds,
                        "samples": curve.samples,
                    }
                    for alg, curve in sorted(profile.curves.items())
                },
            },
            "refinement": {
                "passes": len(history),
                "observations": profile.refiner.observations(),
                "verdict_changes_per_pass": [
                    sum(
                        1 for k in cur
                        if prev is not None and cur[k] != prev[k]
                    )
                    for prev, cur in zip([None] + history[:-1], history)
                ],
            },
            "suite_max_n": AUTOTUNE_MAX_N,
            "jobs": records,
            "totals": {
                "static_seconds": static_total,
                "calibrated_seconds": calibrated_total,
                "speedup": speedup,
                "jobs": len(records),
                "agreements": agreements,
            },
        },
        reduced=REDUCED,
    )
    print(
        f"\nautotune: static {static_total:.3f}s vs calibrated "
        f"{calibrated_total:.3f}s over {len(records)} jobs "
        f"({agreements} agreements, {len(history)} refinement passes) "
        f"-> {speedup:.2f}x"
    )
    # ISSUE 9 acceptance gate: calibrated advice must win in aggregate.
    assert calibrated_total <= static_total


if __name__ == "__main__":
    test_autotune_record()
