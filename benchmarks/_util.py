"""Shared infrastructure for the figure-regeneration benchmark harness.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — run the paper's full parameter ranges (ER scale
  up to 20, G500 up to 17, suite at 60k rows).  The default ranges are
  scaled down to keep ``pytest benchmarks/`` in the minutes, with identical
  qualitative structure.
* ``REPRO_BENCH_MAX_N`` — override the proxy-suite dimension cap.

Every bench writes its rendered series to ``benchmarks/results/<name>.txt``
(and prints it, visible with ``pytest -s``), so the regenerated "figures"
persist after the run.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import time
from pathlib import Path

from repro.machine import HASWELL, KNL
from repro.perfmodel import ProblemQuantities, SimConfig, simulate_spgemm

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SUITE_MAX_N = int(
    os.environ.get("REPRO_BENCH_MAX_N", "60000" if FULL else "6000")
)

#: the nine code configurations of Figures 11/12 (paper legend order)
PAPER_CODES = (
    ("MKL", "mkl", True),
    ("Heap", "heap", True),
    ("Hash", "hash", True),
    ("HashVec", "hashvec", True),
    ("MKL (unsorted)", "mkl", False),
    ("MKL-inspector (unsorted)", "mkl_inspector", False),
    ("Kokkos (unsorted)", "kokkos", False),
    ("Hash (unsorted)", "hash", False),
    ("HashVec (unsorted)", "hashvec", False),
)

#: sorted-world codes of Figures 14(left)/17
SORTED_CODES = (
    ("MKL", "mkl"),
    ("Heap", "heap"),
    ("Hash", "hash"),
    ("HashVec", "hashvec"),
)

#: unsorted-world codes of Figure 14(right)
UNSORTED_CODES = (
    ("MKL", "mkl"),
    ("MKL-inspector", "mkl_inspector"),
    ("Kokkos", "kokkos"),
    ("Hash", "hash"),
    ("HashVec", "hashvec"),
)


def emit(name: str, text: str) -> None:
    """Print a rendered figure and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def time_call(fn, *args, warmup: int = 1, repeats: int = 3, **kwargs):
    """Best-of-N wall-clock timing with warmup.

    Runs ``fn(*args, **kwargs)`` ``warmup`` times untimed (JIT-free Python
    still benefits: allocator pools, branch caches, the engine's scratch
    arena), then ``repeats`` timed runs.  Returns ``(best_seconds,
    all_seconds, last_result)`` — best-of is the standard estimator for
    minimum-noise comparisons, and the full list is kept for the JSON
    record so variance stays inspectable across PRs.
    """
    if warmup < 0 or repeats < 1:
        raise ValueError("warmup must be >= 0 and repeats >= 1")
    for _ in range(warmup):
        fn(*args, **kwargs)
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        samples.append(time.perf_counter() - t0)
    return min(samples), samples, result


def time_call_traced(fn, *args, warmup: int = 1, repeats: int = 3, **kwargs):
    """Paired untraced/traced timing for the phase-breakdown benches.

    Runs ``fn(*args, **kwargs)`` in *interleaved* untraced/traced rounds
    (so ambient drift — GC pressure, cache state — hits both sides alike)
    and takes best-of-N on each side, keeping the tracer of the fastest
    traced run.  ``REPRO_TRACE`` is masked for the duration so the env
    tracer cannot contaminate the untraced baseline.  Returns
    ``(untraced_best, traced_best, tracer_of_best)``.
    """
    from repro.observability import Tracer

    if warmup < 0 or repeats < 1:
        raise ValueError("warmup must be >= 0 and repeats >= 1")
    saved = os.environ.pop("REPRO_TRACE", None)
    try:
        for _ in range(warmup):
            fn(*args, **kwargs)
        untraced_best = traced_best = None
        best_tracer = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            if untraced_best is None or elapsed < untraced_best:
                untraced_best = elapsed
            tracer = Tracer()
            t0 = time.perf_counter()
            fn(*args, tracer=tracer, **kwargs)
            elapsed = time.perf_counter() - t0
            if traced_best is None or elapsed < traced_best:
                traced_best, best_tracer = elapsed, tracer
        return untraced_best, traced_best, best_tracer
    finally:
        if saved is not None:
            os.environ["REPRO_TRACE"] = saved


@functools.lru_cache(maxsize=1)
def lint_status() -> "tuple[tuple[str, object], ...]":
    """Contract-linter verdict on ``src/repro`` at benchmark time.

    Benchmark numbers from a tree that violates its own registration or
    accumulation-order contracts are not comparable to numbers from a clean
    tree, so every JSON record carries the verdict.  Cached: one lint pass
    per benchmark session.  Returned as a tuple of items (lru_cache needs a
    hashable value); callers ``dict(...)`` it.
    """
    repo_root = Path(__file__).resolve().parent.parent
    src = repo_root / "src" / "repro"
    try:
        from repro.analysis import analyze_paths

        result = analyze_paths([str(src)], root=str(repo_root))
    except Exception as exc:  # repro-lint: disable=overbroad-except — never let linting break a benchmark run
        return (("clean", False), ("error", f"{type(exc).__name__}: {exc}"))
    return (
        ("clean", result.clean),
        ("findings", len(result.findings)),
        ("suppressed", len(result.suppressed)),
        ("files_scanned", result.files_scanned),
    )


def record_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark record as ``<name>.json``.

    The record is annotated with timestamp, interpreter/platform info and
    the contract-linter verdict (see :func:`lint_status`) so the perf
    trajectory is comparable across PRs.  Records land in
    ``benchmarks/results/``, their one home.
    """
    record = dict(payload)
    record.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    record.setdefault("python", platform.python_version())
    record.setdefault("platform", platform.platform())
    record.setdefault("lint", dict(lint_status()))
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(text)
    return path


def simulate_codes(q: ProblemQuantities, machine, codes=PAPER_CODES, **cfg_kw):
    """MFLOPS of each (label, algorithm, sorted) code on one problem."""
    out = {}
    for entry in codes:
        if len(entry) == 3:
            label, alg, sort = entry
        else:
            label, alg = entry
            sort = cfg_kw.get("sort_output", True)
        config = SimConfig(machine=machine, sort_output=sort, **{
            k: v for k, v in cfg_kw.items() if k != "sort_output"
        })
        out[label] = simulate_spgemm(alg, config=config, quantities=q).mflops
    return out


@functools.lru_cache(maxsize=None)
def suite_quantities(max_n: int = SUITE_MAX_N):
    """ProblemQuantities of squaring every proxy matrix (cached: shared by
    the Fig. 14 / Fig. 15 / Table 4 / speedup benches)."""
    from repro.datasets import load_suite

    out = {}
    for name, m in load_suite(max_n=max_n).items():
        out[name] = ProblemQuantities.compute(m, m)
    return out


@functools.lru_cache(maxsize=None)
def suite_times(machine_name: str, sort_output: bool, max_n: int = SUITE_MAX_N):
    """Simulated times of every code on every suite matrix.

    Returns ``{code_label: {matrix: seconds}}`` for the Dolan-Moré profile
    and harmonic-speedup benches.
    """
    machine = {"KNL": KNL, "Haswell": HASWELL}[machine_name]
    codes = SORTED_CODES if sort_output else UNSORTED_CODES
    times: "dict[str, dict[str, float]]" = {label: {} for label, _ in codes}
    for name, q in suite_quantities(max_n).items():
        for label, alg in codes:
            cfg = SimConfig(machine=machine, sort_output=sort_output)
            times[label][name] = simulate_spgemm(
                alg, config=cfg, quantities=q
            ).seconds
    return times
