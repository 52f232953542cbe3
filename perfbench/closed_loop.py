"""Closed-loop runner shared by the ``oneshot`` and ``replay`` workloads.

One caller sends one op at a time.  Everything an op needs is prepared
before its timer starts and checked after it stops, so the timed region
holds exactly the calls a user of the library would make.  A run measures
until the timed op wall reaches ``seconds``.

An op is any object with:

* ``kind``      -- a short label;
* ``plain()``   -- the user's call, untraced; returns the result;
* ``traced(acc)`` -- the same work split into calls to each layer's
  public function, each in a bench span on ``acc.tracer``; returns the
  result;
* ``check(result)`` -- ``None`` or a failure message.
"""

from __future__ import annotations

import time
import traceback

from repro import KernelStats, Tracer

from common import (
    BENCH,
    bench_span,
    corrupt,
    layer_seconds,
    log,
    pct,
    peak_rss_mb,
    ratio,
    release_free_heap,
    reset_peak_rss,
)


class Accumulator:
    """What the traced ops fill: the tracer that holds the bench spans and
    the package's spans beneath them, one ``KernelStats`` per layer, and
    the numbers the package does not count itself."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.core = KernelStats()
        self.masked = KernelStats()
        self.core_bytes = 0
        #: A·A products checked against scipy, its time on them, and the
        #: untraced op wall of the same products
        self.products = 0
        self.scipy_s = 0.0
        self.product_wall_s = 0.0
        self.chain_flops: "list[int]" = []


def _attempt(fn):
    try:
        return fn(), None
    # The benchmark counts every exception an op raises as a failed op.
    except Exception as exc:  # noqa: BLE001
        return None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _check(op, result, err, inject: bool) -> "str | None":
    if err is not None:
        return err
    if inject:
        result = corrupt(result)
    return op.check(result)


def run_loop(ops, seconds: float, *, round_len: int, trace: bool,
             inject_fault: bool, cache=None):
    """Drive ``ops`` (an iterator) for ``seconds`` of timed op wall.

    Untraced, each op runs once.  Traced, each op runs twice on the same
    operands, untraced and traced, alternating which goes first so that
    neither copy always finds the caches warm.

    ``cache`` is the ``PlanCache`` the ops share, if any; its hit and miss
    counters over the loop are the plan layer's counts.

    Returns a dict with the latencies, op counts, the peak RSS (untraced;
    see :func:`_peak_rss`) and, when traced, the accumulator and the
    paired plain/traced walls.
    """
    res = {
        "latencies": [], "kinds": [], "attempted": 0, "failed": 0,
        "plain_wall": 0.0, "traced_wall": 0.0, "ops": 0,
        "acc": Accumulator(),
    }
    acc = res["acc"]

    def settle(op, result, err, copy: str) -> None:
        res["attempted"] += 1
        err = _check(op, result, err,
                     inject_fault and res["attempted"] == 1)
        if err is not None:
            res["failed"] += 1
            log(f"FAIL {op.kind} ({copy}): {err}")

    def call(op, window: bool) -> "tuple[float, float | None]":
        """The user's call, checked; returns its wall time and, in a
        peak-memory window, its ``VmHWM``."""
        if window:
            release_free_heap()
            reset_peak_rss()
        t0 = time.perf_counter()
        result, err = _attempt(op.plain)
        dt = time.perf_counter() - t0
        peak = peak_rss_mb() if window else None
        settle(op, result, err, "plain")
        return dt, peak

    def plain(op) -> float:
        dt, _ = call(op, False)
        res["plain_wall"] += dt
        res["latencies"].append(dt)
        res["kinds"].append(op.kind)
        return dt

    def traced(op) -> None:
        with bench_span(acc.tracer, "op", BENCH, op=res["ops"]) as span:
            result, err = _attempt(lambda: op.traced(acc))
        res["traced_wall"] += span.duration
        settle(op, result, err, "traced")

    lookups0 = (cache.hits, cache.misses) if cache is not None else (0, 0)
    release_free_heap()
    while res["plain_wall"] + res["traced_wall"] < seconds:
        op = next(ops)
        if not trace:
            plain(op)
        elif res["ops"] % 2:
            traced(op)
            dt = plain(op)
        else:
            dt = plain(op)
            traced(op)
        if trace and getattr(op, "scipy_s", None) is not None:
            acc.products += 1
            acc.scipy_s += op.scipy_s
            acc.product_wall_s += dt
        res["ops"] += 1
    if cache is not None:
        res["plan_hits"] = cache.hits - lookups0[0]
        res["plan_misses"] = cache.misses - lookups0[1]
    else:
        res["plan_hits"] = res["plan_misses"] = 0
    # Traced runs report no end-to-end metrics.
    if not trace:
        res["rss_mb"] = _peak_rss(ops, round_len, lambda op: call(op, True)[1])
    return res


#: Untimed rounds of the peak-memory pass.
MEM_ROUNDS = 5


def _peak_rss(ops, round_len: int, call) -> float:
    """Peak RSS of the user's calls, in MB, from a pass after the timed
    loop.

    Before each call, garbage is collected, the heap's free pages go back
    to the OS and ``VmHWM`` restarts from the current RSS; right after
    the call ``VmHWM`` is read.  Operand generation, the checks and
    earlier calls' cyclic garbage thus fall outside every window, and the
    timed calls keep the allocator state a user would see (trimming
    before them would add page faults to their time).  A round's peak is the largest reading of ``round_len``
    consecutive calls (every op class once); the pass reports the median
    of :data:`MEM_ROUNDS` rounds.  Where ``VmHWM`` cannot be reset, the
    process's whole-life peak is reported instead.
    """
    release_free_heap()
    if not reset_peak_rss():
        return peak_rss_mb()
    rounds = [
        max(call(next(ops)) for _ in range(round_len))
        for _ in range(MEM_ROUNDS)
    ]
    return pct(rounds, 50)


def layer_metrics(res: dict, rows) -> dict:
    """Per-layer metrics of a traced closed-loop run (see README) from the
    run's flattened spans."""
    acc: Accumulator = res["acc"]
    n = res["ops"]
    own = layer_seconds(rows)
    traced = res["traced_wall"]

    def per_op_ms(layer: str) -> float:
        return own.get(layer, 0.0) / n * 1e3

    core, masked = acc.core, acc.masked
    hits, misses = res["plan_hits"], res["plan_misses"]
    covered = sum(v for k, v in own.items() if k != "bench")
    return {
        "autotune.select_ms": per_op_ms("autotune"),
        "autotune.select_share": ratio(own.get("autotune", 0.0), traced),
        "core.kernel_ms": per_op_ms("core"),
        "core.symbolic_ms": core.symbolic_seconds / n * 1e3,
        "core.numeric_ms": core.numeric_seconds / n * 1e3,
        "core.sort_ms": core.sort_seconds / n * 1e3,
        "core.flops": core.flops / n,
        "core.output_nnz": core.output_nnz / n,
        "core.compression_ratio": ratio(core.flops, core.output_nnz),
        "core.collision_factor": core.collision_factor(),
        "core.mflops": ratio(2.0 * core.flops, own.get("core", 0.0)) / 1e6,
        "core.flop_per_byte": ratio(2.0 * core.flops, acc.core_bytes),
        "ref.scipy_ms": ratio(acc.scipy_s, acc.products) * 1e3,
        "core.vs_scipy": ratio(acc.scipy_s, acc.product_wall_s),
        "plan.lookup_ms": per_op_ms("plan.lookup"),
        "plan.inspect_ms": per_op_ms("plan.inspect"),
        "plan.execute_ms": per_op_ms("plan.execute"),
        "plan.hits": float(hits),
        "plan.misses": float(misses),
        "plan.hit_ratio": ratio(hits, hits + misses),
        "masked.inspect_ms": per_op_ms("masked.inspect"),
        "masked.execute_ms": per_op_ms("masked.execute"),
        "masked.kept_ratio": ratio(masked.masked_kept, masked.flops),
        "chain.plan_ms": per_op_ms("chain.plan"),
        "chain.exec_ms": per_op_ms("chain.exec"),
        "chain.stage_flops": ratio(sum(acc.chain_flops), len(acc.chain_flops)),
        "apps.triangle_prep_ms": per_op_ms("apps.prep"),
        "bench.fail_frac": ratio(res["failed"], res["attempted"]),
        "bench.trace_overhead": ratio(traced, res["plain_wall"]),
        "bench.trace_coverage": ratio(covered, traced),
    }


def latency_summary(res: dict) -> str:
    """Overall percentiles plus each op kind's median, for the log."""
    ms = [x * 1e3 for x in res["latencies"]]
    by_kind: "dict[str, list[float]]" = {}
    for kind, x in zip(res["kinds"], ms):
        by_kind.setdefault(kind, []).append(x)
    kinds = ", ".join(
        f"{k} {pct(v, 50):.1f}" for k, v in sorted(
            by_kind.items(), key=lambda kv: pct(kv[1], 50)
        )
    )
    return (f"{len(ms)} ops, p50 {pct(ms, 50):.2f} ms, "
            f"p90 {pct(ms, 90):.2f} ms; median ms by kind: {kinds}")


def matrix_bytes(*mats) -> int:
    """Bytes of the CSR arrays (indptr, indices, values) — computed, not
    measured traffic."""
    return sum(m.indptr.nbytes + m.indices.nbytes + m.data.nbytes for m in mats)
