"""Shared pieces of the benchmark: statistics, memory, spans, checks."""

from __future__ import annotations

import ctypes
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro import CSR, Span

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Relative tolerance of the value comparison against ``scipy.sparse``.
#: Operand values are positive, so no entry cancels and the only
#: difference is summation order.
RTOL = 1e-9

E2E_UNITS = {
    "goodput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric, with its unit, in print order.  A workload that
#: does not exercise a layer reports 0 for it.
LAYER_UNITS = {
    "autotune.select_ms": "ms",
    "autotune.select_share": "ratio",
    "core.kernel_ms": "ms",
    "core.symbolic_ms": "ms",
    "core.numeric_ms": "ms",
    "core.sort_ms": "ms",
    "core.flops": "count",
    "core.output_nnz": "count",
    "core.compression_ratio": "ratio",
    "core.collision_factor": "ratio",
    "core.mflops": "MFLOP/s",
    "core.flop_per_byte": "flop/B-computed",
    "ref.scipy_ms": "ms",
    "core.vs_scipy": "ratio",
    "plan.lookup_ms": "ms",
    "plan.inspect_ms": "ms",
    "plan.execute_ms": "ms",
    "plan.hits": "count",
    "plan.misses": "count",
    "plan.hit_ratio": "ratio",
    "masked.inspect_ms": "ms",
    "masked.execute_ms": "ms",
    "masked.kept_ratio": "ratio",
    "chain.plan_ms": "ms",
    "chain.exec_ms": "ms",
    "chain.stage_flops": "count",
    "apps.triangle_prep_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.wait_p50_ms": "ms",
    "serve.wait_p90_ms": "ms",
    "serve.server_latency_p50_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.bytes_in": "B/op",
    "serve.bytes_out": "B/op",
    "serve.plan_hit_ratio": "ratio",
    "serve.deadline_exceeded": "count",
    "serve.rejected": "count",
    "loadgen.lag_p90_ms": "ms",
    "bench.fail_frac": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.trace_coverage": "ratio",
    "repo.src_lines": "lines",
}


class InvalidRun(Exception):
    """The run cannot produce trustworthy numbers (reported, not printed)."""


# --------------------------------------------------------------------------
# statistics and process facts
# --------------------------------------------------------------------------

def pct(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise InvalidRun(f"no VmHWM line in /proc/{pid}/status")


def src_lines(root: Path) -> int:
    """Line count of the package's Python sources."""
    return sum(
        len(p.read_bytes().splitlines())
        for p in sorted((root / "src" / "repro").rglob("*.py"))
    )


def timed_setup(build):
    """Run ``build()`` :data:`SETUP_REPEATS` times; keep the last state.

    Returns ``(state, median_seconds)``.
    """
    state = None
    times = []
    for _ in range(SETUP_REPEATS):
        state = None
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return state, float(np.median(times))


def release_free_heap() -> None:
    """Collect garbage and return the heap's free pages to the OS (glibc
    ``malloc_trim``), so that memory freed earlier but kept by the
    allocator, or held only by reference cycles, is not resident when a
    peak-memory window opens.  The trim is skipped where the C library
    has no ``malloc_trim``."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass


def reset_peak_rss(pid: "int | str" = "self") -> bool:
    """Restart ``VmHWM`` from the current RSS; False where not permitted."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def e2e_metrics(latencies_s, ok_ops: int, wall_s: float, setup_s: float,
                rss_mb: float) -> dict:
    lat_ms = [x * 1e3 for x in latencies_s]
    return {
        "goodput_ops_s": ok_ops / wall_s,
        "latency_p50_ms": pct(lat_ms, 50),
        "latency_p90_ms": pct(lat_ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

#: Phase of the benchmark's own spans.  They open on the package's public
#: ``Tracer`` around each call into a layer, carry that layer in their
#: ``meta``, and the package's own spans nest beneath them.  The root span
#: of each op also carries the op id.
BENCH = "bench"


def bench_span(tracer, name: str, layer: str, **meta):
    """``with bench_span(tracer, "spgemm", "core"):`` around one call."""
    return tracer.span(name, BENCH, layer=layer, **meta)


def recorded_span(name: str, layer: str, start: float, end: float,
                  **meta) -> Span:
    """A bench span timed from timestamps taken elsewhere."""
    span = Span(name, BENCH, layer=layer, **meta)
    span.t0, span.duration = start, end - start
    return span


def span_layer(span, inherited: str) -> str:
    """Layer a span's self time counts in.

    A bench span names its layer.  Of the package's own spans,
    ``plan.inspect``/``plan.execute`` of masked plans belong to the masked
    layer.  A fresh ``masked_spgemm`` is inline inspection (its structure
    phases and self time) plus execution (its numeric phase).  The degree
    reorder and triangular split of ``count_triangles`` are the triangle
    preprocessing.  A plain ``spgemm`` outside a plan, masked product or
    chain is the core kernel.  Everything inside a chain, its stage
    products included, stays in the chain layer.  Every other span
    inherits its parent's layer.
    """
    if span.phase == BENCH:
        return span.meta["layer"]
    if inherited.startswith("chain."):
        return inherited
    name = span.name
    masked = span.meta.get("algorithm") == "masked"
    if name == "plan.inspect":
        return "masked.inspect" if masked else "plan.inspect"
    if name == "plan.execute":
        return "masked.execute" if masked else "plan.execute"
    if name == "masked_spgemm":
        return "masked.inspect"
    if inherited == "masked.inspect" and span.phase == "numeric":
        return "masked.execute"
    if name in ("reorder", "split"):
        return "apps.prep"
    if name == "spgemm" and not inherited.startswith(("plan.", "masked.")):
        return "core"
    return inherited


def flatten_spans(roots) -> "list[dict]":
    """Every span of the trees ``roots`` as a record: name, layer, start,
    end, parent (record index), op id and self seconds.  Spans recorded
    after the fact carry no start; they are placed at their parent's
    start."""
    rows: "list[dict]" = []

    def visit(span, parent, op, inherited: str) -> None:
        layer = span_layer(span, inherited)
        if span.phase == BENCH:
            op = span.meta.get("op", op)
        start = span.t0 or (rows[parent]["start"] if parent is not None else 0.0)
        rows.append({
            "name": span.name, "layer": layer, "start": start,
            "end": start + span.duration, "parent": parent, "op": op,
            "self": span.exclusive_seconds(),
        })
        me = len(rows) - 1
        for child in span.children:
            visit(child, me, op, layer)

    for root in roots:
        visit(root, None, None, BENCH)
    return rows


def layer_seconds(rows) -> "dict[str, float]":
    """Per-layer self time of :func:`flatten_spans` records."""
    out: "dict[str, float]" = {}
    for row in rows:
        out[row["layer"]] = out.get(row["layer"], 0.0) + row["self"]
    return out


def dump_spans(rows, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# --------------------------------------------------------------------------
# result checks
# --------------------------------------------------------------------------

def to_scipy(m) -> sp.csr_matrix:
    """Canonical (row-sorted) scipy copy of a CSR result."""
    out = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape, copy=True)
    out.sort_indices()
    return out


def scipy_reference(operands, *, masked: bool = False) -> sp.csr_matrix:
    """The independent result: the chain product of ``operands`` with
    ``scipy.sparse``, or ``(A @ B) .* pattern(M)`` for ``masked``."""
    m = [x.to_scipy() for x in operands]
    if masked:
        return (m[0] @ m[1]).multiply(m[2].astype(bool)).tocsr()
    out = m[0]
    for x in m[1:]:
        out = out @ x
    return out


def check_close(c, ref: sp.csr_matrix) -> "str | None":
    """Equal structure and ``allclose`` values against a scipy reference."""
    if tuple(c.shape) != tuple(ref.shape):
        return f"shape {c.shape} != {ref.shape}"
    got = to_scipy(c)
    ref = ref.tocsr()
    ref.sort_indices()
    if not (np.array_equal(got.indptr, ref.indptr)
            and np.array_equal(got.indices, ref.indices)):
        return f"structure differs from scipy (nnz {got.nnz} vs {ref.nnz})"
    if not np.allclose(got.data, ref.data, rtol=RTOL, atol=0.0):
        return "values differ from scipy beyond rtol"
    return None


def check_bits(c, expect_indptr, expect_indices, expect_data) -> "str | None":
    """Bit-identity against a fresh in-process result."""
    if not (np.array_equal(c.indptr, expect_indptr)
            and np.array_equal(c.indices, expect_indices)):
        return "structure differs from the fresh in-process result"
    if not np.array_equal(
        np.asarray(c.data, dtype=np.float64).view(np.int64),
        np.asarray(expect_data, dtype=np.float64).view(np.int64),
    ):
        return "values are not bit-identical to the fresh in-process result"
    return None


def corrupt(c):
    """A copy of ``c`` with one value changed (the smoke test's fault)."""
    data = np.array(c.data, copy=True)
    if len(data):
        data[len(data) // 2] += 1.0
    return CSR(c.shape, c.indptr, c.indices, data, sorted_rows=c.sorted_rows)


def out_dir(root: Path) -> Path:
    return root / "perfbench" / "out"


def log(msg: str) -> None:
    """Progress goes to stderr; stdout carries only the metric lines."""
    print(msg, file=sys.stderr, flush=True)
