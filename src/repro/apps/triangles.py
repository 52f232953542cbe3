"""Triangle counting via SpGEMM (§5.6; Azad, Buluç, Gilbert 2015).

The paper's pipeline: reorder the adjacency matrix by increasing degree,
split ``A = L + U`` (strictly lower/upper triangular), compute the wedge
matrix ``B = L·U`` — the SpGEMM this paper benchmarks — then mask with A:
every triangle ``{a < b < c}`` (in the reordered numbering) appears as the
wedge ``b–a–c`` counted at positions ``(b, c)`` and ``(c, b)``, so

    #triangles = sum(A .* (L U)) / 2.

Degree reordering minimizes ``flop(L·U)`` by making the wedge middle the
lowest-degree vertex — the preprocessing §5.6 applies "for optimal
performance".
"""

from __future__ import annotations

import numpy as np

from ..core.masked import masked_spgemm
from ..core.spgemm import spgemm
from ..errors import ShapeError
from ..matrix.csr import CSR
from ..matrix.ops import (
    degree_reorder,
    elementwise_multiply,
    pattern,
    triangular_split,
)
from ..observability import NULL_TRACER
from ..semiring import PLUS_TIMES

__all__ = ["count_triangles", "triangle_counts_per_vertex"]


def count_triangles(
    adjacency: CSR,
    *,
    algorithm: str = "hash",
    engine: str = "faithful",
    reorder: bool = True,
    masked: bool = True,
    plan_cache=None,
    stats=None,
    tracer=None,
) -> int:
    """Count triangles of an undirected graph given its adjacency matrix.

    ``adjacency`` must be structurally symmetric with an empty diagonal
    (standard undirected-graph adjacency); values are ignored.

    ``reorder=False`` skips the degree preprocessing (useful to measure how
    much the reordering buys — the paper applies it always).

    The default ``masked=True`` fuses the elementwise mask into the
    multiplication (:func:`repro.core.masked.masked_spgemm`): wedges that
    do not close into an edge of A are dropped at accumulation time and the
    full wedge matrix ``L·U`` is never materialized — the GraphBLAS-style
    refinement of the paper's §5.6 pipeline.  The fused product is
    plan-backed: pass a :class:`repro.core.plan.PlanCache` as
    ``plan_cache`` and repeated counts on graphs with the same structure
    replay numeric-only.  ``algorithm`` applies only to the unfused
    (``masked=False``) path; the fused kernel is its own algorithm.  A
    :class:`~repro.core.instrument.KernelStats` passed as ``stats``
    collects the product's counters.
    """
    if adjacency.nrows != adjacency.ncols:
        raise ShapeError("adjacency must be square")
    obs = tracer if tracer is not None else NULL_TRACER
    with obs.span("count_triangles", phase="other", nnz=adjacency.nnz):
        with obs.span("reorder", phase="other"):
            a = pattern(adjacency)
            if reorder:
                a, _ = degree_reorder(a, ascending=True)
            if not a.sorted_rows:
                a = a.sort_rows()
        with obs.span("split", phase="other"):
            low, up = triangular_split(a)
        with obs.span("wedges", phase="other"):
            if masked:
                closed = masked_spgemm(
                    low, up, a, semiring=PLUS_TIMES, engine=engine,
                    plan_cache=plan_cache, stats=stats, tracer=tracer,
                )
            else:
                wedges = spgemm(
                    low, up, algorithm=algorithm, semiring=PLUS_TIMES,
                    engine=engine, plan_cache=plan_cache, stats=stats,
                    tracer=tracer,
                )
        with obs.span("mask", phase="other"):
            if not masked:
                closed = elementwise_multiply(a, wedges)
            total = float(closed.data.sum())
    return int(round(total / 2.0))


def triangle_counts_per_vertex(
    adjacency: CSR,
    *,
    algorithm: str = "hash",
    engine: str = "faithful",
    masked: bool = True,
    plan_cache=None,
    stats=None,
    tracer=None,
) -> np.ndarray:
    """Number of triangles through each vertex.

    Uses the unordered formulation ``t(v) = (A .* A²) row-sum / 2``: every
    triangle through v contributes A²-paths to both of v's incident edges.
    With the default ``masked=True`` the product and the mask are one fused
    ``A²⟨A⟩`` call — off-pattern paths never reach the output;
    ``algorithm`` applies only to the unfused path.  ``stats`` collects
    the product's counters and a ``tracer`` its spans, as in
    :func:`count_triangles`.
    """
    if adjacency.nrows != adjacency.ncols:
        raise ShapeError("adjacency must be square")
    obs = tracer if tracer is not None else NULL_TRACER
    with obs.span(
        "triangle_counts_per_vertex", phase="other", nnz=adjacency.nnz
    ):
        a = pattern(adjacency)
        if masked:
            closed = masked_spgemm(
                a, a, a, semiring=PLUS_TIMES, engine=engine,
                plan_cache=plan_cache, stats=stats, tracer=tracer,
            )
        else:
            a2 = spgemm(
                a, a, algorithm=algorithm, semiring=PLUS_TIMES,
                engine=engine, plan_cache=plan_cache, stats=stats,
                tracer=tracer,
            )
            closed = elementwise_multiply(a, a2)
        out = np.zeros(a.nrows)
        rows, _, vals = closed.to_coo()
        np.add.at(out, rows, vals)
    return (out / 2.0).astype(np.int64)
