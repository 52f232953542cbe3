"""Algebraic multigrid setup — the Galerkin triple product as SpGEMM.

The paper's introduction names AMG as a canonical SpGEMM consumer (citing
Ballard/Siefert/Hu on "reducing communication costs for sparse matrix
multiplication within algebraic multigrid").  This module implements a
compact aggregation-based AMG: strength of connection, greedy aggregation,
piecewise-constant prolongation, and the Galerkin coarse operator
``A_c = R A P`` — two SpGEMMs, associated flop-optimally by
:func:`repro.core.chain.multiply_chain` — plus a two-level V-cycle solver
that demonstrates the setup actually works (it accelerates Jacobi on
Poisson problems).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chain import multiply_chain, plan_chain
from ..errors import ConfigError, ShapeError
from ..matrix.csr import CSR, INDEX_DTYPE, INDPTR_DTYPE, VALUE_DTYPE
from ..matrix.ops import spmv, transpose
from ..observability import NULL_TRACER

__all__ = ["AmgHierarchy", "amg_setup", "two_level_solve"]


@dataclass(frozen=True)
class AmgHierarchy:
    """A two-level AMG hierarchy."""

    fine: CSR
    prolongation: CSR
    restriction: CSR
    coarse: CSR
    aggregates: np.ndarray
    #: chosen association of R·A·P and its flop saving
    plan_render: str
    plan_saving: float

    @property
    def coarsening_factor(self) -> float:
        return self.fine.nrows / max(self.coarse.nrows, 1)


def _strength_graph(a: CSR, theta: float) -> CSR:
    """Classical symmetric strength of connection: keep off-diagonal (i, j)
    with ``|a_ij| >= theta * max_k |a_ik|`` (k != i)."""
    rows = np.repeat(np.arange(a.nrows), a.row_nnz())
    off = rows != a.indices
    mags = np.abs(a.data)
    row_max = np.zeros(a.nrows)
    np.maximum.at(row_max, rows[off], mags[off])
    keep = off & (mags >= theta * np.maximum(row_max[rows], 1e-300))
    counts = np.bincount(rows[keep], minlength=a.nrows)
    indptr = np.zeros(a.nrows + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSR(
        a.shape, indptr, a.indices[keep], a.data[keep],
        sorted_rows=a.sorted_rows,
    )


def _greedy_aggregate(strength: CSR) -> np.ndarray:
    """Standard greedy aggregation: unaggregated vertices grab their
    unaggregated strong neighbours; leftovers join a neighbouring aggregate."""
    n = strength.nrows
    agg = np.full(n, -1, dtype=np.int64)
    next_agg = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        cols, _ = strength.row(i)
        free = [int(c) for c in cols if agg[c] < 0]
        agg[i] = next_agg
        for c in free:
            agg[c] = next_agg
        next_agg += 1
    # second pass: nothing is left unaggregated by construction (every
    # vertex either joined a neighbour or started its own aggregate)
    return agg


def amg_setup(
    a: CSR, *, theta: float = 0.25, algorithm: str = "auto",
    engine: str = "auto", plan_cache=None, tracer=None,
) -> AmgHierarchy:
    """Build a two-level hierarchy for a symmetric M-matrix-like operator.

    The Galerkin product runs through the fused chain tier: the triple
    product is associated flop-optimally, a left-deep order streams the
    intermediate block-by-block (never materializing all of ``R·A`` or
    ``A·P``), and the default ``algorithm="auto"`` takes each stage's
    kernel from the :class:`repro.core.chain.ChainPlan`'s symbolic
    quantities (``engine="auto"`` runs every stage batched).

    Parameters
    ----------
    a:
        The fine-level operator (e.g. a mesh Laplacian).
    theta:
        Strength-of-connection threshold in [0, 1).
    algorithm:
        SpGEMM kernel for the Galerkin product (``"auto"`` = per-stage).
    plan_cache:
        Optional :class:`repro.core.plan.PlanCache` forwarded to the
        Galerkin SpGEMMs — rebuilding hierarchies whose operators keep
        their sparsity pattern (time-dependent coefficients on a fixed
        mesh) then re-runs numeric-only.
    tracer:
        Optional :class:`repro.observability.Tracer`; the setup stages
        (strength graph, aggregation, Galerkin product) each get a span,
        with the Galerkin SpGEMM roots nested under the last.
    """
    if a.nrows != a.ncols:
        raise ShapeError("AMG operator must be square")
    if not 0.0 <= theta < 1.0:
        raise ConfigError(f"theta must be in [0, 1), got {theta}")
    obs = tracer if tracer is not None else NULL_TRACER
    with obs.span("amg_setup", phase="other", nrows=a.nrows, theta=theta):
        with obs.span("strength", phase="other"):
            strength = _strength_graph(a, theta)
        with obs.span("aggregate", phase="other"):
            aggregates = _greedy_aggregate(strength)
        n_coarse = int(aggregates.max()) + 1 if a.nrows else 0

        # Piecewise-constant prolongation: P[i, agg(i)] = 1.
        p = CSR(
            (a.nrows, n_coarse),
            np.arange(a.nrows + 1, dtype=INDPTR_DTYPE),
            aggregates.astype(INDEX_DTYPE),
            np.ones(a.nrows, dtype=VALUE_DTYPE),
            sorted_rows=True,
        )
        r = transpose(p)

        with obs.span("galerkin", phase="other"):
            plan = plan_chain([r, a, p])
            coarse = multiply_chain(
                [r, a, p], algorithm=algorithm, engine=engine, plan=plan,
                plan_cache=plan_cache, tracer=tracer,
            )
    return AmgHierarchy(
        fine=a,
        prolongation=p,
        restriction=r,
        coarse=coarse,
        aggregates=aggregates,
        plan_render=plan.render(["R", "A", "P"]),
        plan_saving=plan.saving,
    )


def _jacobi(a: CSR, x: np.ndarray, b: np.ndarray, omega: float, sweeps: int) -> np.ndarray:
    diag = np.zeros(a.nrows)
    rows = np.repeat(np.arange(a.nrows), a.row_nnz())
    on_diag = rows == a.indices
    diag[rows[on_diag]] = a.data[on_diag]
    inv_d = np.divide(omega, diag, out=np.zeros_like(diag), where=diag != 0)
    for _ in range(sweeps):
        x = x + inv_d * (b - spmv(a, x))
    return x


def two_level_solve(
    hierarchy: AmgHierarchy,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_cycles: int = 100,
    omega: float = 0.67,
    pre_sweeps: int = 1,
    post_sweeps: int = 1,
) -> "tuple[np.ndarray, list[float]]":
    """Two-level V-cycles with weighted-Jacobi smoothing.

    The coarse system is solved directly (dense) — appropriate for a
    two-level demonstration.  Returns ``(solution, residual_history)``.
    """
    a = hierarchy.fine
    if len(b) != a.nrows:
        raise ShapeError(f"rhs length {len(b)} != n {a.nrows}")
    coarse_dense = hierarchy.coarse.to_dense()
    # guard singular coarse operators (pure Neumann): tiny regularization
    coarse_dense = coarse_dense + 1e-12 * np.eye(coarse_dense.shape[0])
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history: "list[float]" = []
    for _ in range(max_cycles):
        x = _jacobi(a, x, b, omega, pre_sweeps)
        residual = b - spmv(a, x)
        coarse_rhs = spmv(hierarchy.restriction, residual)
        correction = np.linalg.solve(coarse_dense, coarse_rhs)
        x = x + spmv(hierarchy.prolongation, correction)
        x = _jacobi(a, x, b, omega, post_sweeps)
        res_norm = float(np.linalg.norm(b - spmv(a, x))) / b_norm
        history.append(res_norm)
        if res_norm < tol:
            break
    return x, history
