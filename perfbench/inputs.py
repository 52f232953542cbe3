"""Seeded input generation for the three workloads.

Every matrix is a pure function of ``(seed, stream, index)``: the same
seed gives the same operands on every run, and distinct ``index`` values
give distinct sparsity structures (the ``oneshot`` never-repeat rule).
Only public generators of the package are used, plus a perturbed 2-D mesh
and its aggregation prolongation built here with plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import CSR, csr_from_scipy
from repro.datasets.generators import banded_fem, econ_like
from repro.matrix.ops import transpose
from repro.rmat.generator import ER_PARAMS, G500_PARAMS, rmat


@dataclass(frozen=True)
class Sizes:
    """Operand sizes of one benchmark scale."""

    #: ER / G500 A·A products: R-MAT scale (the same for both) and edge
    #: factor
    rmat_scale: int
    rmat_ef: int
    #: Table-2 FEM proxy (high compression ratio): rows and nnz per row
    fem_n: int
    fem_nnz_row: int
    #: circuit/econ proxy: rows and nnz per row
    econ_n: int
    econ_nnz_row: float
    #: triangle-count graphs: R-MAT scale of the ER and G500 graphs
    tri_er_scale: int
    tri_g500_scale: int
    tri_ef: int
    #: Galerkin R·A·P mesh side (nodes per side, before edge dropping):
    #: fresh chains and replayed chains
    mesh_side: int
    replay_mesh_side: int
    #: served jobs: R-MAT scale and edge factor (small, so wire and queue
    #: costs are a visible share of a job)
    serve_scale: int
    serve_ef: int


SIZES = {
    "full": Sizes(
        rmat_scale=10, rmat_ef=8,
        fem_n=900, fem_nnz_row=24,
        econ_n=4096, econ_nnz_row=4.0,
        tri_er_scale=13, tri_g500_scale=12, tri_ef=8,
        mesh_side=200, replay_mesh_side=96,
        serve_scale=10, serve_ef=4,
    ),
    "tiny": Sizes(
        rmat_scale=6, rmat_ef=4,
        fem_n=60, fem_nnz_row=12,
        econ_n=128, econ_nnz_row=3.0,
        tri_er_scale=6, tri_g500_scale=6, tri_ef=4,
        mesh_side=12, replay_mesh_side=10,
        serve_scale=6, serve_ef=4,
    ),
}


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit generator seed derived from the run seed and a path."""
    return int(np.random.default_rng([seed, *path]).integers(2**31 - 1))


def er(scale: int, ef: int, seed: int) -> CSR:
    return rmat(scale, ef, ER_PARAMS, seed=seed)


def g500(scale: int, ef: int, seed: int) -> CSR:
    return rmat(scale, ef, G500_PARAMS, seed=seed)


def fem(sizes: Sizes, seed: int) -> CSR:
    return banded_fem(sizes.fem_n, sizes.fem_nnz_row, seed=seed)


def econ(sizes: Sizes, seed: int) -> CSR:
    return econ_like(sizes.econ_n, sizes.econ_nnz_row, seed=seed)


def graph(scale: int, ef: int, skewed: bool, seed: int) -> CSR:
    """Undirected simple graph adjacency (symmetric, empty diagonal)."""
    return rmat(
        scale, ef, G500_PARAMS if skewed else ER_PARAMS, seed=seed,
        values="ones", symmetrize=True, drop_diagonal=True,
    )


def mesh_rap(side: int, seed: int) -> "tuple[CSR, CSR, CSR]":
    """``(R, A, P)`` for one Galerkin product on a perturbed 2-D mesh.

    ``A`` is a 5-point grid graph with each edge kept with probability 0.9
    (so every seed gives its own structure), positive random values and a
    full diagonal.  ``P`` is the piecewise-constant prolongation of 2x2
    node aggregates and ``R = P^T``.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(side * side).reshape(side, side)
    src = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    dst = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
    keep = rng.random(len(src)) < 0.9
    src, dst = src[keep], dst[keep]
    n = side * side
    diag = np.arange(n)
    rows = np.concatenate([diag, src, dst])
    cols = np.concatenate([diag, dst, src])
    vals = rng.random(len(rows)) + 0.5
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    a.sort_indices()
    half = (side + 1) // 2
    agg = ((np.arange(side)[:, None] // 2) * half + np.arange(side)[None, :] // 2).ravel()
    p = CSR(
        (n, half * half), np.arange(n + 1), agg, np.ones(n), sorted_rows=True
    )
    return transpose(p), csr_from_scipy(a), p


def with_values(m: CSR, data: np.ndarray) -> CSR:
    """Same structure (shared index arrays), new values."""
    return CSR(m.shape, m.indptr, m.indices, data, sorted_rows=m.sorted_rows)
