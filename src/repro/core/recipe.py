"""The paper's recipe: which SpGEMM algorithm for which scenario (§4.2.4, §5.7).

Two layers:

* **Theoretical cost formulas** — Eq. (1) and Eq. (2) of the paper:

  .. math::

     T_{heap} = \\sum_i flop(c_{i*}) \\cdot \\log_2 nnz(a_{i*})

     T_{hash} = flop \\cdot c + \\sum_i nnz(c_{i*}) \\cdot \\log_2 nnz(c_{i*})

  (the hash sort term applies only when sorted output is required).  These
  predict that Hash wins when ``nnz(c_i*)`` or the compression ratio
  ``flop/nnz(C)`` is large, Heap when the output is very sparse.

* **The empirical Table-4 recipe** — the decision table the paper distills
  from its evaluation, keyed on data kind (real vs synthetic), compression
  ratio, edge factor, skew, operation and sortedness.

:func:`table4` applies Table 4 and :func:`recommend` reports the features
it keys on; :func:`heap_cost_model` /
:func:`hash_cost_model` expose the formulas so users can see *why* (and so
tests can check the recipe agrees with the theory where the paper says it
does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..matrix.csr import CSR
from ..matrix.stats import flop_per_row, row_skew
from .symbolic import symbolic_row_nnz

__all__ = [
    "heap_cost_model",
    "hash_cost_model",
    "RecipeDecision",
    "recommend",
    "recipe_table",
    "table4",
    "table4_branch",
    "Table4Branch",
]

#: Table 4(a)'s compression-ratio threshold separating "high" from "low".
HIGH_CR_THRESHOLD = 2.0
#: Table 4(b)'s edge-factor threshold separating "sparse" from "dense".
DENSE_EF_THRESHOLD = 8.0
#: Row-skew (max/mean nnz) above which we classify a matrix as "skewed"
#: (G500-like power-law rather than ER-like uniform).
SKEW_THRESHOLD = 4.0


def _safe_log2(x: np.ndarray) -> np.ndarray:
    """log2 clamped below at 1 (a 1-element heap still costs a comparison)."""
    return np.log2(np.maximum(x, 2.0))


def heap_cost_model(a: CSR, b: CSR) -> float:
    """Eq. (1): ``T_heap = sum_i flop(c_i*) * log2 nnz(a_i*)`` (abstract ops).

    A degenerate product (either operand empty, or no ``a``-column ever
    hitting a populated ``b`` row) performs zero multiplications, so its
    abstract cost is exactly 0.0 — guarded explicitly rather than relying
    on empty-array reductions.
    """
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    flop = flop_per_row(a, b).astype(np.float64)
    return float((flop * _safe_log2(a.row_nnz().astype(np.float64))).sum())


def hash_cost_model(
    a: CSR,
    b: CSR,
    *,
    sort_output: bool = True,
    collision_factor: float = 1.5,
    nnz_c_rows: np.ndarray | None = None,
) -> float:
    """Eq. (2): ``T_hash = flop * c + sum_i nnz(c_i*) * log2 nnz(c_i*)``.

    The sort term is included only when ``sort_output`` — the paper's
    headline observation is how much skipping it saves.  ``collision_factor``
    is the paper's ``c`` (average probes per table access; 1.0 = no
    collisions).  ``nnz_c_rows`` may be supplied when already computed.

    Degenerate products cost exactly 0.0 (see :func:`heap_cost_model`).
    """
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    flop = flop_per_row(a, b).astype(np.float64)
    cost = float(flop.sum()) * collision_factor
    if sort_output:
        if nnz_c_rows is None:
            nnz_c_rows = symbolic_row_nnz(a, b)
        nc = nnz_c_rows.astype(np.float64)
        cost += float((nc * _safe_log2(nc)).sum())
    return cost


@dataclass(frozen=True)
class RecipeDecision:
    """The recipe's verdict plus the features it keyed on."""

    algorithm: str
    reason: str
    compression_ratio: float
    edge_factor: float
    skew: float
    sorted_output: bool


@dataclass(frozen=True)
class Table4Branch:
    """A Table-4 branch: its ``(algorithm, reason)`` verdicts at a
    compression ratio ``flop / nnz(C)`` at most and above
    :data:`HIGH_CR_THRESHOLD` (the same verdict twice when it does not
    read the ratio)."""

    flop: int
    low: "tuple[str, str]"
    high: "tuple[str, str]"

    @property
    def reads_cr(self) -> bool:
        return self.low != self.high

    def verdict(self, compression_ratio: float) -> "tuple[str, str]":
        if compression_ratio > HIGH_CR_THRESHOLD:
            return self.high
        return self.low


def table4_branch(
    a: CSR,
    b: CSR | None = None,
    *,
    sort_output: bool = True,
    operation: str = "square",
    synthetic: bool = False,
) -> Table4Branch:
    """The one home of the Table-4 branches; the caller supplies the
    compression ratio (see :func:`table4`)."""
    if b is None:
        b = a
    flop = int(flop_per_row(a, b).sum())

    def dense_skewed() -> "tuple[bool, bool]":
        ef = a.nnz / a.nrows if a.nrows else 0.0
        return ef > DENSE_EF_THRESHOLD, row_skew(a) > SKEW_THRESHOLD

    # Every verdict goes through decision(...): the kernel-dispatch lint
    # rule matches these calls against the table rows marked
    # selected_by="table4".
    def decision(algorithm: str, reason: str) -> Table4Branch:
        return Table4Branch(flop, (algorithm, reason), (algorithm, reason))

    def by_cr(low: Table4Branch, high: Table4Branch) -> Table4Branch:
        return Table4Branch(flop, low.low, high.high)

    # Degenerate product: zero multiplications means the compression ratio
    # flop/nnz(C) is 0/0 and every cost model prices every algorithm at 0.
    # Rather than let a vacuous "low CR" classification steer the table
    # (e.g. LxU would claim Heap on an empty product), name the case: Hash
    # handles every shape — including 0-row/0-column operands — and is what
    # every branch of Table 4(a) falls back to anyway.  The calibrated
    # selector (repro.autotune) delegates degenerate inputs here untouched.
    if flop == 0:
        return decision("hash", "degenerate: zero-flop product (empty C)")

    if operation == "lxu":
        # Table 4(a), L x U row: Heap for low CR, Hash for high CR.
        return by_cr(
            decision("heap", "Table 4(a): LxU with low compression ratio"),
            decision("hash", "Table 4(a): LxU with high compression ratio"),
        )

    if operation == "tallskinny":
        # Table 4(b) TallSkinny rows: Hash everywhere except dense+skewed
        # sorted, where HashVector wins.
        if sort_output and all(dense_skewed()):
            return decision("hashvec", "Table 4(b): tall-skinny, dense skewed, sorted")
        return decision("hash", "Table 4(b): tall-skinny")

    if synthetic:
        dense, skewed = dense_skewed()
        if sort_output:
            if dense and skewed:
                return decision("hash", "Table 4(b): AxA sorted, dense skewed")
            return decision("heap", "Table 4(b): AxA sorted, sparse or uniform")
        if dense and skewed:
            return decision("hash", "Table 4(b): AxA unsorted, dense skewed")
        return decision("hashvec", "Table 4(b): AxA unsorted")

    # Table 4(a): real data, keyed on compression ratio.
    if sort_output:
        return decision("hash", "Table 4(a): AxA sorted (Hash for any CR)")
    return by_cr(
        decision("hash", "Table 4(a): AxA unsorted, low compression ratio"),
        decision(
            "mkl_inspector", "Table 4(a): AxA unsorted, high compression ratio"
        ),
    )


def table4(
    a: CSR,
    b: CSR | None = None,
    *,
    sort_output: bool = True,
    operation: str = "square",
    synthetic: bool = False,
    compression_ratio: float | None = None,
) -> "tuple[str, str]":
    """Table 4's ``(algorithm, reason)`` for ``C = A B``.

    It reads only what the chosen branch keys on: the compression ratio
    ``flop / nnz(C)`` — the one feature that needs a symbolic pass over
    every intermediate product — is counted only on the branches that read
    it (unsorted A×A on real data, and L×U), unless the caller passes it as
    ``compression_ratio``.  The other parameters are :func:`recommend`'s.
    """
    if b is None:
        b = a
    branch = table4_branch(
        a, b, sort_output=sort_output, operation=operation, synthetic=synthetic
    )
    if not branch.reads_cr:
        return branch.low
    if compression_ratio is None:
        compression_ratio = branch.flop / int(symbolic_row_nnz(a, b).sum())
    return branch.verdict(compression_ratio)


def recommend(
    a: CSR,
    b: CSR | None = None,
    *,
    sort_output: bool = True,
    operation: str = "square",
    synthetic: bool = False,
) -> RecipeDecision:
    """Apply Table 4 to pick an algorithm for ``C = A B``, with a report.

    The verdict is :func:`table4`'s; this wrapper also computes every
    feature the table can key on (compression ratio, edge factor, skew)
    for the returned :class:`RecipeDecision`, so it always pays the
    symbolic pass.  Dispatchers that need only the algorithm call
    :func:`repro.autotune.resolve_auto`, which does not.

    Parameters
    ----------
    operation:
        ``"square"`` (A×A), ``"lxu"`` (triangle counting L×U) or
        ``"tallskinny"`` (square × tall-skinny).
    synthetic:
        Use Table 4(b) — the synthetic-data rules keyed on edge factor and
        skew — instead of Table 4(a)'s compression-ratio rules.  Real-world
        callers normally leave this False.
    """
    if b is None:
        b = a
    total_nnz_c = int(symbolic_row_nnz(a, b).sum())
    flop = int(flop_per_row(a, b).sum())
    cr = flop / total_nnz_c if total_nnz_c else 0.0
    algorithm, reason = table4(
        a, b, sort_output=sort_output, operation=operation,
        synthetic=synthetic, compression_ratio=cr,
    )
    return RecipeDecision(
        algorithm=algorithm,
        reason=reason,
        compression_ratio=cr,
        edge_factor=a.nnz / a.nrows if a.nrows else 0.0,
        skew=row_skew(a),
        sorted_output=sort_output,
    )


def recipe_table() -> str:
    """Render Table 4 as text (both halves), for docs and the bench output."""
    lines = [
        "Table 4(a) — real data, by compression ratio (CR)",
        "                      High CR (>2)     Low CR (<=2)",
        "  AxA  sorted         Hash              Hash",
        "       unsorted       MKL-inspector     Hash",
        "  LxU  sorted         Hash              Heap",
        "",
        "Table 4(b) — synthetic data, by edge factor (EF) and pattern",
        "                      Sparse (EF<=8)        Dense (EF>8)",
        "                      Uniform   Skewed      Uniform   Skewed",
        "  AxA        sorted   Heap      Heap        Heap      Hash",
        "             unsorted HashVec   HashVec     HashVec   Hash",
        "  TallSkinny sorted   -         Hash        -         HashVec",
        "             unsorted -         Hash        -         Hash",
    ]
    return "\n".join(lines)
