"""Semirings for generalized sparse matrix-matrix multiplication.

The paper evaluates SpGEMM as a building block of graph algorithms
(multi-source BFS, triangle counting, Markov clustering).  Those algorithms
are naturally expressed as matrix products over *semirings* other than the
ordinary ``(+, *)`` pair — e.g. boolean ``(or, and)`` for reachability.  Every
kernel in :mod:`repro.core` therefore accepts a :class:`Semiring`.

A semiring here is ``(add, mul, zero, one)`` where

* ``add`` is an associative, commutative :class:`numpy.ufunc` with identity
  ``zero`` (used to accumulate intermediate products that land on the same
  output coordinate),
* ``mul`` is a binary :class:`numpy.ufunc` (used to combine ``a_ik`` with
  ``b_kj``),
* implicit (non-stored) matrix entries have value ``zero``.

Using ufuncs keeps the scalar kernels trivial (call with two scalars) while
letting the vectorized ESC kernel use ``ufunc.reduceat`` for segment
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError

#: dtype every registered semiring's accumulator operates over.  One of the
#: two sanctioned dtype-constant sources of the numeric contract (the other
#: is ``matrix/csr.py``, whose ``VALUE_DTYPE`` matches this by design —
#: asserted there); kernels allocating accumulator scratch take their dtype
#: from here or from the operand, never from a literal.
ACCUM_DTYPE = np.float64

__all__ = [
    "Semiring",
    "ACCUM_DTYPE",
    "PLUS_TIMES",
    "OR_AND",
    "MIN_PLUS",
    "MAX_TIMES",
    "MIN_TIMES",
    "PLUS_FIRST",
    "SEMIRINGS",
    "get_semiring",
]


@dataclass(frozen=True)
class Semiring:
    """An algebraic semiring ``(add, mul, zero, one)`` over float64 values.

    Attributes
    ----------
    name:
        Canonical lower-case identifier, e.g. ``"plus_times"``.
    add:
        Additive monoid operation (a numpy ufunc supporting ``reduceat``).
    mul:
        Multiplicative operation (a numpy ufunc, or any ``f(x, y) -> z``
        broadcasting callable).
    zero:
        Identity of ``add`` — the value of implicit sparse entries.
    one:
        Identity of ``mul``.
    annihilates:
        If True, ``mul(x, zero) == zero`` holds, so results equal to ``zero``
        may be dropped from the output pattern.  The paper's kernels never
        drop numerically-cancelled entries (pattern is decided symbolically),
        so this flag is informational and used only by explicit pruning
        helpers.
    """

    name: str
    add: np.ufunc
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: float
    one: float
    annihilates: bool = True

    def scalar_add(self, x: float, y: float) -> float:
        """Add two scalar values under this semiring."""
        return float(self.add(x, y))

    def scalar_mul(self, x: float, y: float) -> float:
        """Multiply two scalar values under this semiring."""
        return float(self.mul(x, y))

    def reduce_segments(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Reduce ``values`` over contiguous segments beginning at ``starts``.

        Wrapper around :meth:`numpy.ufunc.reduceat` used by the ESC kernel to
        compress duplicate output coordinates after sorting.  ``starts`` must
        be strictly increasing and non-empty; every segment is non-empty
        (which is always the case for ESC boundaries), so the reduceat
        empty-segment pitfall does not arise.
        """
        if len(values) == 0:
            return np.empty(0, dtype=values.dtype)
        # The one sanctioned pairwise reduction: ESC's contract is "sorted
        # merge", not "scalar-kernel replica" (ordered paths must use
        # accumulate_segments below).
        return self.add.reduceat(values, starts)  # repro-lint: disable=accum-order

    def accumulate_segments(
        self,
        values: np.ndarray,
        new_run: np.ndarray,
        starts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduce contiguous segments in strict left-to-right order.

        :meth:`reduce_segments` delegates to ``ufunc.reduceat``, which numpy
        may evaluate *pairwise* for floating-point accuracy — an addition
        tree, not a sequence.  The scalar kernels instead fold one value at
        a time into their accumulator, so a bit-for-bit replica needs the
        exact same sequence.  This method reproduces it: each segment's
        output starts as its first value verbatim (no identity fold — this
        also preserves ``-0.0`` and matters for non-``plus`` monoids on
        values below the identity), and every later value is applied with
        one ordered ``add`` via ``ufunc.at``, which processes its operands
        in array order.  The later values' segment ids are one
        ``np.repeat`` of the segment numbers by run length minus one, read
        off ``starts`` (no prefix sum over the mask).

        ``new_run`` is the boolean segment-start mask (``new_run[0]`` must
        be True); ``starts`` may pass ``np.flatnonzero(new_run)`` when the
        caller already has it.
        """
        if len(values) == 0:
            return np.empty(0, dtype=values.dtype)
        if starts is None:
            starts = np.flatnonzero(new_run)
        out = values[starts]
        if len(values) > len(starts):
            later = np.diff(starts, append=len(values))
            later -= 1
            seg_ids = np.repeat(np.arange(len(starts)), later)
            self.add.at(out, seg_ids, values[~new_run])
        return out

    def fold_ranks(
        self, values: np.ndarray, counts: "tuple[int, ...]", tail_ids: np.ndarray
    ) -> np.ndarray:
        """:meth:`accumulate_segments` over a *rank-major* layout.

        ``values`` holds every segment's first value (longest segment
        first), then every second value, and so on: rank ``k`` is
        ``counts[k]`` values.  Rank 0 seeds the accumulators verbatim and
        each later rank folds into their prefix with one vectorized ``add``
        — per segment, one value at a time in arrival order.  The values
        after the last counted rank fold with ``add.at`` into ``tail_ids``.
        """
        acc = values[: counts[0]].copy()
        o = counts[0]
        for c in counts[1:]:
            self.add(acc[:c], values[o : o + c], out=acc[:c])
            o += c
        if len(tail_ids):
            self.add.at(acc, tail_ids, values[o:])
        if np.isnan(acc).any():
            # Where two NaNs meet, numpy's vectorized loops keep either
            # payload depending on the SIMD lane, while ufunc.at keeps the
            # accumulator's like accumulate_segments: refold with it.
            acc = values[: counts[0]].copy()
            ids = [np.arange(c) for c in counts[1:]] + [tail_ids]
            self.add.at(acc, np.concatenate(ids), values[counts[0] :])
        return acc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name!r})"


def _first(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``mul`` that returns its first operand (useful for selection products)."""
    return np.broadcast_arrays(x, y)[0].copy() if np.ndim(x) or np.ndim(y) else x


#: Classical arithmetic semiring — ordinary matrix multiplication.
PLUS_TIMES = Semiring("plus_times", np.add, np.multiply, 0.0, 1.0)

#: Boolean semiring over {0.0, 1.0}: reachability / BFS frontier expansion.
#: ``max`` realizes logical OR and ``min`` logical AND on 0/1 values.
OR_AND = Semiring("or_and", np.maximum, np.minimum, 0.0, 1.0)

#: Tropical (shortest-path) semiring.  Implicit entries are +inf.
MIN_PLUS = Semiring("min_plus", np.minimum, np.add, float("inf"), 0.0)

#: Used e.g. in maximal independent set and some label propagation variants.
MAX_TIMES = Semiring("max_times", np.maximum, np.multiply, float("-inf"), 1.0)

#: Min-times semiring (reliability-style products on positive values).
MIN_TIMES = Semiring("min_times", np.minimum, np.multiply, float("inf"), 1.0)

#: Plus-first: accumulates values of A weighted by the *pattern* of B.
PLUS_FIRST = Semiring("plus_first", np.add, _first, 0.0, 1.0, annihilates=False)

SEMIRINGS: dict[str, Semiring] = {
    sr.name: sr
    for sr in (PLUS_TIMES, OR_AND, MIN_PLUS, MAX_TIMES, MIN_TIMES, PLUS_FIRST)
}


def get_semiring(which: "str | Semiring") -> Semiring:
    """Resolve a semiring by name or pass an instance through.

    >>> get_semiring("plus_times") is PLUS_TIMES
    True
    """
    if isinstance(which, Semiring):
        return which
    try:
        return SEMIRINGS[which]
    except KeyError:
        raise ConfigError(
            f"unknown semiring {which!r}; available: {sorted(SEMIRINGS)}"
        ) from None
