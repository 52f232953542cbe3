"""The calibrated selector: price every candidate, pick the cheapest.

:func:`recommend_calibrated` is the drop-in replacement for the static
Table-4 :func:`repro.core.recipe.recommend`: same inputs, same
:class:`~repro.core.recipe.RecipeDecision` result, but the verdict comes
from pricing every selectable Table-1 algorithm through the machine's
calibrated cost curves (exact symbolic quantities -> feature vector ->
fitted coefficients -> predicted seconds), corrected by whatever the
online refinement loop has learned.  With no profile available it *is*
the static recipe — bit-identical, including the degenerate-input guard.

:func:`resolve_auto` is the hook behind the one ``algorithm="auto"`` path,
``repro.core.spgemm._resolve_auto``, which ``spgemm``, the plan layer,
chains and ``serve`` share: it returns the
chosen algorithm plus an observation callback (None on the static path)
that the caller feeds the measured wall seconds of the full multiply,
closing the loop.
"""

from __future__ import annotations

from typing import Callable

from ..core.recipe import RecipeDecision, recommend, table4
from ..core.spgemm import ALGORITHMS
from ..matrix.csr import CSR
from ..matrix.stats import row_skew
from ..perfmodel.cost import MODELED_ALGORITHMS, cost_features
from ..perfmodel.quantities import ProblemQuantities
from .online import regime_key
from .profile import CalibrationProfile, active_profile

__all__ = [
    "candidate_algorithms",
    "recommend_calibrated",
    "resolve_auto",
]


def candidate_algorithms() -> "tuple[str, ...]":
    """Algorithms the calibrated selector may price, sorted.

    Every modeled table row not marked ``selected_by="never"`` (the
    behavioural proxies) — which includes the ``"calibrated"`` rows the
    static recipe can never name (that is the point of calibrating).
    """
    return tuple(sorted(
        name for name, info in ALGORITHMS.items()
        if info.selected_by != "never" and name in MODELED_ALGORITHMS
    ))


def _pick(
    q: ProblemQuantities,
    sort_output: bool,
    profile: CalibrationProfile,
    regime: tuple,
    *,
    use_refiner: bool,
) -> "tuple[str | None, float, int]":
    """Cheapest calibrated candidate: (name, predicted seconds, #priced)."""
    refiner = profile.refiner if use_refiner else None
    best_name = None
    best_seconds = float("inf")
    priced = 0
    for algorithm in candidate_algorithms():
        if algorithm not in profile.curves:
            continue
        features = cost_features(
            algorithm, q, profile.machine_spec, profile.nthreads,
            sort_output=sort_output,
        )
        seconds = profile.predict_seconds(algorithm, features)
        if refiner is not None:
            seconds *= refiner.correction(algorithm, regime)
        priced += 1
        # strict < with the sorted candidate order makes ties deterministic
        if seconds < best_seconds:
            best_name = algorithm
            best_seconds = seconds
    return best_name, best_seconds, priced


def recommend_calibrated(
    a: CSR,
    b: "CSR | None" = None,
    *,
    sort_output: bool = True,
    operation: str = "square",
    synthetic: bool = False,
    profile: "CalibrationProfile | None" = None,
    use_refiner: bool = True,
) -> RecipeDecision:
    """Pick an algorithm for ``C = A B`` from the calibrated cost curves.

    Accepts the static :func:`~repro.core.recipe.recommend` signature plus
    the profile to price against (default: the process-wide active one).
    Falls back to the static recipe — bit-identical — when no profile is
    available, and delegates degenerate zero-flop products to the static
    guard unconditionally (every curve prices them at its base overhead,
    which would make the verdict an artifact of fitted constants).

    ``operation`` and ``synthetic`` are accepted for signature parity;
    the calibrated curves already encode what those flags approximate
    (the operand structure enters through the exact quantities).
    """
    if profile is None:
        profile = active_profile()

    def static() -> RecipeDecision:
        return recommend(
            a, b, sort_output=sort_output, operation=operation,
            synthetic=synthetic,
        )

    if profile is None:
        return static()
    q = ProblemQuantities.compute(a, a if b is None else b)
    if q.total_flop == 0:
        return static()
    cr = q.compression_ratio
    skew = row_skew(a)
    regime = regime_key(cr, skew, sort_output)
    best_name, best_seconds, priced = _pick(
        q, sort_output, profile, regime, use_refiner=use_refiner
    )
    if best_name is None:
        # a profile with curves for none of the candidates (e.g. pruned
        # by hand): behave as if absent rather than failing the multiply
        return static()
    return RecipeDecision(
        algorithm=best_name,
        reason=(
            f"calibrated: predicted {best_seconds * 1e3:.3g} ms, "
            f"cheapest of {priced} candidate(s) on machine "
            f"{profile.machine}"
        ),
        compression_ratio=cr,
        edge_factor=a.nnz / a.nrows if a.nrows else 0.0,
        skew=skew,
        sorted_output=sort_output,
    )


def resolve_auto(
    a: CSR,
    b: CSR,
    *,
    sort_output: bool = True,
    profile: "CalibrationProfile | None" = None,
) -> "tuple[str, Callable[[float], None] | None]":
    """Resolve ``algorithm="auto"`` for one multiply.

    Returns ``(algorithm, observe)``.  On the static path (no profile)
    ``observe`` is None and the algorithm is the Table-4 verdict of
    :func:`~repro.core.recipe.table4` — the same as
    ``recommend(a, b, sort_output=...).algorithm`` — which computes
    ``nnz(C)`` only when Table 4 reads the compression ratio (unsorted
    products), so a sorted product pays one flop count.
    On the calibrated path ``observe(measured_seconds)`` feeds the
    profile's online refiner with this run's measured wall time against
    the curve's prediction for the *chosen* algorithm, keyed by the
    operands' structure fingerprints.
    """
    if profile is None:
        profile = active_profile()
    if profile is None:
        return table4(a, b, sort_output=sort_output)[0], None
    q = ProblemQuantities.compute(a, b)
    if q.total_flop == 0:
        return table4(a, b, sort_output=sort_output)[0], None
    regime = regime_key(q.compression_ratio, row_skew(a), sort_output)
    best_name, best_seconds, _ = _pick(
        q, sort_output, profile, regime, use_refiner=True
    )
    if best_name is None:
        return table4(a, b, sort_output=sort_output)[0], None
    from ..core.plan import structure_fingerprint  # deferred: plan imports core

    algorithm = best_name
    # Observe against the *raw* curve prediction: folding the current
    # correction into the baseline would halve the EW fixed point.
    predicted = profile.predict_seconds(
        algorithm,
        cost_features(
            algorithm, q, profile.machine_spec, profile.nthreads,
            sort_output=sort_output,
        ),
    )
    fingerprint = (structure_fingerprint(a), structure_fingerprint(b))

    def observe(measured_seconds: float) -> None:
        profile.refiner.observe(
            algorithm, regime,
            predicted_seconds=predicted,
            measured_seconds=measured_seconds,
            fingerprint=fingerprint,
        )

    return algorithm, observe
