"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate between shape problems, malformed sparse structures and
invalid configuration.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "ConfigError",
    "DatasetError",
    "PlanError",
    "ServeError",
    "invalid_choice",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """Operand dimensions are incompatible (e.g. inner dimensions differ)."""


class FormatError(ReproError, ValueError):
    """A sparse matrix violates a structural invariant of its format.

    Examples: a CSR ``indptr`` that is not monotonically non-decreasing,
    column indices outside ``[0, ncols)``, or array dtypes/lengths that do
    not agree with each other.
    """


class ConfigError(ReproError, ValueError):
    """An invalid parameter was supplied (unknown algorithm, bad thread
    count, unsupported semiring for a kernel, ...)."""


class DatasetError(ReproError, ValueError):
    """A dataset name is unknown or a generator received invalid options."""


class PlanError(ReproError, ValueError):
    """An inspector–executor plan was applied to incompatible operands.

    Raised by :meth:`repro.core.plan.SpgemmPlan.execute` when the operands'
    sparsity structure (shape / ``indptr`` / ``indices``) does not match the
    structure the plan was inspected on — always *before* any numeric work
    touches the cached structure.
    """


class ServeError(ReproError, RuntimeError):
    """A request to the :mod:`repro.serve` server failed server-side.

    Carries the wire-level error ``code`` (``"bad-request"``,
    ``"queue-full"``, ``"deadline-exceeded"``, ``"draining"``,
    ``"internal"``) so clients can branch on the failure class without
    parsing the message text.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def invalid_choice(kind: str, got: object, choices) -> ConfigError:
    """Build the canonical :class:`ConfigError` for an enumerated parameter.

    Every "pick one of these" parameter (``algorithm``, ``engine``,
    ``vector_bits``, ...) raises through this helper so the message shape is
    uniform across kernels: ``unknown <kind> <got>; valid choices: [...]``.
    """
    return ConfigError(f"unknown {kind} {got!r}; valid choices: {list(choices)}")
