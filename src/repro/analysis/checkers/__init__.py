"""Bundled contract checkers.

Importing this package registers every bundled rule with
:data:`repro.analysis.registry.CHECKERS` (each module applies the
``@register`` decorator at import time).  Add new checkers by dropping a
module here and importing it below.
"""

from . import (  # noqa: F401  (imports register the checkers)
    accumulation,
    csr_construct,
    determinism,
    dispatch,
    excepts,
    hot_loop,
    layering,
    numerics,
    plan_purity,
    race,
    span_discipline,
)
