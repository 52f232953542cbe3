"""Unified phase-tracing observability layer.

One measurement spine for the whole package, replacing the scattered
ad-hoc timing it consolidates: kernels, the plan layer, the server and
the apps all report spans (phase-tagged timed scopes)
and counters through a :class:`Tracer`, and every consumer — the bench
harness, ``repro.profiling``, CI — reads the same exporters.

Enable with ``spgemm(..., tracer=Tracer())`` or the ``REPRO_TRACE``
environment variable (``json`` / ``tree`` / ``breakdown`` / ``on``);
see :mod:`repro.observability.tracer` and ``docs/observability.md``.
Disabled (the default) costs nothing: no span objects, no clock reads,
no per-row work of any kind.
"""

from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    reset_env_tracer,
    tracer_from_env,
)
from .export import (
    TRACE_SCHEMA_ID,
    json_trace,
    phase_breakdown,
    render_breakdown,
    render_tree,
    validate_trace_schema,
    write_json_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "tracer_from_env",
    "reset_env_tracer",
    "TRACE_SCHEMA_ID",
    "json_trace",
    "write_json_trace",
    "validate_trace_schema",
    "render_tree",
    "phase_breakdown",
    "render_breakdown",
]
