"""Span/counter tracing — the phase-level measurement spine.

The paper's entire argument rests on *phase-level* data: Fig. 15 profiles
the symbolic/numeric/sort phases of every kernel, and §4.1/Fig. 2 price
scheduling and allocation overheads separately from compute.  This module
is the one place such measurements are produced: every executable kernel,
plan inspection/execution, served request and app opens :class:`Span` scopes
at its phase seams through a :class:`Tracer`, and the exporters in
:mod:`repro.observability.export` turn the span tree into a JSON trace, a
text tree, or a Fig.-15-style per-phase breakdown.

Design constraints, in order:

1. **Zero overhead when disabled.**  The disabled path is ``tracer is
   None`` — kernels hoist that test out of their row loops, so a run
   without a tracer executes *no* per-row tracing work at all (the CI
   guard ``test_noop_path_adds_no_per_row_work`` counts calls to prove
   it).  :data:`NULL_TRACER` exists for call sites that want an object
   unconditionally; its methods are constant-time no-ops returning shared
   singletons.
2. **Phase attribution is exclusive.**  A span's *exclusive* time is its
   duration minus its children's durations, so aggregating exclusive time
   by phase always sums to the root span's wall time — no phase is
   double-counted and nothing is lost, which is what makes the breakdown
   comparable to an untraced wall-clock measurement.
3. **Mergeable across contexts.**  Spans serialize to plain dicts
   (:meth:`Span.to_dict` / :meth:`Span.from_dict`) so a served request
   can trace into its own tracer on its compute thread and ship the
   subtree back; the server grafts it into its own tracer.

Timing uses ``time.perf_counter`` exclusively — the monotonic form the
``determinism`` contract-linter rule sanctions for reported durations
(wall-clock ``time.time`` never appears here).
"""

from __future__ import annotations

import atexit
import os
import time
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "tracer_from_env",
    "reset_env_tracer",
]

#: Phase names with first-class meaning to the breakdown exporter.  Spans
#: may use other phases freely; these are the paper's vocabulary.
KNOWN_PHASES = (
    "symbolic", "numeric", "sort", "stitch", "mask",
    "partition", "pack", "unpack", "inspect", "execute", "other",
)


class Span:
    """One timed scope: name, phase, duration, counters, children.

    ``duration`` is inclusive (children overlap it); the breakdown
    exporter works with :meth:`exclusive_seconds`.  ``meta`` holds
    call-shape facts fixed at open time (algorithm, engine, nrows);
    ``counters`` holds quantities accumulated while the span was open
    (flop, nnz, KernelStats deltas).
    """

    __slots__ = ("name", "phase", "t0", "duration", "meta", "counters", "children")

    def __init__(self, name: str, phase: "str | None" = None, **meta: Any) -> None:
        self.name = name
        self.phase = phase if phase is not None else name
        self.t0 = 0.0
        self.duration = 0.0
        self.meta = meta
        self.counters: "dict[str, float]" = {}
        self.children: "list[Span]" = []

    def exclusive_seconds(self) -> float:
        """Duration minus children's durations (never below zero)."""
        overlap = sum(c.duration for c in self.children)
        return max(self.duration - overlap, 0.0)

    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON- and pickle-safe)."""
        return {
            "name": self.name,
            "phase": self.phase,
            "seconds": self.duration,
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(str(payload["name"]), str(payload["phase"]))
        span.duration = float(payload.get("seconds", 0.0))
        span.meta = dict(payload.get("meta", {}))
        span.counters = dict(payload.get("counters", {}))
        span.children = [cls.from_dict(c) for c in payload.get("children", [])]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, phase={self.phase!r}, "
            f"seconds={self.duration:.6f}, children={len(self.children)})"
        )


class _SpanScope:
    """Context manager opening/closing one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Collects a forest of :class:`Span` trees for one process.

    Not thread-safe by design: a tracer belongs to one simulated-thread
    context (each served request builds its own and ships spans back).
    """

    __slots__ = ("spans", "_stack")

    #: Class-level so the disabled check ``tracer.enabled`` costs one
    #: attribute load on either tracer type.
    enabled = True

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []

    # -- collection --------------------------------------------------------

    def span(self, name: str, phase: "str | None" = None, **meta: Any) -> _SpanScope:
        """``with tracer.span("numeric", phase="numeric"):`` timed scope."""
        return _SpanScope(self, Span(name, phase, **meta))

    def record(
        self, name: str, seconds: float, phase: "str | None" = None, **meta: Any
    ) -> Span:
        """Attach a pre-measured span (e.g. an accumulated per-row total).

        Kernels that time a sub-phase with a plain accumulator (the per-row
        output sort, say) report the total through here, so it shows up in
        the tree and the breakdown like any scoped span.
        """
        span = Span(name, phase, **meta)
        span.duration = float(seconds)
        self._attach(span)
        return span

    def counter(self, name: str, value: float) -> None:
        """Accumulate a named quantity on the innermost open span."""
        if self._stack:
            self._stack[-1].add_counter(name, value)
        else:
            root = Span("counters", "other")
            root.add_counter(name, value)
            self.spans.append(root)

    def graft(self, payload: dict, name: "str | None" = None) -> Span:
        """Merge a serialized span tree (``Span.to_dict``) as a child of
        the current span — how served requests' traces land in the
        server's tracer."""
        span = Span.from_dict(payload)
        if name is not None:
            span.name = name
        self._attach(span)
        return span

    # -- accessors ---------------------------------------------------------

    @property
    def current(self) -> "Span | None":
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def total_seconds(self) -> float:
        return sum(s.duration for s in self.spans)

    # -- internals ---------------------------------------------------------

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)

    def _push(self, span: Span) -> None:
        self._attach(span)
        self._stack.append(span)
        span.t0 = time.perf_counter()

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.t0
        # Tolerate exception-driven unwinding skipping inner pops.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()


class _NullScope:
    """Shared do-nothing context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The disabled path: every method is a constant-time no-op.

    Kernels should prefer ``tracer is None`` checks hoisted out of hot
    loops; this object exists for call sites that want to call
    unconditionally (apps, benches).
    """

    __slots__ = ()

    enabled = False
    spans: "tuple[Span, ...]" = ()
    current = None

    def span(self, name: str, phase: "str | None" = None, **meta: Any) -> _NullScope:
        return _NULL_SCOPE

    def record(self, name: str, seconds: float, phase=None, **meta: Any) -> None:
        return None

    def counter(self, name: str, value: float) -> None:
        return None

    def graft(self, payload: dict, name=None) -> None:
        return None

    def clear(self) -> None:
        return None

    def total_seconds(self) -> float:
        return 0.0


#: Process-wide disabled tracer.
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# environment activation (REPRO_TRACE / REPRO_TRACE_FILE)
# ---------------------------------------------------------------------------

#: Accepted REPRO_TRACE values and what happens at process exit.
ENV_MODES = ("json", "tree", "breakdown", "1", "on")

_env_tracer: "Tracer | None" = None
_env_mode: "str | None" = None
_atexit_registered = False


def _export_env_tracer() -> None:  # pragma: no cover - exercised via subprocess
    if _env_tracer is None or not _env_tracer.spans:
        return
    from .export import render_breakdown, render_tree, write_json_trace

    if _env_mode == "json":
        path = os.environ.get("REPRO_TRACE_FILE", "repro-trace.json")
        write_json_trace(_env_tracer, path)
    elif _env_mode == "tree":
        print(render_tree(_env_tracer))
    elif _env_mode == "breakdown":
        from .export import phase_breakdown

        print(render_breakdown("phase breakdown", phase_breakdown(_env_tracer)))
    # "1"/"on": collect only; callers read tracer_from_env() themselves.


def tracer_from_env() -> "Tracer | None":
    """The process-wide tracer selected by ``REPRO_TRACE``, or ``None``.

    Read per call (two dict probes, like ``REPRO_DEBUG_VALIDATE``) so tests
    and debugging sessions can toggle tracing without restarting.  Modes:

    * ``json`` — write a JSON trace to ``REPRO_TRACE_FILE`` (default
      ``repro-trace.json``) at process exit;
    * ``tree`` — print the span tree at process exit;
    * ``breakdown`` — print the per-phase breakdown at process exit;
    * ``1`` / ``on`` — collect only (the caller exports).

    Unknown values raise :class:`~repro.errors.ConfigError` — a silently
    ignored typo would read as "no overhead and no data", the worst
    failure mode an observability layer can have.
    """
    mode = os.environ.get("REPRO_TRACE", "").strip().lower()
    if not mode:
        return None
    if mode not in ENV_MODES:
        from ..errors import invalid_choice

        raise invalid_choice("REPRO_TRACE mode", mode, list(ENV_MODES))
    global _env_tracer, _env_mode, _atexit_registered
    if _env_tracer is None or _env_mode != mode:
        _env_tracer = Tracer()
        _env_mode = mode
        if not _atexit_registered:
            atexit.register(_export_env_tracer)
            _atexit_registered = True
    return _env_tracer


def reset_env_tracer() -> None:
    """Drop the env-selected tracer (tests use this between cases)."""
    global _env_tracer, _env_mode
    _env_tracer = None
    _env_mode = None
