"""Frozen, validated configuration for the :mod:`repro.serve` server.

Mirrors the :class:`repro.core.options.SpgemmOptions` pattern — one frozen
dataclass, every knob validated in ``__post_init__``, loose keywords
canonicalized through :meth:`ServeOptions.from_kwargs` — so the serving
tier's configuration surface behaves exactly like the kernel tier's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError

__all__ = ["ServeOptions"]


@dataclass(frozen=True)
class ServeOptions:
    """Configuration for one :class:`repro.serve.Server`.

    Attributes
    ----------
    host:
        Bind address for both the job port and the metrics shim.
    port:
        TCP port for the newline-delimited JSON job protocol; ``0`` binds
        an ephemeral port (read it back from ``Server.port`` after start).
    http_port:
        Port for the stdlib-only HTTP shim serving ``GET /metrics`` and
        ``GET /healthz``; ``None`` disables the shim, ``0`` is ephemeral.
    concurrency:
        Jobs computed simultaneously (compute-thread count).  Admission
        beyond this waits in the per-tenant queues.
    max_queue_depth:
        Admitted-but-not-started jobs allowed across *all* tenants; a job
        arriving at a full queue is rejected with ``"queue-full"`` instead
        of growing an unbounded backlog.
    default_deadline_ms:
        Deadline applied to jobs that do not carry their own, measured
        from admission (queue wait counts).  ``None`` means no default.
    plan_cache_size:
        Capacity of the process-wide :class:`~repro.core.plan.PlanCache`
        shared by every job — repeated-structure traffic replays
        plans numeric-only across tenants.
    drain_timeout_s:
        How long a graceful drain waits for queued + in-flight jobs before
        failing the stragglers with ``"draining"``.
    max_request_bytes:
        Upper bound on one request line; larger requests are refused.
    tracer:
        Optional :class:`repro.observability.Tracer`; per-request span
        forests are grafted under it (compare-excluded, process-local).
    """

    host: str = "127.0.0.1"
    port: int = 0
    http_port: "int | None" = None
    concurrency: int = 2
    max_queue_depth: int = 32
    default_deadline_ms: "int | None" = 30_000
    plan_cache_size: int = 64
    drain_timeout_s: float = 10.0
    max_request_bytes: int = 64 * 1024 * 1024
    tracer: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("concurrency", "max_queue_depth", "plan_cache_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        for name in ("port", "http_port"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or not 0 <= value <= 65535:
                raise ConfigError(
                    f"{name} must be a port number in [0, 65535], got {value!r}"
                )
        if self.default_deadline_ms is not None and (
            not isinstance(self.default_deadline_ms, int)
            or self.default_deadline_ms < 1
        ):
            raise ConfigError(
                f"default_deadline_ms must be a positive integer or None, "
                f"got {self.default_deadline_ms!r}"
            )
        if not isinstance(self.drain_timeout_s, (int, float)) or (
            self.drain_timeout_s <= 0
        ):
            raise ConfigError(
                f"drain_timeout_s must be a positive number, "
                f"got {self.drain_timeout_s!r}"
            )
        if not isinstance(self.max_request_bytes, int) or (
            self.max_request_bytes < 1024
        ):
            raise ConfigError(
                f"max_request_bytes must be an integer >= 1024, "
                f"got {self.max_request_bytes!r}"
            )
        if self.tracer is not None and not hasattr(self.tracer, "span"):
            raise ConfigError(
                f"tracer must provide .span(name, phase=...), "
                f"got {type(self.tracer).__name__}"
            )

    @classmethod
    def from_kwargs(
        cls, opts: "ServeOptions | None" = None, **kwargs: Any
    ) -> "ServeOptions":
        """Canonicalize an options object and/or loose keywords.

        Same override semantics as
        :meth:`repro.core.options.SpgemmOptions.from_kwargs`: keywords
        apply on top of ``opts``; unknown keywords raise
        :class:`~repro.errors.ConfigError` listing the valid names.
        """
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - valid
        if unknown:
            raise ConfigError(
                f"unknown serve option(s) {sorted(unknown)}; "
                f"valid options: {sorted(valid)}"
            )
        if opts is None:
            return cls(**kwargs)
        if not isinstance(opts, cls):
            raise ConfigError(
                f"opts must be {cls.__name__} or None, got {type(opts).__name__}"
            )
        return dataclasses.replace(opts, **kwargs) if kwargs else opts

    def replace(self, **changes: Any) -> "ServeOptions":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)
