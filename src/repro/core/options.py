"""Unified option surface for :func:`repro.spgemm` and the plan layer.

The ``spgemm`` keyword list grew one parameter per PR (``algorithm``,
``semiring``, ``sort_output``, ``nthreads``, ``partition``, ``stats``,
``vector_bits``, ``engine``, now ``plan``/``plan_cache``), and the
inspector–executor entry points (:func:`repro.core.plan.inspect`,
:meth:`repro.core.plan.SpgemmPlan.execute`) need the *same* knobs.  Rather
than re-growing parallel kwarg lists, every entry point canonicalizes its
keywords into one frozen :class:`SpgemmOptions` value whose constructor is
the single place configuration is validated.

:class:`ChainOptions` extends the same surface for the chain/fusion tier
(:func:`repro.core.chain.multiply_chain`,
:func:`repro.core.masked.masked_spgemm`): the SpGEMM knobs plus the
mask-complement flag and the sandwich-streaming ``fuse`` tier.

Validation raises :class:`repro.errors.ConfigError` through
:func:`repro.errors.invalid_choice` so the message shape is uniform for
every enumerated parameter: ``unknown <kind> <value>; valid choices: [...]``.

Wire form (the ``repro-job/1`` request schema)
----------------------------------------------
:meth:`SpgemmOptions.to_wire` / :meth:`SpgemmOptions.from_wire` round-trip
the *portable* configuration — the enumerated knobs that mean the same
thing in another process — as a plain JSON-able dict tagged with the
options type.  Process-local fields (``stats`` collectors, ``plan`` /
``plan_cache`` objects, ``tracer``, ``calibration``) are deliberately
absent from the wire: the receiving process supplies its own.  An explicit ``partition`` refuses
to serialize — it encodes row offsets of one concrete operand, and a server
computes its own flop-balanced one.  ``python -m repro`` and the
:mod:`repro.serve` request parser both build their options through
:func:`options_from_wire`, so the CLI and the server share one validated
entry path instead of two ad-hoc keyword lists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError, invalid_choice
from ..semiring import PLUS_TIMES, Semiring, get_semiring
from .engine import ENGINES
from .instrument import KernelStats
from .scheduler import ThreadPartition

__all__ = [
    "SpgemmOptions",
    "ChainOptions",
    "options_from_wire",
    "VALID_VECTOR_BITS",
    "WIRE_OPTION_TYPES",
]

#: Simulated register widths accepted by the HashVector kernels
#: (512 = KNL AVX-512, 256 = Haswell AVX2, 128 = SSE-width lower bound).
VALID_VECTOR_BITS = (128, 256, 512)

#: Engine values accepted on the chain surface: the concrete engines plus
#: ``"auto"`` (every stage on the batched engine).
_CHAIN_ENGINES = ("auto",)

#: Sandwich-streaming tiers accepted by ``ChainOptions.fuse``.
VALID_FUSE = ("auto", "on", "off")


@dataclass(frozen=True)
class SpgemmOptions:
    """Frozen, validated configuration for one SpGEMM computation.

    Attributes
    ----------
    algorithm:
        Registry name from :func:`repro.core.spgemm.available_algorithms`,
        or ``"auto"`` to apply the Table-4 recipe at call time.
    semiring:
        A :class:`repro.semiring.Semiring` or its registry name; resolved to
        the instance during validation.
    sort_output:
        Whether output rows must have ascending column indices (kernels with
        a fixed output convention override this, see :func:`repro.spgemm`).
    nthreads:
        Simulated thread count (``>= 1``).
    partition:
        Optional explicit :class:`repro.core.scheduler.ThreadPartition`;
        ``None`` lets the kernel compute a flop-balanced one.
    stats:
        Optional :class:`repro.core.instrument.KernelStats` collector.
    vector_bits:
        Simulated register width for ``hashvec`` (one of
        :data:`VALID_VECTOR_BITS`).
    engine:
        ``"faithful"`` or ``"fast"`` (see :mod:`repro.core.engine`).
    plan:
        Optional pre-built :class:`repro.core.plan.SpgemmPlan` to execute
        instead of running inspection.
    plan_cache:
        Optional :class:`repro.core.plan.PlanCache`; ``spgemm`` will look up
        / populate a plan keyed by the operands' structure fingerprints.
    tracer:
        Optional :class:`repro.observability.Tracer`.  ``None`` (the
        default) is the zero-overhead path — kernels skip all tracing
        work — unless the ``REPRO_TRACE`` environment variable activates
        the process-wide tracer at dispatch time.
    calibration:
        Optional :class:`repro.autotune.CalibrationProfile`; when set,
        ``algorithm="auto"`` resolves through the calibrated selector
        against *this* profile instead of the process-wide active one
        (``REPRO_CALIBRATION`` / ``set_active_profile``).  Process-local:
        never serialized to the wire — the executing side activates its
        own machine's profile.
    """

    algorithm: str = "auto"
    semiring: Semiring = PLUS_TIMES
    sort_output: bool = True
    nthreads: int = 1
    partition: ThreadPartition | None = None
    stats: KernelStats | None = field(default=None, compare=False)
    vector_bits: int = 512
    engine: str = "faithful"
    plan: Any = field(default=None, compare=False)
    plan_cache: Any = field(default=None, compare=False)
    tracer: Any = field(default=None, compare=False)
    calibration: Any = field(default=None, compare=False)

    #: wire-schema type tag (`to_wire`'s ``"type"`` field)
    _WIRE_TYPE = "spgemm"
    #: fields that travel on the wire, in schema order
    _WIRE_FIELDS = (
        "algorithm", "semiring", "sort_output", "nthreads",
        "vector_bits", "engine",
    )
    #: engine values valid on top of :data:`repro.core.engine.ENGINES`
    #: (no annotation: a plain class attribute, not a dataclass field)
    _EXTRA_ENGINES = ()

    def __post_init__(self) -> None:
        # Canonicalize the semiring first so equality/caching always compares
        # resolved instances, then validate every enumerated knob in the one
        # place the whole API shares.
        object.__setattr__(self, "semiring", get_semiring(self.semiring))
        from .spgemm import ALGORITHMS  # deferred: spgemm.py imports us

        if self.algorithm != "auto" and self.algorithm not in ALGORITHMS:
            raise invalid_choice(
                "algorithm", self.algorithm, ["auto", *ALGORITHMS]
            )
        if self.engine not in ENGINES and self.engine not in self._EXTRA_ENGINES:
            raise invalid_choice(
                "engine", self.engine, [*ENGINES, *self._EXTRA_ENGINES]
            )
        if self.vector_bits not in VALID_VECTOR_BITS:
            raise invalid_choice(
                "vector_bits", self.vector_bits, list(VALID_VECTOR_BITS)
            )
        if not isinstance(self.nthreads, int) or self.nthreads < 1:
            raise ConfigError(
                f"nthreads must be a positive integer, got {self.nthreads!r}"
            )
        if self.partition is not None and not isinstance(
            self.partition, ThreadPartition
        ):
            raise ConfigError(
                f"partition must be a ThreadPartition or None, "
                f"got {type(self.partition).__name__}"
            )
        self._check_plan()
        if self.plan_cache is not None and not hasattr(self.plan_cache, "execute"):
            raise ConfigError(
                f"plan_cache must provide .execute(a, b, options), "
                f"got {type(self.plan_cache).__name__}"
            )
        if self.tracer is not None and not hasattr(self.tracer, "span"):
            raise ConfigError(
                f"tracer must provide .span(name, phase=...), "
                f"got {type(self.tracer).__name__}"
            )
        if self.calibration is not None and not hasattr(
            self.calibration, "predict_seconds"
        ):
            raise ConfigError(
                f"calibration must be a CalibrationProfile (or None), "
                f"got {type(self.calibration).__name__}"
            )

    def _check_plan(self) -> None:
        """Validate the ``plan`` field (subclasses accept other plan types)."""
        if self.plan is not None and not hasattr(self.plan, "execute"):
            raise ConfigError(
                f"plan must provide .execute(a, b), "
                f"got {type(self.plan).__name__}"
            )

    @classmethod
    def from_kwargs(
        cls, opts: "SpgemmOptions | None" = None, **kwargs: Any
    ) -> "SpgemmOptions":
        """Canonicalize an options object and/or loose keywords.

        ``spgemm(a, b, opts)`` passes a ready-made :class:`SpgemmOptions`;
        ``spgemm(a, b, algorithm=...)`` passes loose keywords; mixing both
        applies the keywords on top of ``opts``.  Unknown keywords raise
        :class:`repro.errors.ConfigError` listing the valid names.

        A subclass accepts a plain base-class instance too (it is promoted
        field-by-field), so a :class:`SpgemmOptions` built for ``spgemm``
        flows unchanged into ``multiply_chain``/``masked_spgemm``.
        """
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - valid
        if unknown:
            raise ConfigError(
                f"unknown {cls._WIRE_TYPE} option(s) {sorted(unknown)}; "
                f"valid options: {sorted(valid)}"
            )
        if opts is None:
            return cls(**kwargs)
        if not isinstance(opts, cls):
            if isinstance(opts, SpgemmOptions):
                promoted = {
                    f.name: getattr(opts, f.name)
                    for f in dataclasses.fields(type(opts))
                    if f.name in valid
                }
                promoted.update(kwargs)
                return cls(**promoted)
            raise ConfigError(
                f"opts must be {cls.__name__} or None, "
                f"got {type(opts).__name__}"
            )
        return opts.replace(**kwargs) if kwargs else opts

    def replace(self, **changes: Any) -> "SpgemmOptions":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    # -- wire form (repro-job/1) -------------------------------------------

    def to_wire(self) -> dict:
        """Portable JSON-able form of this configuration.

        Only the enumerated knobs travel (see the module docstring);
        process-local fields — ``stats``, ``plan``, ``plan_cache``,
        ``tracer``, ``calibration`` — are dropped, and an explicit
        ``partition`` raises
        :class:`~repro.errors.ConfigError` because its row offsets are
        meaningless against another process's operands.
        """
        if self.partition is not None:
            raise ConfigError(
                "an explicit partition is process-local and cannot be "
                "serialized; the executing side computes its own"
            )
        payload: "dict[str, Any]" = {"type": self._WIRE_TYPE}
        for name in self._WIRE_FIELDS:
            value = getattr(self, name)
            payload[name] = value.name if isinstance(value, Semiring) else value
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "SpgemmOptions":
        """Rebuild options from :meth:`to_wire` output (full validation).

        The ``type`` tag must match this class; unknown keys raise
        :class:`~repro.errors.ConfigError` listing the valid ones, and
        every field value goes through the constructor's validation —
        a wire request cannot reach a kernel less checked than a local
        keyword call.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"wire options must be a dict, got {type(payload).__name__}"
            )
        got_type = payload.get("type", cls._WIRE_TYPE)
        if got_type != cls._WIRE_TYPE:
            raise invalid_choice(
                "options type", got_type, [cls._WIRE_TYPE]
            )
        body = {k: v for k, v in payload.items() if k != "type"}
        unknown = set(body) - set(cls._WIRE_FIELDS)
        if unknown:
            raise ConfigError(
                f"unknown {cls._WIRE_TYPE} wire option(s) {sorted(unknown)}; "
                f"valid options: {sorted(cls._WIRE_FIELDS)}"
            )
        return cls(**body)


@dataclass(frozen=True)
class ChainOptions(SpgemmOptions):
    """Frozen, validated configuration for the chain/masked surface.

    Extends :class:`SpgemmOptions` with the fusion-tier knobs of
    :func:`repro.core.chain.multiply_chain` and
    :func:`repro.core.masked.masked_spgemm`:

    complement:
        Keep entries *not* in the mask (GraphBLAS ``!M`` semantics); only
        meaningful when the call carries a mask operand.
    fuse:
        Sandwich-streaming tier — ``"auto"``/``"on"`` stream a left-deep
        sorted triple product block-by-block, ``"off"`` materializes every
        intermediate (see ``docs/fusion.md``).

    Differences from the base class, both preserving the historical
    defaults of the functions this canonicalizes:

    * ``algorithm`` defaults to ``"hash"`` (the chain surface's long-time
      default) rather than ``"auto"``; pass ``"auto"`` explicitly to take
      each stage's algorithm from the :class:`~repro.core.chain.ChainPlan`.
    * ``engine`` additionally accepts ``"auto"`` (every stage on the
      batched ``"fast"`` engine).
    * ``plan`` holds a :class:`~repro.core.chain.ChainPlan` (association
      order + stage choices), not an executable kernel plan.
    """

    algorithm: str = "hash"
    complement: bool = False
    fuse: str = "auto"

    _WIRE_TYPE = "chain"
    _WIRE_FIELDS = SpgemmOptions._WIRE_FIELDS + ("complement", "fuse")
    _EXTRA_ENGINES = _CHAIN_ENGINES

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.complement, bool):
            raise ConfigError(
                f"complement must be a bool, got {self.complement!r}"
            )
        if self.fuse not in VALID_FUSE:
            raise invalid_choice("fuse", self.fuse, list(VALID_FUSE))

    def _check_plan(self) -> None:
        # The chain surface carries a ChainPlan (association order + stage
        # choices); the masked surface carries an executable plan with
        # ``.execute`` (a MaskedSpgemmPlan).  Each entry point re-checks the
        # concrete type it needs; here both shapes are admissible.
        if self.plan is None:
            return
        from .chain import ChainPlan  # deferred: chain.py imports us

        if isinstance(self.plan, ChainPlan):
            return
        super()._check_plan()


#: Wire ``type`` tag -> options class, for :func:`options_from_wire`.
WIRE_OPTION_TYPES: "dict[str, type[SpgemmOptions]]" = {
    SpgemmOptions._WIRE_TYPE: SpgemmOptions,
    ChainOptions._WIRE_TYPE: ChainOptions,
}


def options_from_wire(payload: dict) -> SpgemmOptions:
    """Dispatch a wire options dict to the class named by its ``type`` tag.

    The single request parser shared by ``python -m repro`` and the
    :mod:`repro.serve` protocol: ``{"type": "spgemm", ...}`` builds a
    :class:`SpgemmOptions`, ``{"type": "chain", ...}`` a
    :class:`ChainOptions`; anything else raises
    :class:`~repro.errors.ConfigError` listing the valid tags.
    """
    if not isinstance(payload, dict):
        raise ConfigError(
            f"wire options must be a dict, got {type(payload).__name__}"
        )
    tag = payload.get("type", "spgemm")
    cls = WIRE_OPTION_TYPES.get(tag)
    if cls is None:
        raise invalid_choice("options type", tag, list(WIRE_OPTION_TYPES))
    return cls.from_wire(payload)
