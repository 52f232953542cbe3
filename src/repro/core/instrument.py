"""Operation-count instrumentation shared by all executable kernels.

The machine-level performance model (:mod:`repro.perfmodel`) needs *exact*
operation counts — hash probes, heap pushes/pops, sort element counts, bytes
touched.  Rather than modelling them twice, the executable kernels emit them
through a :class:`KernelStats` collector when one is supplied, and the
perfmodel's closed-form count functions are cross-validated against these
measured counts in the test suite.

Counters and spans land in one report: when a run is traced
(:mod:`repro.observability`), the dispatcher snapshots the collector around
the kernel and attaches the per-call deltas to the root span, and the
kernel's per-phase wall times flow back into the ``*_seconds`` counters
here — so a single ``KernelStats`` carries both the operation ledger and
the phase timing of everything merged into it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["KernelStats", "EXTRA_SPAN_COUNTERS"]

#: Trace-only counter keys sanctioned on spans *in addition to* the
#: :class:`KernelStats` fields.  The span-discipline contract (see
#: ``docs/static-analysis.md``) requires every literal counter key at a
#: tracer seam to be a declared field of the instrumentation schema so
#: traces and stats ledgers reconcile.  The extras describe the call, not
#: an operation count: ``nnz`` is the *result's* nonzero count, stamped on
#: the root span by the dispatcher; a batched call whose rows ran as
#: several thread parts adds ``parts`` (how many), ``part_seconds`` (their
#: summed wall) and ``part_seconds_max`` (the slowest part's), so
#: ``part_seconds_max * parts / part_seconds`` is the load imbalance.
EXTRA_SPAN_COUNTERS = frozenset(
    {"nnz", "parts", "part_seconds", "part_seconds_max"}
)


@dataclass
class KernelStats:
    """Mutable per-run operation counters.

    All counters are totals across the whole multiplication.  ``per_thread``
    holds ``(compute_ops, flop)`` pairs indexed by simulated thread id when
    the kernel was run with a thread partition.
    """

    #: scalar multiply-accumulate operations performed (= flop executed)
    flops: int = 0
    #: hash-table probe steps (scalar kernels: one per slot inspected)
    hash_probes: int = 0
    #: hash-table insertions (distinct keys placed)
    hash_inserts: int = 0
    #: probe-sequence starts (one per table access, across all phases)
    hash_accesses: int = 0
    #: vectorized probe steps (HashVector: one per chunk inspected)
    vector_probes: int = 0
    #: heap push operations
    heap_pushes: int = 0
    #: heap pop operations
    heap_pops: int = 0
    #: elements passed through an output sort
    sorted_elements: int = 0
    #: entries written to the output structure
    output_nnz: int = 0
    #: dense-accumulator (SPA) touches
    spa_touches: int = 0
    #: intermediate products that survived a fused mask (``masked_spgemm``);
    #: ``flops - masked_kept`` is the work fusion kept off the output path
    masked_kept: int = 0
    #: rows processed
    rows: int = 0
    #: shm-sanitizer audit checks performed (``REPRO_SANITIZE=shm``):
    #: segment digests, claim registrations, block/claim comparisons
    sanitize_checks: int = 0
    #: shm-sanitizer violations observed (nonzero only on runs that raised
    #: ``SanitizerError`` — the counter lands on the span before the raise)
    sanitize_violations: int = 0
    #: inspector–executor plan-cache hits (``spgemm(..., plan_cache=...)``)
    plan_hits: int = 0
    #: inspector–executor plan-cache misses (inspection had to run)
    plan_misses: int = 0
    #: wall-clock seconds spent in plan inspection (symbolic/structure phase)
    inspect_seconds: float = 0.0
    #: wall-clock seconds spent in plan numeric-only executions
    execute_seconds: float = 0.0
    #: wall-clock seconds in the symbolic phase (filled on traced runs)
    symbolic_seconds: float = 0.0
    #: wall-clock seconds in the numeric phase (filled on traced runs)
    numeric_seconds: float = 0.0
    #: wall-clock seconds in output sorting/extraction (filled on traced runs)
    sort_seconds: float = 0.0
    #: per-simulated-thread (ops, flop) pairs
    per_thread: "list[tuple[int, int]]" = field(default_factory=list)

    def collision_factor(self) -> float:
        """Average probes per probe-sequence start — the paper's ``c``.

        ``c = 1`` means no collisions (every probe lands on its home slot).
        Returns 1.0 when no probing happened at all.
        """
        if self.hash_probes == 0 or self.hash_accesses == 0:
            return 1.0
        return self.hash_probes / self.hash_accesses

    def scalar_snapshot(self) -> "dict[str, float]":
        """Current value of every numeric counter, by field name.

        The observability layer diffs two snapshots to attribute counter
        deltas to one traced call; list-valued fields (``per_thread``) are
        deliberately excluded.
        """
        out: "dict[str, float]" = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)):
                out[f.name] = value
        return out

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another collector's counts into this one.

        Driven by ``dataclasses.fields`` so a counter added to the class is
        merged by construction — the previous hand-enumerated field list
        silently dropped any counter it predated.  Numbers add; lists
        extend; any other field type is a programming error surfaced loudly
        rather than skipped.
        """
        for f in dataclasses.fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, (int, float)):
                setattr(self, f.name, mine + theirs)
            else:
                raise TypeError(
                    f"KernelStats.merge does not know how to combine field "
                    f"{f.name!r} of type {type(mine).__name__}"
                )
