"""``replay``: fixed sparsity patterns, new values on every op, one warm
``PlanCache``.

This is the iterative regime (AMG re-setup on a fixed mesh, late Markov
clustering): fingerprint lookup and numeric replay do almost all the work,
selection and inspection none.

New values are the pattern's base values times a power of two drawn per
op.  Power-of-two scaling is exact in floating point, so the fresh
in-process result on the base values, scaled the same way, is bit-for-bit
the fresh result on the op's own operands, and the scipy product scales
the same way.  That makes checking every op affordable: each result must
equal the scaled fresh base result bit for bit.  Before the loop, each
pattern's fresh base result is checked against scipy, and one scaled op
through the cache against a real fresh call on its own operands, which
ties the scaled base result to both references without putting the
fresh calls' memory peaks inside the measured rounds.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro import (
    PlanCache,
    masked_spgemm,
    multiply_chain,
    plan_chain,
    spgemm,
)
from repro.matrix.ops import degree_reorder, triangular_split

import inputs
from common import bench_span, check_bits, check_close, scipy_reference

#: One round of ops: ``(kind, pattern)``, one op on each pattern, so no
#: pattern carries more weight than another.
ROUND = (
    ("ab", "er"), ("ab", "g500"), ("ab", "fem"), ("ab", "econ"),
    ("masked", "er"), ("masked", "g500"),
    ("chain", "mesh"),
)

#: Scaling exponents are drawn from [-EXP, EXP].
EXP = 20


class Pattern:
    """Base operands of one pattern and its fresh in-process result."""

    def __init__(self, kind: str, name: str, operands: list) -> None:
        self.kind = kind
        self.name = name
        self.operands = operands
        self.fresh = None
        self.error = None

    def call(self, operands, cache, tracer=None, stats=None):
        """The user's call on ``operands`` (through ``cache`` if given)."""
        if self.kind == "ab":
            a, b = operands
            return spgemm(a, b, algorithm="auto", engine="fast",
                          plan_cache=cache, tracer=tracer, stats=stats)
        if self.kind == "masked":
            low, up, mask = operands
            if cache is None:
                return masked_spgemm(low, up, mask, engine="fast")
            return cache.execute_masked(low, up, mask, engine="fast",
                                        tracer=tracer, stats=stats)
        return multiply_chain(operands, algorithm="auto", engine="auto",
                              plan_cache=cache, tracer=tracer)

    def scaled(self, exps) -> list:
        return [
            inputs.with_values(m, m.data * np.ldexp(1.0, int(e)))
            for m, e in zip(self.operands, exps)
        ]


def build_patterns(sizes: inputs.Sizes, seed: int) -> "dict[tuple, Pattern]":
    s = inputs.sub_seed
    out = {}
    for kind, name in dict.fromkeys(ROUND):
        if kind == "ab":
            gen = {
                "er": lambda k: inputs.er(sizes.rmat_scale, sizes.rmat_ef, s(seed, 7, k)),
                "g500": lambda k: inputs.g500(sizes.rmat_scale, sizes.rmat_ef, s(seed, 8, k)),
                "fem": lambda k: inputs.fem(sizes, s(seed, 9, k)),
                "econ": lambda k: inputs.econ(sizes, s(seed, 10, k)),
            }[name]
            ops = [gen(0), gen(1)]
        elif kind == "masked":
            scale = sizes.tri_g500_scale if name == "g500" else sizes.tri_er_scale
            g = inputs.graph(scale, sizes.tri_ef, name == "g500",
                             s(seed, 11, int(name == "g500")))
            # The triangle pipeline's product: degree-ordered L·U masked by A.
            g, _ = degree_reorder(g)
            low, up = triangular_split(g)
            ops = [low, up, g]
        else:
            ops = list(inputs.mesh_rap(sizes.replay_mesh_side, s(seed, 12)))
        out[(kind, name)] = Pattern(kind, name, ops)
    return out


class ReplayOp:
    def __init__(self, pattern: Pattern, cache: PlanCache, exps) -> None:
        self.p = pattern
        self.cache = cache
        self.exps = exps
        self.operands = pattern.scaled(exps)
        self.kind = f"{pattern.name}.{pattern.kind}"

    def plain(self):
        return self.p.call(self.operands, self.cache)

    def traced(self, acc):
        p = self.p
        if p.kind == "chain":
            with bench_span(acc.tracer, "plan_chain", "chain.plan"):
                plan = plan_chain(self.operands)
            with bench_span(acc.tracer, "multiply_chain", "chain.exec"):
                c = multiply_chain(self.operands, algorithm="auto",
                                   engine="auto", plan=plan,
                                   plan_cache=self.cache, tracer=acc.tracer)
            acc.chain_flops.append(plan.flop)
            return c
        with bench_span(acc.tracer, "plan_cache", "plan.lookup"):
            c = p.call(self.operands, self.cache, tracer=acc.tracer,
                       stats=acc.masked if p.kind == "masked" else None)
        return c

    def check(self, c):
        p = self.p
        if p.error is not None:
            return p.error
        shift = int(sum(self.exps))
        return check_bits(c, p.fresh.indptr, p.fresh.indices,
                          np.ldexp(p.fresh.data, shift))


def _exps(rng, pattern: Pattern):
    # The chain scales only A (R and P keep their unit aggregation values).
    if pattern.kind == "chain":
        return (0, int(rng.integers(-EXP, EXP + 1)), 0)
    if pattern.kind == "masked":
        return (*rng.integers(-EXP, EXP + 1, size=2), 0)
    return tuple(rng.integers(-EXP, EXP + 1, size=2))


def setup(sizes: inputs.Sizes, seed: int):
    """Generate the patterns and warm a fresh ``PlanCache`` on each."""

    def build():
        patterns = build_patterns(sizes, seed)
        cache = PlanCache()
        for p in patterns.values():
            p.call(p.operands, cache)
        return patterns, cache

    return build


def prepare_checks(patterns, cache: PlanCache, seed: int) -> None:
    """Untimed: each pattern's fresh in-process result on its base values,
    checked against scipy, and one scaled op through ``cache`` checked
    bit for bit against a fresh call on the same operands.  A pattern that
    fails keeps the message, and every op on it counts as failed."""
    rng = np.random.default_rng([seed, 98])
    for p in patterns.values():
        p.fresh = p.call(p.operands, None)
        probe = ReplayOp(p, cache, _exps(rng, p))
        got = probe.plain()
        want = p.call(probe.operands, None)
        p.error = (
            check_close(p.fresh, scipy_reference(
                p.operands, masked=p.kind == "masked"))
            or check_bits(got, want.indptr, want.indices, want.data)
        )


def op_stream(patterns, cache: PlanCache, seed: int):
    rng = np.random.default_rng([seed, 99])
    for _ in itertools.count():
        for key in ROUND:
            p = patterns[key]
            yield ReplayOp(p, cache, _exps(rng, p))
