"""``oneshot``: fresh calls on never-repeating operands, no plan cache.

Selection, kernel symbolic/numeric/sort, masked inspection and chain
planning do their full work on every op; the plan and serve layers do
none.  Ops are written as a user writes them: ``algorithm="auto"``,
``engine="fast"``.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import scipy.sparse as sp

from repro import multiply_chain, plan_chain, spgemm
from repro.apps.triangles import count_triangles
from repro.autotune.selector import resolve_auto

import inputs
from closed_loop import matrix_bytes
from common import bench_span, check_close, scipy_reference

#: One round of ops: ``(kind, operand class, sort_output)``.  A round
#: holds one op of each class the workload is defined by, and each A·A
#: class once sorted and once unsorted, so no class carries more weight
#: than another.
ROUND = (
    ("aa", "er", True), ("aa", "er", False),
    ("aa", "g500", True), ("aa", "g500", False),
    ("aa", "fem", True), ("aa", "fem", False),
    ("aa", "econ", True), ("aa", "econ", False),
    ("tri", "er", None), ("tri", "g500", None),
    ("rap", "mesh", None),
)


class Product:
    """``spgemm(A, A, algorithm="auto", engine="fast")``."""

    def __init__(self, a, cls: str, sort_output: bool) -> None:
        self.a = a
        self.sort_output = sort_output
        self.kind = f"{cls}.aa" + ("" if sort_output else ".unsorted")
        self.scipy_s = None

    def plain(self):
        return spgemm(self.a, self.a, algorithm="auto", engine="fast",
                      sort_output=self.sort_output)

    def traced(self, acc):
        with bench_span(acc.tracer, "resolve_auto", "autotune"):
            algorithm, _ = resolve_auto(
                self.a, self.a, sort_output=self.sort_output
            )
        with bench_span(acc.tracer, "spgemm", "core"):
            c = spgemm(self.a, self.a, algorithm=algorithm, engine="fast",
                       sort_output=self.sort_output, tracer=acc.tracer,
                       stats=acc.core)
        acc.core_bytes += matrix_bytes(self.a, self.a, c)
        return c

    def check(self, c):
        s = self.a.to_scipy()
        t0 = time.perf_counter()
        ref = s @ s
        self.scipy_s = time.perf_counter() - t0
        return check_close(c, ref)


class Triangles:
    """``count_triangles(G, engine="fast")`` (masked, plan-free)."""

    def __init__(self, g, cls: str) -> None:
        self.g = g
        self.kind = f"{cls}.triangles"

    def plain(self):
        return count_triangles(self.g, engine="fast")

    def traced(self, acc):
        with bench_span(acc.tracer, "count_triangles", "apps"):
            n = count_triangles(self.g, engine="fast", tracer=acc.tracer)
        return n

    def check(self, n):
        if not isinstance(n, (int, np.integer)):
            return f"triangle count is {type(n).__name__}, not an integer"
        expect = triangles_scipy(self.g.to_scipy())
        return None if int(n) == expect else f"{n} triangles, expected {expect}"


def triangles_scipy(s) -> int:
    """Exact triangle count with scipy: order vertices by degree, then
    every triangle is one wedge of ``L @ U`` closed by an edge, seen from
    both of its higher-numbered ends."""
    s = (s != 0).astype(np.int64)
    order = np.argsort(np.diff(s.indptr), kind="stable")
    s = s[order][:, order]
    wedges = sp.tril(s, -1, format="csr") @ sp.triu(s, 1, format="csr")
    return int(wedges.multiply(s).sum()) // 2


class Galerkin:
    """``multiply_chain([R, A, P], algorithm="auto", engine="auto")``."""

    kind = "mesh.rap"

    def __init__(self, rap) -> None:
        self.rap = list(rap)

    def plain(self):
        return multiply_chain(self.rap, algorithm="auto", engine="auto")

    def traced(self, acc):
        with bench_span(acc.tracer, "plan_chain", "chain.plan"):
            plan = plan_chain(self.rap)
        with bench_span(acc.tracer, "multiply_chain", "chain.exec"):
            c = multiply_chain(self.rap, algorithm="auto", engine="auto",
                               plan=plan, tracer=acc.tracer)
        acc.chain_flops.append(plan.flop)
        return c

    def check(self, c):
        return check_close(c, scipy_reference(self.rap))


def make_op(spec, sizes: inputs.Sizes, seed: int):
    kind, cls, sort_output = spec
    if kind == "aa":
        gen = {
            "er": lambda: inputs.er(sizes.rmat_scale, sizes.rmat_ef, seed),
            "g500": lambda: inputs.g500(sizes.rmat_scale, sizes.rmat_ef, seed),
            "fem": lambda: inputs.fem(sizes, seed),
            "econ": lambda: inputs.econ(sizes, seed),
        }[cls]
        return Product(gen(), cls, sort_output)
    if kind == "tri":
        scale = sizes.tri_g500_scale if cls == "g500" else sizes.tri_er_scale
        return Triangles(
            inputs.graph(scale, sizes.tri_ef, cls == "g500", seed), cls
        )
    return Galerkin(inputs.mesh_rap(sizes.mesh_side, seed))


def round_ops(sizes: inputs.Sizes, seed: int, rnd: int):
    """The ops of round ``rnd``; every op gets its own generator seed."""
    return [
        make_op(spec, sizes, inputs.sub_seed(seed, rnd, i))
        for i, spec in enumerate(ROUND)
    ]


def setup(sizes: inputs.Sizes, seed: int):
    """Generate round 0 and run it once, untimed, so lazy imports and
    first-call allocations are paid before the first timed op."""

    def build():
        for op in round_ops(sizes, seed, 0):
            op.plain()
        return None

    return build


def op_stream(sizes: inputs.Sizes, seed: int):
    """Rounds 1, 2, ... generated one op at a time, outside the timer."""
    for rnd in itertools.count(1):
        for i, spec in enumerate(ROUND):
            yield make_op(spec, sizes, inputs.sub_seed(seed, rnd, i))
