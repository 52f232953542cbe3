"""Rule ``accum-order`` — floating-point accumulation must be an ordered fold.

The fast engine's bit-for-bit contract (PR 1) hinges on one numerical rule:
every accumulation of intermediate products must apply ``add`` one value at
a time, in arrival order — the sequence the scalar kernels execute.
``numpy.ufunc.reduceat`` (and ``ufunc.reduce``) may evaluate *pairwise* for
accuracy, which produces different float64 bits than the ordered fold and
silently breaks ``engine="fast"``'s equivalence with the faithful kernels
(see :mod:`repro.core.hash_batch` and
:meth:`repro.semiring.Semiring.accumulate_segments`).

Ordered folds are ``ufunc.at``
(:meth:`~repro.semiring.Semiring.accumulate_segments`), the batched
kernels' first-touch fold (``ufunc.at`` of every later product into its
coordinate's first product, in arrival order —
:mod:`repro.core.hash_batch`) and plan replay's rank-major fold
(:meth:`~repro.semiring.Semiring.fold_ranks`: one elementwise ``add`` per
rank of *k*-th segment values, so each segment still applies its values
one at a time in arrival order).

Pairwise reduction **is** legitimate in one place: the ESC family's
sort-then-compress boundary, where the kernel's own contract is "sorted
merge", not "scalar-kernel replica".  Those call sites carry a
``# repro-lint: disable=accum-order`` comment with a one-line
justification; everything else is a finding.

Flags:

* any ``*.reduceat(...)`` attribute use (``np.add.reduceat``,
  ``semiring.add.reduceat``, ...);
* calls to ``reduce_segments`` — the sanctioned *pairwise* wrapper, allowed
  only at whitelisted ESC boundaries (ordered paths must use
  ``accumulate_segments`` / ``np.add.at`` instead);
* ``*.add.reduce(...)`` — a ufunc reduction on an additive monoid.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..context import FileContext
from ..findings import Finding
from ..registry import Checker, register


@register
class AccumulationOrderChecker(Checker):
    rule = "accum-order"
    description = (
        "pairwise float reduction (ufunc.reduceat / reduce_segments) outside "
        "whitelisted ESC segment boundaries"
    )
    scope = "file"

    def check(self, ctx: FileContext) -> "Iterator[Finding]":
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "reduceat":
                yield self.finding(
                    ctx,
                    node.lineno,
                    "ufunc.reduceat sums pairwise and drifts from the scalar "
                    "kernels' ordered fold by ULPs; use "
                    "Semiring.accumulate_segments / np.add.at, or whitelist a "
                    "legitimate ESC sort-boundary use with a justification",
                    node.col_offset,
                )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                leaf = name.rsplit(".", 1)[-1]
                if leaf == "reduce_segments":
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "reduce_segments is the pairwise (reduceat) wrapper, "
                        "allowed only at ESC sort boundaries; accumulation "
                        "paths must use the ordered accumulate_segments",
                        node.col_offset,
                    )
                elif leaf == "reduce" and ".add." in f".{name}":
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "ufunc.reduce on an additive monoid may sum pairwise; "
                        "use an ordered fold (np.add.at / accumulate_segments)",
                        node.col_offset,
                    )
