"""layering: the package dependency DAG is a contract, not a convention.

The ROADMAP's north star — refactor kernels freely while apps and benches
stay stable — only works if dependencies point one way: ``core`` must
never know about ``apps`` (or the linter that audits it), and the
observability layer must stay *import-optional* from the kernels so a
stripped-down deployment can drop it.  Python enforces none of this; a
single convenience import quietly inverts a layer and the next refactor
deadlocks on an import cycle.

This project-scope checker consumes the module-level import edges from
:mod:`repro.analysis.graph` and enforces:

* **the DAG** — each top-level ``repro`` subpackage may import only the
  layers listed in ``ALLOWED_IMPORTS`` (module-level imports; every layer
  may import itself, stdlib and third-party modules are ignored);
* **lazy-import escape hatch** — imports inside function bodies are
  exempt from the DAG (the sanctioned way to break a cycle, e.g.
  ``matrix/stats.py`` lazily borrowing ``core.symbolic``) — *except* when
  the target is ``apps`` or ``analysis``, which nothing else may import
  even lazily (``apps`` is the top of the *library* DAG; ``analysis`` is
  a dev tool, not a library).  The one sanctioned exception is ``serve``:
  the serving tier sits *above* apps — it dispatches app jobs — so it may
  import ``apps`` like any other layer below it;
* **import-optional observability** — ``core`` modules may bind only
  ``NULL_TRACER`` and ``tracer_from_env`` from ``repro.observability`` at
  module level: kernels accept any tracer object duck-typed, and the
  null-object default keeps the hot path free of conditional imports.
  (``apps``/``serve`` sit above both layers and may import freely.)

The root package ``__init__`` and ``__main__`` modules are exempt — they
are the public facade and *should* re-export across layers.
"""

from __future__ import annotations

from ..context import ProjectContext
from ..registry import Checker, register

#: Target layers each top-level subpackage may import at module level.
#: Importing within your own layer is always allowed.
ALLOWED_IMPORTS: "dict[str, frozenset[str]]" = {
    "errors": frozenset(),
    "semiring": frozenset({"errors"}),
    "machine": frozenset({"errors"}),
    "observability": frozenset({"errors"}),
    "matrix": frozenset({"errors", "semiring"}),
    "rmat": frozenset({"errors", "matrix", "semiring"}),
    "datasets": frozenset({"errors", "matrix", "rmat", "semiring"}),
    "core": frozenset({"errors", "semiring", "matrix", "observability"}),
    "distributed": frozenset({"errors", "matrix", "core", "semiring"}),
    "apps": frozenset({"errors", "matrix", "core", "semiring", "observability"}),
    "serve": frozenset({
        "errors", "semiring", "matrix", "core", "observability", "apps",
        "autotune",
    }),
    "perfmodel": frozenset({"errors", "machine", "matrix", "core"}),
    "autotune": frozenset({
        "errors", "machine", "matrix", "core", "perfmodel", "datasets",
    }),
    "profiling": frozenset({"errors", "observability"}),
    "analysis": frozenset(),
}

#: Layers nothing else may import, even lazily.
_FORBIDDEN_TARGETS = frozenset({"apps", "analysis"})

#: Layers sitting *above* apps that may import it: the serving tier is the
#: process-level facade dispatching app jobs, so it consumes apps the way
#: apps consume core.
_APP_CONSUMERS = frozenset({"serve"})

#: The only observability names kernels may bind at module level.
_SANCTIONED_TRACER_NAMES = frozenset({"NULL_TRACER", "tracer_from_env"})

_ROOT = "repro"


def _layer(module: str) -> "str | None":
    """Top-level ``repro`` subpackage of ``module`` (None for outsiders)."""
    parts = module.split(".")
    if parts[0] != _ROOT:
        return None
    if len(parts) == 1:
        return ""  # the root package itself
    return parts[1]


@register
class LayeringChecker(Checker):
    rule = "layering"
    description = (
        "package imports follow the dependency DAG; core never imports "
        "apps/analysis; observability stays import-optional from kernels"
    )
    scope = "project"

    def check(self, project: ProjectContext):
        graph = project.graph().imports
        if not any(m == _ROOT or m.startswith(_ROOT + ".") for m in graph.modules):
            return
        for edge in graph.edges:
            src_layer = _layer(edge.src)
            if src_layer is None:
                continue
            # The facade re-exports across layers by design.
            if src_layer == "" or edge.src.rsplit(".", 1)[-1] == "__main__":
                continue
            dst_layer = _layer(edge.dst)
            if dst_layer is None or dst_layer in ("", src_layer):
                continue
            ctx = graph.modules.get(edge.src)
            if ctx is None:
                continue
            yield from self._check_edge(ctx, edge, src_layer, dst_layer)

    def _check_edge(self, ctx, edge, src_layer, dst_layer):
        if dst_layer == "apps" and src_layer in _APP_CONSUMERS:
            return  # the serving tier legitimately sits above apps
        if dst_layer in _FORBIDDEN_TARGETS and src_layer != dst_layer:
            how = "lazily (inside a function)" if edge.lazy else "at module level"
            yield self.finding(
                ctx,
                edge.lineno,
                f"{src_layer} imports repro.{dst_layer} {how} — "
                f"{'apps sit at the top of the DAG' if dst_layer == 'apps' else 'analysis is a dev tool, not a library'}; "
                "nothing below may depend on it",
                col=0,
            )
            return
        if edge.lazy:
            return  # sanctioned cycle-breaking escape hatch
        allowed = ALLOWED_IMPORTS.get(src_layer)
        if allowed is not None and dst_layer not in allowed:
            yield self.finding(
                ctx,
                edge.lineno,
                f"{src_layer} may not import repro.{dst_layer} at module "
                f"level (allowed: {', '.join(sorted(allowed)) or 'nothing'}); "
                "move the dependency down the DAG or make it lazy with a "
                "justification",
                col=0,
            )
            return
        if (
            src_layer == "core"
            and dst_layer == "observability"
            and edge.names
            and not set(edge.names) <= _SANCTIONED_TRACER_NAMES
        ):
            extra = sorted(set(edge.names) - _SANCTIONED_TRACER_NAMES)
            yield self.finding(
                ctx,
                edge.lineno,
                f"core binds {', '.join(extra)} from repro.observability at "
                "module level — kernels must keep observability "
                "import-optional (only NULL_TRACER / tracer_from_env; "
                "accept tracer objects duck-typed)",
                col=0,
            )
