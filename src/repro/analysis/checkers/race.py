"""The ``race`` checker family: statically prove the write-ownership model.

The one parallel tier (:mod:`repro.core.threads`) rests on the paper's
Section 4.3 discipline — every part owns a *disjoint* row range of the
output, works in its own thread's scratch arena and treats the operands
as read-only.  Parts reach the shared
:class:`~concurrent.futures.ThreadPoolExecutor` through its ``submit``
dispatch point, and everything reachable from a dispatched callable is a
worker context.  These five project-scope rules make the discipline
machine-checked:

* ``race-operand-write`` — a worker mutates an operand it received from a
  shared source (an unpacked view, a read of a module-global mailbox), or
  any worker-reachable code re-enables writability of a view
  (``x.flags.writeable = True``).  Operands are read-only in workers, full
  stop.
* ``race-block-overlap`` — slice writes into a module-global array from
  worker-reachable code whose range cannot be disjoint across workers:
  either two different worker entry points write the same shared array, or
  the written range is constant (``OUT[0:8]``, ``OUT[:]``) instead of
  derived from the task assignment.
* ``race-global-mutation`` — mutation of module globals or of an imported
  module's attributes from code reachable from any dispatching context.
  Every thread sees such a write at once (and a forked child keeps its own
  copy), so it races with every other part.  Sanctioned setup paths carry
  a ``# repro-lint: disable=race-global-mutation`` with a justification.
* ``race-spawn-capture`` — a lambda or nested function handed to a
  dispatch point.  A closure drags its enclosing frame's state into the
  worker, and the same call handed to a process pool could not be
  pickled; part bodies are module-level functions that read only their
  arguments.
* ``race-unlocked-shared`` — a module-global dict/list mutated from more
  than one context (two worker entries, or a worker and its dispatcher)
  with no enclosing ``with <lock>`` at some site.

All five share one model of the tree, built from the project graph's
dispatch points (:attr:`~repro.analysis.graph.CallGraph.dispatches`),
write events (:meth:`~repro.analysis.graph.CallGraph.writes_of`) and call
reachability.  The rules self-gate: a tree with no dispatch point (every
fixture tree but ``race_bad``) produces no findings.  The observability
layer is exempt by construction — it keeps deliberately per-context
observational state (the env tracer) that never feeds results back into
kernels; traced==untraced bit-identity is property-tested.
"""

from __future__ import annotations

import ast

from ..context import ProjectContext
from ..graph import CallGraph, Dispatch, ProjectGraph, WriteEvent, module_bindings
from ..registry import Checker, register

#: Event kinds that mutate the object behind a name (vs. rebinding it).
_MUTATION_KINDS = frozenset(
    {"subscript-store", "attr-store", "mutating-call", "inplace-call", "del-subscript"}
)

#: Event kinds that mutate a *collection* (the dict/list-shaped hazards).
_COLLECTION_KINDS = frozenset({"mutating-call", "del-subscript"})

#: Path fragments exempt from the race family (see module docstring).
_EXEMPT_FRAGMENTS = ("observability/",)


def _is_exempt(relpath: str) -> bool:
    return any(frag in relpath or relpath.endswith(frag) for frag in _EXEMPT_FRAGMENTS)


def _module_globals(tree: "ast.Module") -> "frozenset[str]":
    """Names assigned at module top level (the fork-inherited state)."""
    out: "set[str]" = set()
    for node in tree.body:
        targets: "list[ast.expr]" = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                out.update(e.id for e in target.elts if isinstance(e, ast.Name))
    return frozenset(out)


def _imported_names(tree: "ast.Module") -> "frozenset[str]":
    """Every name bound by an import anywhere in the file (incl. lazy)."""
    out: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.asname or a.name for a in node.names)
    return frozenset(out)


def _under_lock(event: WriteEvent) -> bool:
    """True when an enclosing ``with`` context manager looks like a lock."""
    return any("lock" in ctx.lower() for ctx in event.locks)


class _RaceModel:
    """Everything the five rules share, built once per project per run."""

    def __init__(self, project: ProjectContext, graph: ProjectGraph) -> None:
        self.project = project
        self.calls: CallGraph = graph.calls
        self.imports = graph.imports
        self.dispatches: "list[Dispatch]" = list(graph.calls.dispatches)
        self.entries: "set[str]" = graph.calls.worker_entries()
        self.parents: "set[str]" = {d.caller for d in self.dispatches}
        #: context label -> set of reachable def qualnames
        self.reach: "dict[str, set[str]]" = {}
        for entry in sorted(self.entries):
            self.reach[f"worker:{entry}"] = self.calls.reachable_from({entry})
        for caller in sorted(self.parents):
            self.reach[f"parent:{caller}"] = self.calls.reachable_from({caller})
        self._globals_cache: "dict[str, frozenset[str]]" = {}
        self._imports_cache: "dict[str, frozenset[str]]" = {}

    @classmethod
    def of(cls, project: ProjectContext) -> "_RaceModel":
        model = getattr(project, "_race_model", None)
        if model is None or model.project is not project:
            model = cls(project, project.graph())
            project._race_model = model  # type: ignore[attr-defined]
        return model

    # -- per-module vocabulary ------------------------------------------
    def globals_of(self, qual: str) -> "frozenset[str]":
        ctx = self.calls.defs[qual].ctx
        cached = self._globals_cache.get(ctx.relpath)
        if cached is None:
            cached = _module_globals(ctx.tree)
            self._globals_cache[ctx.relpath] = cached
        return cached

    def imports_of(self, qual: str) -> "frozenset[str]":
        ctx = self.calls.defs[qual].ctx
        cached = self._imports_cache.get(ctx.relpath)
        if cached is None:
            cached = _imported_names(ctx.tree)
            self._imports_cache[ctx.relpath] = cached
        return cached

    # -- reachability views ---------------------------------------------
    def all_context_quals(self) -> "set[str]":
        """Defs reachable from any process context (worker or parent)."""
        out: "set[str]" = set()
        for quals in self.reach.values():
            out |= quals
        return out

    def worker_quals(self) -> "set[str]":
        out: "set[str]" = set()
        for label, quals in self.reach.items():
            if label.startswith("worker:"):
                out |= quals
        return out

    def contexts_reaching(self, qual: str) -> "set[str]":
        return {label for label, quals in self.reach.items() if qual in quals}

    def checkable(self, quals: "set[str]") -> "list[str]":
        """Sorted, non-exempt subset of ``quals`` that have definitions."""
        return sorted(
            q
            for q in quals
            if q in self.calls.defs and not _is_exempt(self.calls.defs[q].ctx.relpath)
        )


class _RaceChecker(Checker):
    """Shared gating for the family: only run on trees that dispatch."""

    scope = "project"

    def check(self, project: ProjectContext):
        graph = project.graph()
        if not graph.calls.dispatches:
            return
        yield from self._check_model(_RaceModel.of(project))

    def _check_model(self, model: _RaceModel):
        raise NotImplementedError


# --------------------------------------------------------------------------
# (a) operands are read-only in workers
# --------------------------------------------------------------------------

def _tainted_operands(entry_def, model: _RaceModel) -> "set[str]":
    """Names in a worker entry bound from a shared-operand source.

    A source is a call whose bare name contains ``unpack`` (a shared view
    reconstruction) or a subscript read of a module global (a mailbox).
    Tuple targets taint every element.
    """
    tainted: "set[str]" = set()
    globals_ = model.globals_of(entry_def.qualname)
    for node in ast.walk(entry_def.node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        from_unpack = isinstance(value, ast.Call) and "unpack" in (
            _bare_name(value.func) or ""
        )
        base = value
        while isinstance(base, ast.Subscript):
            base = base.value
        from_mailbox = (
            isinstance(value, ast.Subscript)
            and isinstance(base, ast.Name)
            and base.id in globals_
        )
        if not (from_unpack or from_mailbox):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                tainted.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                tainted.update(
                    e.id for e in target.elts if isinstance(e, ast.Name)
                )
    return tainted


def _bare_name(func: ast.AST) -> "str | None":
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register
class OperandWriteChecker(_RaceChecker):
    rule = "race-operand-write"
    description = (
        "workers never mutate shared operands (unpacked views / "
        "module-global mailbox reads) and never re-enable writability of "
        "a view"
    )

    def _check_model(self, model: _RaceModel):
        calls = model.calls
        for entry in sorted(model.entries):
            d = calls.defs.get(entry)
            if d is None or _is_exempt(d.ctx.relpath):
                continue
            tainted = _tainted_operands(d, model)
            if tainted:
                yield from self._flag_writes(model, entry, entry, tainted)
                yield from self._one_hop(model, d, entry, tainted)
        # writability flips anywhere worker-reachable, tainted or not:
        # turning a read-only view writable is always a contract violation.
        for qual in model.checkable(model.worker_quals()):
            d = calls.defs[qual]
            for event in calls.writes_of(qual):
                if (
                    event.kind == "attr-store"
                    and event.base.endswith(".flags.writeable")
                    and event.value_is_true
                ):
                    yield self.finding(
                        d.ctx,
                        event.lineno,
                        f"re-enables writability of {event.root!r} in "
                        "worker-reachable code — shared views stay "
                        "read-only for the life of the segment",
                        col=event.col,
                    )

    def _flag_writes(self, model, qual, witness, tainted):
        d = model.calls.defs[qual]
        for event in model.calls.writes_of(qual):
            if event.kind not in _MUTATION_KINDS or event.root not in tainted:
                continue
            if event.kind == "attr-store" and event.base.endswith(
                ".flags.writeable"
            ):
                continue  # the writability sweep below owns this shape

            how = {
                "subscript-store": "writes into",
                "attr-store": "rebinds an attribute of",
                "mutating-call": "calls a mutating method on",
                "inplace-call": "calls inplace=True on",
                "del-subscript": "deletes from",
            }[event.kind]
            yield self.finding(
                d.ctx,
                event.lineno,
                f"{how} shared operand {event.root!r} (worker entry "
                f"{witness}) — operands travel read-only; copy before "
                "mutating",
                col=event.col,
            )

    def _one_hop(self, model, entry_def, witness, tainted):
        """Follow tainted arguments one call deep into local helpers."""
        module = model.imports.module_names.get(entry_def.ctx.relpath)
        if module is None:
            return
        name_map, _ = module_bindings(module, entry_def.ctx, model.imports)
        local = {
            q.rsplit(".", 1)[-1]: q
            for q, dd in model.calls.defs.items()
            if dd.ctx is entry_def.ctx and dd.cls is None
        }
        for node in ast.walk(entry_def.node):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            target = local.get(node.func.id) or name_map.get(node.func.id)
            callee = model.calls.defs.get(target) if target else None
            if callee is None or _is_exempt(callee.ctx.relpath):
                continue
            params = [a.arg for a in callee.node.args.args]
            callee_tainted = {
                params[i]
                for i, arg in enumerate(node.args)
                if i < len(params)
                and isinstance(arg, ast.Name)
                and arg.id in tainted
            }
            if callee_tainted:
                yield from self._flag_writes(
                    model, callee.qualname, witness, callee_tainted
                )


# --------------------------------------------------------------------------
# (b) row-block writes into shared arrays must be disjoint
# --------------------------------------------------------------------------

@register
class BlockOverlapChecker(_RaceChecker):
    rule = "race-block-overlap"
    description = (
        "slice writes into shared module-global arrays from workers must "
        "come from one entry point and derive their range from the task"
    )

    def _check_model(self, model: _RaceModel):
        calls = model.calls
        # (base identity) -> set of worker entries whose closure writes it
        writers: "dict[tuple[str, str], set[str]]" = {}
        sites: "list[tuple[str, str, WriteEvent]]" = []
        for label, quals in model.reach.items():
            if not label.startswith("worker:"):
                continue
            entry = label[len("worker:"):]
            for qual in model.checkable(quals):
                d = calls.defs[qual]
                for event in calls.writes_of(qual):
                    if (
                        event.kind != "subscript-store"
                        or event.index_kind != "slice"
                        or event.root not in model.globals_of(qual)
                    ):
                        continue
                    key = (d.ctx.relpath, event.root)
                    writers.setdefault(key, set()).add(entry)
                    sites.append((entry, qual, event))
        seen: "set[tuple[str, int, int]]" = set()
        for entry, qual, event in sites:
            d = calls.defs[qual]
            site_id = (d.ctx.relpath, event.lineno, event.col)
            if site_id in seen:
                continue
            seen.add(site_id)
            entries = writers[(d.ctx.relpath, event.root)]
            if len(entries) > 1:
                yield self.finding(
                    d.ctx,
                    event.lineno,
                    f"shared array {event.root!r} is sliced-written by "
                    f"{len(entries)} worker entry points "
                    f"({', '.join(sorted(entries))}) — row-block ownership "
                    "cannot be disjoint",
                    col=event.col,
                )
            elif not event.index_names:
                yield self.finding(
                    d.ctx,
                    event.lineno,
                    f"writes a constant range of shared array {event.root!r}"
                    " — every worker writes the same slice; derive the "
                    "range from the task's block bounds",
                    col=event.col,
                )


# --------------------------------------------------------------------------
# (c) fork-inherited module globals are not worker-mutable
# --------------------------------------------------------------------------

@register
class GlobalMutationChecker(_RaceChecker):
    rule = "race-global-mutation"
    description = (
        "no mutation of fork-inherited module globals or imported-module "
        "attributes from process-context code (sanctioned sites carry a "
        "justified suppression)"
    )

    def _check_model(self, model: _RaceModel):
        calls = model.calls
        for qual in model.checkable(model.all_context_quals()):
            d = calls.defs[qual]
            globals_ = model.globals_of(qual)
            imports_ = model.imports_of(qual)
            for event in calls.writes_of(qual):
                if event.kind == "global-rebind":
                    yield self.finding(
                        d.ctx,
                        event.lineno,
                        f"rebinds module global {event.root!r} in "
                        "process-context code — fork children diverge "
                        "silently, spawn children never see it",
                        col=event.col,
                    )
                elif (
                    event.kind in _COLLECTION_KINDS
                    or (event.kind == "subscript-store" and event.index_kind == "index")
                ) and event.root in globals_:
                    yield self.finding(
                        d.ctx,
                        event.lineno,
                        f"mutates fork-inherited module global {event.root!r}"
                        " in process-context code — each process sees its "
                        "own copy; route state through the transport "
                        "instead (or suppress at a documented setup site)",
                        col=event.col,
                    )
                elif event.kind == "attr-store" and event.root in imports_:
                    yield self.finding(
                        d.ctx,
                        event.lineno,
                        f"assigns attribute {event.base!r} of an imported "
                        "module in process-context code — monkeypatching "
                        "module state is per-process and races with other "
                        "threads (suppress only at a documented site that "
                        "restores it)",
                        col=event.col,
                    )


# --------------------------------------------------------------------------
# (d) dispatched callables must survive spawn pickling
# --------------------------------------------------------------------------

@register
class SpawnCaptureChecker(_RaceChecker):
    rule = "race-spawn-capture"
    description = (
        "no lambda or nested function handed to a pool/process dispatch "
        "point (they cannot be pickled under the spawn start method)"
    )

    def _check_model(self, model: _RaceModel):
        for dispatch in model.dispatches:
            if dispatch.callable_kind not in ("lambda", "nested"):
                continue
            d = model.calls.defs.get(dispatch.caller)
            if d is None or _is_exempt(d.ctx.relpath):
                continue
            what = (
                "a lambda"
                if dispatch.callable_kind == "lambda"
                else "a function defined inside the dispatching function"
            )
            yield self.finding(
                d.ctx,
                dispatch.lineno,
                f"hands {what} to {dispatch.method}(...) — it pickles by "
                "qualified name, so a spawned worker cannot import it; "
                "move it to module level",
                col=dispatch.col,
            )


# --------------------------------------------------------------------------
# (e) cross-context shared-collection mutation needs a lock
# --------------------------------------------------------------------------

@register
class UnlockedSharedChecker(_RaceChecker):
    rule = "race-unlocked-shared"
    description = (
        "a module-global dict/list mutated from more than one process "
        "context must hold a lock at every mutation site"
    )

    def _check_model(self, model: _RaceModel):
        calls = model.calls
        # base identity -> (contexts that mutate it, sites)
        contexts: "dict[tuple[str, str], set[str]]" = {}
        sites: "dict[tuple[str, str], list[tuple[str, WriteEvent]]]" = {}
        for qual in model.checkable(model.all_context_quals()):
            d = calls.defs[qual]
            globals_ = model.globals_of(qual)
            reaching = model.contexts_reaching(qual)
            for event in calls.writes_of(qual):
                is_collection_write = event.kind in _COLLECTION_KINDS or (
                    event.kind == "subscript-store" and event.index_kind == "index"
                )
                if not is_collection_write or event.root not in globals_:
                    continue
                key = (d.ctx.relpath, event.root)
                contexts.setdefault(key, set()).update(reaching)
                sites.setdefault(key, []).append((qual, event))
        for key in sorted(sites):
            if len(contexts[key]) < 2:
                continue
            for qual, event in sites[key]:
                if _under_lock(event):
                    continue
                d = calls.defs[qual]
                yield self.finding(
                    d.ctx,
                    event.lineno,
                    f"mutates shared {event.root!r} without a lock; it is "
                    f"touched from {len(contexts[key])} process contexts "
                    f"({', '.join(sorted(contexts[key]))})",
                    col=event.col,
                )
