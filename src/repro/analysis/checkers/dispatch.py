"""Rule ``kernel-dispatch`` — the algorithm table is well-formed.

The paper's central engineering claim is that many SpGEMM kernels coexist
behind one dispatch surface.  In this codebase that surface is one table,
``ALGORITHMS`` in ``core/spgemm.py``: each Table-1 row carries its kernels,
engine coverage, plan capability, output rule and what may select it, and
dispatch, engine resolution, the plan layer and the selectors all read the
row.  What can still drift is what the table is matched against:

* ``core/recipe.py`` — every Table-4 ``decision(...)`` must name a row
  marked ``selected_by="table4"``, and every such row must be named by one;
* every public ``*_spgemm(a, b, ...)`` entry point in ``core/`` must be
  some row's kernel, named in a row or in the ``AlgorithmInfo`` class that
  derives the batched kernel (or carry a ``# repro-lint: disable=kernel-dispatch``
  comment explaining why it is a deliberately separate surface, e.g.
  ``masked_spgemm``).

This is a *project-scope* checker: it activates only when the file set
being analyzed contains ``core/spgemm.py`` (so linting a stray file or a
test fixture tree does not demand the whole package), and it checks only
the files present in the set.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import names_used
from ..context import FileContext, ProjectContext
from ..findings import Finding
from ..registry import Checker, register


def _table_rows(tree: ast.Module) -> "dict[str, ast.expr]":
    """``{algorithm: row expression}`` of the module-level ALGORITHMS dict."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "ALGORITHMS" for t in targets):
            if not isinstance(node.value, ast.Dict):
                return {}
            return {
                key.value: row
                for key, row in zip(node.value.keys, node.value.values)
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return {}


def _selected_by(row: ast.expr) -> "str | None":
    """The literal ``selected_by=`` keyword of a row constructor call."""
    if isinstance(row, ast.Call):
        for kw in row.keywords:
            if kw.arg == "selected_by" and isinstance(kw.value, ast.Constant):
                return kw.value.value
    return None


def _decisions(tree: ast.Module) -> "dict[str, int]":
    """``{algorithm: lineno}`` of every ``decision("x", ...)`` call."""
    out: "dict[str, int]" = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
        first = node.args[0]
        if name == "decision" and isinstance(first, ast.Constant) and isinstance(first.value, str):
            out.setdefault(first.value, node.lineno)
    return out


def _kernel_entry_points(ctx: FileContext) -> "Iterator[ast.FunctionDef]":
    """Public top-level ``*_spgemm(a, b, ...)`` functions in a core module."""
    for node in ctx.tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name.startswith("_") or not node.name.endswith("_spgemm"):
            continue
        args = node.args.posonlyargs + node.args.args
        if len(args) >= 2 and args[0].arg == "a" and args[1].arg == "b":
            yield node


@register
class KernelDispatchChecker(Checker):
    rule = "kernel-dispatch"
    description = (
        "The algorithm table must be well-formed: Table-4 rules name exactly "
        "the rows marked selected_by=\"table4\", and every public kernel "
        "entry point is some row's kernel"
    )
    scope = "project"

    def check(self, project: ProjectContext) -> "Iterator[Finding]":
        spgemm_ctx = project.by_suffix("core/spgemm.py")
        if spgemm_ctx is None or spgemm_ctx.tree is None:
            return
        rows = _table_rows(spgemm_ctx.tree)
        recipe_ctx = project.by_suffix("core/recipe.py")
        if recipe_ctx is not None and recipe_ctx.tree is not None and rows:
            yield from self._check_table4(spgemm_ctx, recipe_ctx, rows)
        yield from self._check_entry_points(project, spgemm_ctx, rows)

    # -- recipe.py: Table-4 decisions vs rows marked "table4" ------------
    def _check_table4(self, spgemm_ctx, recipe_ctx, rows):
        named = _decisions(recipe_ctx.tree)
        marked = {alg for alg, row in rows.items() if _selected_by(row) == "table4"}
        for alg, line in sorted(named.items()):
            if alg in marked:
                continue
            problem = (
                "which is not in the ALGORITHMS table" if alg not in rows
                else 'whose row is not marked selected_by="table4"'
            )
            yield self.finding(
                recipe_ctx,
                line,
                f"a Table-4 rule names algorithm {alg!r}, {problem} — "
                "auto would pick what the table says Table 4 never picks",
            )
        for alg in sorted(marked - set(named)):
            yield self.finding(
                spgemm_ctx,
                rows[alg].lineno,
                f'algorithm {alg!r} is marked selected_by="table4" in '
                "ALGORITHMS but no Table-4 rule names it — add the rule or "
                'mark the row "calibrated" or "never"',
            )

    # -- core/*.py: every public kernel entry point is a row's kernel ----
    def _check_entry_points(self, project: ProjectContext, spgemm_ctx, rows):
        kernels: "set[str]" = set()
        for row in rows.values():
            kernels |= names_used(row)
        for node in spgemm_ctx.tree.body:
            # the row type derives the batched kernel every batch_order row runs
            if isinstance(node, ast.ClassDef) and node.name == "AlgorithmInfo":
                kernels |= names_used(node)
        for ctx in project.in_dir("core"):
            if ctx is spgemm_ctx or ctx.tree is None:
                continue
            for fn in _kernel_entry_points(ctx):
                if fn.name not in kernels:
                    yield self.finding(
                        ctx,
                        fn.lineno,
                        f"kernel entry point {fn.name}() is no row's kernel "
                        "in the ALGORITHMS table; add a row for it, or "
                        "whitelist it as a deliberately separate surface",
                    )
