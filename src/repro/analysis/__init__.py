"""repro.analysis — AST-based contract linter for the repro codebase.

The kernels' correctness contracts (one dispatch surface over many kernels,
ordered floating-point accumulation, determinism, thread-part write
ownership, CSR construction discipline) live in docstrings and property
tests; this package makes them *machine-checked on every CI run*.

Usage::

    python -m repro.analysis                      # lint src/repro
    python -m repro.analysis --format json path/  # CI form
    python -m repro.analysis --list-rules

or programmatically::

    from repro.analysis import analyze_paths
    result = analyze_paths(["src/repro"])
    assert result.clean, result.findings

Suppress an individual finding with a trailing
``# repro-lint: disable=<rule>`` comment (add a one-line justification);
see :mod:`repro.analysis.context` for the full directive syntax and
:mod:`repro.analysis.baseline` for adopting the linter over an existing
backlog.  Each bundled rule is one module under
:mod:`repro.analysis.checkers`; ``docs/static-analysis.md`` documents the
rules and how to add one.
"""

from .baseline import load_baseline, write_baseline
from .findings import Finding
from .graph import ProjectGraph, build_project_graph
from .registry import (
    AnalysisResult,
    CHECKERS,
    Checker,
    analyze_paths,
    available_rules,
    register,
)
from .sarif import sarif_report, validate_sarif

__all__ = [
    "Finding",
    "Checker",
    "CHECKERS",
    "register",
    "AnalysisResult",
    "analyze_paths",
    "available_rules",
    "load_baseline",
    "write_baseline",
    "sarif_report",
    "validate_sarif",
    "ProjectGraph",
    "build_project_graph",
]
