"""Command-line interface: ``python -m repro.analysis [paths...]``.

Exit codes: 0 = clean (no active findings), 1 = active findings, 2 = usage
or I/O error.  ``--format json`` / ``--format sarif`` emit machine-readable
reports for CI (SARIF uploads straight to GitHub code scanning);
``--write-baseline`` snapshots the current findings so later runs only
fail on *new* ones, and ``--update-baseline`` *ratchets* an existing
baseline — it can only shrink, so the backlog burns down monotonically.

The baseline flags never swallow the report: the requested format is
still written to stdout (the write notice goes to stderr), so one CI
invocation can refresh the ratchet *and* publish the SARIF.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys

from .baseline import load_baseline, write_baseline
from .registry import analyze_paths, available_rules
from .sarif import sarif_report

__all__ = ["main", "build_parser"]

DEFAULT_PATH = os.path.join("src", "repro")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="AST-based contract linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; sarif = SARIF 2.1.0 for "
        "GitHub code scanning)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="fingerprints in FILE are reported as baselined, not failures",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write current active findings' fingerprints to FILE, still "
        "emit the report, and exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="FILE",
        help="ratchet FILE: rewrite it keeping only fingerprints that still "
        "match (the baseline can only shrink); exits 1 if non-baselined "
        "findings remain",
    )
    parser.add_argument(
        "--rules",
        metavar="RULE[,RULE...]",
        help="run only these rules (default: all)",
    )
    parser.add_argument(
        "--select",
        metavar="PATTERN[,PATTERN...]",
        help="run only rules matching these glob patterns (e.g. "
        "'numeric-*,race-*'); lets CI split one lint run into parallel "
        "per-family jobs",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    return parser


def _render_text(result, stream) -> None:
    for f in result.findings:
        print(f.render(), file=stream)
        if f.snippet:
            print(f"    {f.snippet}", file=stream)
    summary = (
        f"{len(result.findings)} finding(s) "
        f"({len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined) "
        f"in {result.files_scanned} file(s)"
    )
    print(summary, file=stream)


def _render_json(result, stream) -> None:
    payload = {
        "version": 1,
        "clean": result.clean,
        "files_scanned": result.files_scanned,
        "rules": result.rules,
        "warnings": list(result.warnings),
        "counts": {
            "active": len(result.findings),
            "suppressed": len(result.suppressed),
            "baselined": len(result.baselined),
        },
        "findings": [f.to_json() for f in result.findings],
        "suppressed": [f.to_json() for f in result.suppressed],
        "baselined": [f.to_json() for f in result.baselined],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _render_sarif(result, stream) -> None:
    json.dump(sarif_report(result), stream, indent=2, sort_keys=True)
    stream.write("\n")


def _render(result, fmt, stream) -> None:
    if fmt == "json":
        _render_json(result, stream)
    elif fmt == "sarif":
        _render_sarif(result, stream)
    else:
        _render_text(result, stream)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in available_rules():
            print(f"{rule:<18s} {description}")
        return 0

    paths = args.paths
    if not paths:
        if not os.path.exists(DEFAULT_PATH):
            print(
                f"error: no paths given and default {DEFAULT_PATH!r} does not "
                "exist (run from the repository root or pass paths)",
                file=sys.stderr,
            )
            return 2
        paths = [DEFAULT_PATH]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path(s): {missing}", file=sys.stderr)
        return 2

    if args.update_baseline and (args.write_baseline or args.baseline):
        print(
            "error: --update-baseline already reads and rewrites its FILE; "
            "it cannot be combined with --baseline or --write-baseline",
            file=sys.stderr,
        )
        return 2

    baseline = frozenset()
    baseline_path = args.baseline or args.update_baseline
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.select and args.rules:
        print(
            "error: --select (glob patterns) and --rules (exact ids) are "
            "two spellings of the same restriction; pass one",
            file=sys.stderr,
        )
        return 2

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    elif args.select:
        known = [rule for rule, _ in available_rules()]
        selected: "set[str]" = set()
        for pattern in (p.strip() for p in args.select.split(",")):
            if not pattern:
                continue
            matched = fnmatch.filter(known, pattern)
            if not matched:
                print(
                    f"error: --select pattern {pattern!r} matches no "
                    f"registered rule (see --list-rules)",
                    file=sys.stderr,
                )
                return 2
            selected.update(matched)
        rules = sorted(selected)
    try:
        result = analyze_paths(paths, root=args.root, rules=rules, baseline=baseline)
    except ValueError as exc:  # unknown rule names
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    exit_code = 0 if result.clean else 1
    if args.write_baseline:
        # The notice goes to stderr so --format json/sarif output on stdout
        # stays machine-parseable; writing a baseline exits 0 by contract
        # (the findings just became the accepted backlog).
        count = write_baseline(args.write_baseline, result.findings)
        print(
            f"wrote {count} fingerprint(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        exit_code = 0
    elif args.update_baseline:
        # Ratchet: keep exactly the old fingerprints that still match.  New
        # findings are never added (that would un-ratchet), and they still
        # fail the run via the normal exit contract.
        count = write_baseline(args.update_baseline, result.baselined)
        print(
            f"ratcheted {args.update_baseline}: {len(baseline)} -> {count} "
            "fingerprint(s)",
            file=sys.stderr,
        )

    _render(result, args.format, sys.stdout)
    return exit_code
