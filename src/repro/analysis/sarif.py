"""SARIF 2.1.0 export: the linter's findings as a code-scanning report.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is the
interchange format GitHub code scanning ingests — emitting it makes every
contract finding a first-class annotation on the pull request that
introduced it, instead of a line in a CI log.  One analysis run maps to
one SARIF ``run``:

* every registered rule (plus the synthetic ``parse-error``) appears in
  ``tool.driver.rules``, so viewers can show descriptions for rules that
  happened to produce no findings;
* *active* findings are ``level: error`` results;
* *suppressed* findings carry ``suppressions: [{kind: "inSource"}]`` (the
  ``# repro-lint:`` comment) and *baselined* ones ``kind: "external"``
  (the baseline file) — both are visible-but-non-failing, exactly the
  linter's own semantics;
* each result carries the linter's line-number-independent fingerprint as
  ``partialFingerprints["reproAnalysis/v1"]``, so code-scanning alert
  identity survives unrelated edits, same as baseline matching.

:func:`validate_sarif` is a structural validator for the subset of SARIF
2.1.0 this exporter emits (spec section references in the error messages);
the test suite runs every report through it, and it backs the acceptance
check that ``--format sarif`` output actually is SARIF.
"""

from __future__ import annotations

from .findings import Finding
from .registry import AnalysisResult, available_rules

__all__ = ["sarif_report", "validate_sarif", "SARIF_VERSION", "SARIF_SCHEMA"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: partialFingerprints key; bump the suffix if the fingerprint basis changes.
FINGERPRINT_KEY = "reproAnalysis/v1"

_TOOL_NAME = "repro-analysis"
_TOOL_URI = "docs/static-analysis.md"


def _rules_metadata() -> "list[dict]":
    rules = [
        {
            "id": rule,
            "name": "".join(p.title() for p in rule.split("-")),
            "shortDescription": {"text": description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule, description in available_rules()
    ]
    rules.append(
        {
            "id": "parse-error",
            "name": "ParseError",
            "shortDescription": {
                "text": "a file that does not parse is always an active finding"
            },
            "defaultConfiguration": {"level": "error"},
        }
    )
    return sorted(rules, key=lambda r: r["id"])


def _result(f: Finding, rule_index: "dict[str, int]", kind: str) -> dict:
    res = {
        "ruleId": f.rule,
        "ruleIndex": rule_index[f.rule],
        "level": "error",
        "message": {"text": f.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path, "uriBaseId": "SRCROOT"},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": f.col + 1,  # SARIF columns are 1-based
                        **(
                            {"snippet": {"text": f.snippet}} if f.snippet else {}
                        ),
                    },
                }
            }
        ],
        "partialFingerprints": {FINGERPRINT_KEY: f.fingerprint},
    }
    if kind == "suppressed":
        res["suppressions"] = [
            {"kind": "inSource", "justification": "# repro-lint: disable comment"}
        ]
    elif kind == "baselined":
        res["suppressions"] = [
            {"kind": "external", "justification": "baseline fingerprint match"}
        ]
    return res


def sarif_report(result: AnalysisResult) -> dict:
    """The SARIF 2.1.0 payload for one :class:`AnalysisResult`."""
    rules = _rules_metadata()
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results = (
        [_result(f, rule_index, "active") for f in result.findings]
        + [_result(f, rule_index, "suppressed") for f in result.suppressed]
        + [_result(f, rule_index, "baselined") for f in result.baselined]
    )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"description": {"text": "analysis root"}}
                },
                "results": results,
                "properties": {
                    "filesScanned": result.files_scanned,
                    "rulesRun": result.rules,
                    "warnings": list(result.warnings),
                },
            }
        ],
    }


def _require(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise ValueError(f"not valid SARIF 2.1.0: {where}: {what}")


def validate_sarif(payload: dict) -> None:
    """Structurally validate ``payload`` against SARIF 2.1.0 (subset).

    Checks the properties the spec marks *required* (sections 3.13–3.28)
    for logs, runs, tool/driver, reporting descriptors and results, plus
    this exporter's own guarantees (rule index consistency, 1-based
    regions, fingerprint presence).  Raises :class:`ValueError` with the
    failing path; returns None when valid.
    """
    _require(isinstance(payload, dict), "$", "log must be an object")
    _require(payload.get("version") == SARIF_VERSION, "$.version",
             f"must be {SARIF_VERSION!r}")
    runs = payload.get("runs")
    _require(isinstance(runs, list) and runs, "$.runs", "non-empty array required")
    for i, run in enumerate(runs):
        where = f"$.runs[{i}]"
        _require(isinstance(run, dict), where, "run must be an object")
        driver = run.get("tool", {}).get("driver")
        _require(isinstance(driver, dict), f"{where}.tool.driver", "required")
        _require(bool(driver.get("name")), f"{where}.tool.driver.name", "required")
        rules = driver.get("rules", [])
        ids = []
        for j, rule in enumerate(rules):
            rwhere = f"{where}.tool.driver.rules[{j}]"
            _require(isinstance(rule.get("id"), str) and rule["id"], rwhere, "id required")
            ids.append(rule["id"])
        _require(len(ids) == len(set(ids)), f"{where}.tool.driver.rules",
                 "rule ids must be unique")
        results = run.get("results")
        _require(isinstance(results, list), f"{where}.results", "array required")
        for j, res in enumerate(results):
            _validate_result(res, ids, f"{where}.results[{j}]")


def _validate_result(res: dict, rule_ids: "list[str]", where: str) -> None:
    _require(isinstance(res, dict), where, "result must be an object")
    message = res.get("message")
    _require(
        isinstance(message, dict) and isinstance(message.get("text"), str),
        f"{where}.message.text", "required",
    )
    rule_id = res.get("ruleId")
    _require(isinstance(rule_id, str) and rule_id, f"{where}.ruleId", "required")
    _require(rule_id in rule_ids, f"{where}.ruleId",
             f"{rule_id!r} not declared in tool.driver.rules")
    idx = res.get("ruleIndex")
    if idx is not None:
        _require(
            isinstance(idx, int) and 0 <= idx < len(rule_ids) and rule_ids[idx] == rule_id,
            f"{where}.ruleIndex", "must point at the ruleId's descriptor",
        )
    level = res.get("level")
    _require(level in ("none", "note", "warning", "error"), f"{where}.level",
             "must be a SARIF level")
    for k, loc in enumerate(res.get("locations", [])):
        phys = loc.get("physicalLocation")
        _require(isinstance(phys, dict), f"{where}.locations[{k}]",
                 "physicalLocation required")
        art = phys.get("artifactLocation", {})
        _require(isinstance(art.get("uri"), str), f"{where}.locations[{k}]",
                 "artifactLocation.uri required")
        region = phys.get("region")
        if region is not None:
            _require(
                isinstance(region.get("startLine"), int) and region["startLine"] >= 1,
                f"{where}.locations[{k}].region.startLine", "1-based int required",
            )
            col = region.get("startColumn")
            _require(col is None or (isinstance(col, int) and col >= 1),
                     f"{where}.locations[{k}].region.startColumn", "must be >= 1")
    for supp in res.get("suppressions", []):
        _require(supp.get("kind") in ("inSource", "external"),
                 f"{where}.suppressions", "kind must be inSource or external")
