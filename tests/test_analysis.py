"""Tests for the :mod:`repro.analysis` contract linter (PR 2).

Each rule is exercised against a fixture file in ``tests/lint_fixtures/``
with a known set of violations, then the whole linter is pointed at
``src/repro`` as a self-check: the real tree must stay clean (all
legitimate pairwise-reduction sites carry justified suppressions).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, available_rules, load_baseline, write_baseline
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = REPO_ROOT / "src" / "repro"


def run(paths, rules=None, baseline=frozenset()):
    return analyze_paths(
        [str(p) for p in paths], root=str(REPO_ROOT), rules=rules, baseline=baseline
    )


# ---------------------------------------------------------------------------
# per-rule fixtures
# ---------------------------------------------------------------------------


def test_accum_order_fixture():
    result = run([FIXTURES / "accum_bad.py"], rules=["accum-order"])
    assert len(result.findings) == 3
    assert all(f.rule == "accum-order" for f in result.findings)
    messages = " ".join(f.message for f in result.findings)
    assert "reduceat" in messages
    assert "reduce_segments" in messages


def test_determinism_fixture():
    result = run([FIXTURES / "determinism_bad.py"], rules=["determinism"])
    assert len(result.findings) == 5
    messages = " ".join(f.message for f in result.findings)
    for token in ("default_rng", "np.random", "random.", "wall-clock", "set"):
        assert token in messages


def test_csr_construct_fixture():
    result = run([FIXTURES / "csr_bad.py"], rules=["csr-construct"])
    assert len(result.findings) == 3
    attrs = {f.message.split("`")[1].lstrip(".") for f in result.findings}
    assert attrs == {"sorted_rows", "indices", "data"}


def test_overbroad_except_fixture():
    result = run([FIXTURES / "excepts_bad.py"], rules=["overbroad-except"])
    # bare, BaseException, Exception-without-reraise; the re-raising
    # handler at the bottom of the fixture is allowed.
    assert len(result.findings) == 3
    assert {f.line for f in result.findings} == {7, 14, 21}


def test_kernel_dispatch_fixture():
    result = run([FIXTURES / "dispatch_bad"], rules=["kernel-dispatch"])
    messages = [f.message for f in result.findings]
    assert len(messages) == 4
    expected_fragments = [
        "'ghost' is marked selected_by=\"table4\" in ALGORITHMS but no Table-4 rule",
        "names algorithm 'phantom', which is not in the ALGORITHMS table",
        "names algorithm 'heap', whose row is not marked selected_by=\"table4\"",
        "fancy_spgemm() is no row's kernel in the ALGORITHMS table",
    ]
    for fragment in expected_fragments:
        assert any(fragment in m for m in messages), fragment


def test_kernel_dispatch_requires_spgemm_module():
    # Project-scope checker self-gates: linting a lone core file that is
    # not the dispatcher must not demand the full registration tables.
    result = run([FIXTURES / "dispatch_bad" / "core" / "recipe.py"], rules=["kernel-dispatch"])
    assert result.findings == []


# ---------------------------------------------------------------------------
# suppression and baseline machinery
# ---------------------------------------------------------------------------


def test_suppression_comments():
    result = run([FIXTURES / "suppressed_ok.py"], rules=["accum-order"])
    assert result.findings == []
    assert len(result.suppressed) == 2
    assert all(f.rule == "accum-order" for f in result.suppressed)


def test_baseline_round_trip(tmp_path):
    dirty = run([FIXTURES / "accum_bad.py"], rules=["accum-order"])
    assert len(dirty.findings) == 3

    baseline_file = tmp_path / "baseline.json"
    count = write_baseline(str(baseline_file), dirty.findings)
    assert count == 3

    fingerprints = load_baseline(str(baseline_file))
    rerun = run([FIXTURES / "accum_bad.py"], rules=["accum-order"], baseline=fingerprints)
    assert rerun.findings == []
    assert len(rerun.baselined) == 3
    assert rerun.clean


def test_baseline_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(str(bad))
    bad.write_text('{"no_fingerprints": []}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(str(bad))


def test_fingerprints_stable_across_line_shifts():
    result = run([FIXTURES / "accum_bad.py"], rules=["accum-order"])
    fps = {f.fingerprint for f in result.findings}
    # Re-running yields identical fingerprints (used by CI baselines).
    again = run([FIXTURES / "accum_bad.py"], rules=["accum-order"])
    assert {f.fingerprint for f in again.findings} == fps


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        run([FIXTURES / "accum_bad.py"], rules=["no-such-rule"])


def test_parse_error_reported(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    result = analyze_paths([str(broken)], root=str(tmp_path))
    assert len(result.findings) == 1
    assert result.findings[0].rule == "parse-error"


# ---------------------------------------------------------------------------
# self-check: the real tree lints clean
# ---------------------------------------------------------------------------


def test_src_repro_is_clean():
    result = run([SRC])
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    # The legitimate ESC-boundary reduceat sites are suppressed, not absent.
    assert len(result.suppressed) >= 4


def test_all_rules_registered():
    rules = {rule for rule, _ in available_rules()}
    assert rules == {
        "accum-order",
        "csr-construct",
        "determinism",
        "hot-loop-alloc",
        "kernel-dispatch",
        "layering",
        "numeric-bytes-model",
        "numeric-dtype-literal",
        "numeric-index-narrowing",
        "numeric-unsafe-cast",
        "overbroad-except",
        "plan-purity",
        "race-block-overlap",
        "race-global-mutation",
        "race-operand-write",
        "race-spawn-capture",
        "race-unlocked-shared",
        "span-discipline",
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main([str(FIXTURES / "suppressed_ok.py")]) == 0
    assert cli_main([str(FIXTURES / "accum_bad.py")]) == 1
    assert cli_main([str(tmp_path / "missing.py")]) == 2
    assert cli_main(["--rules", "no-such-rule", str(FIXTURES / "suppressed_ok.py")]) == 2
    capsys.readouterr()


def test_cli_json_output(capsys):
    code = cli_main(["--format", "json", str(FIXTURES / "accum_bad.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["clean"] is False
    assert payload["counts"]["active"] == len(payload["findings"]) > 0
    first = payload["findings"][0]
    assert {"rule", "path", "line", "message", "fingerprint"} <= set(first)


def test_cli_write_then_use_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert cli_main(["--write-baseline", str(baseline), str(FIXTURES / "accum_bad.py")]) == 0
    assert cli_main(["--baseline", str(baseline), str(FIXTURES / "accum_bad.py")]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "kernel-dispatch" in out
    assert "accum-order" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES / "accum_bad.py")],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "accum-order" in proc.stdout
