"""The ``race-*`` checker family against its seeded fixture tree.

The fixture (``tests/lint_fixtures/race_bad/badpool/``) is a deliberately
racy miniature of a parallel substrate: two worker entry points, a
module-global mailbox, a lambda and a nested def handed to ``pool.map``.
Every rule has exact seeded counts and line sets, the fingerprints are
line-shift-stable like the other checker fixtures, and — the operational
acceptance bar — the real ``src/repro`` tree, whose one dispatch point is
the thread tier's executor ``submit``, lints clean under the family with
one documented suppression.
"""

import shutil
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.context import ProjectContext, build_file_context
from repro.analysis.graph import build_project_graph

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
RACE_BAD = FIXTURES / "race_bad"

RACE_RULES = [
    "race-block-overlap",
    "race-global-mutation",
    "race-operand-write",
    "race-spawn-capture",
    "race-unlocked-shared",
]


def run_tree(root, rules, baseline=frozenset()):
    return analyze_paths([str(root)], root=str(root), rules=rules, baseline=baseline)


def project_of(root: Path) -> ProjectContext:
    files = []
    for p in sorted(root.rglob("*.py")):
        rel = p.relative_to(root).as_posix()
        files.append(build_file_context(str(p), rel, p.read_text()))
    return ProjectContext(root=str(root), files=files)


# ---------------------------------------------------------------------------
# graph layer: dispatch points and worker entries
# ---------------------------------------------------------------------------


def test_dispatches_and_worker_entries_resolved():
    graph = build_project_graph(project_of(RACE_BAD))
    assert graph.calls.worker_entries() == {
        "badpool.pool._worker_a",
        "badpool.pool._worker_b",
    }
    kinds = sorted(d.callable_kind for d in graph.calls.dispatches)
    assert kinds == ["def", "def", "lambda", "nested"]
    assert {d.method for d in graph.calls.dispatches} == {"map"}
    assert all(d.caller == "badpool.pool.run" for d in graph.calls.dispatches)


def test_write_events_capture_lock_context():
    graph = build_project_graph(project_of(RACE_BAD))
    events = graph.calls.writes_of("badpool.pool.run")
    locked = [e for e in events if e.locks]
    assert locked and all("_REG_LOCK" in e.locks for e in locked)


# ---------------------------------------------------------------------------
# the five rules, exact seeded counts
# ---------------------------------------------------------------------------


def test_operand_write_fixture():
    result = run_tree(RACE_BAD, ["race-operand-write"])
    assert {(f.path, f.line) for f in result.findings} == {
        ("badpool/helpers.py", 5),  # one-hop: tainted arg into the helper
        ("badpool/pool.py", 24),
        ("badpool/pool.py", 25),
    }
    messages = " ".join(f.message for f in result.findings)
    # the interprocedural finding names its worker-entry witness
    assert "worker entry badpool.pool._worker_a" in messages
    assert "re-enables writability" in messages


def test_block_overlap_fixture():
    result = run_tree(RACE_BAD, ["race-block-overlap"])
    assert len(result.findings) == 4
    assert {f.line for f in result.findings} == {27, 28, 34, 35}
    messages = " ".join(f.message for f in result.findings)
    assert "2 worker entry points" in messages
    assert "constant range" in messages and "'ACC'" in messages


def test_global_mutation_fixture():
    result = run_tree(RACE_BAD, ["race-global-mutation"])
    assert len(result.findings) == 4
    assert {f.line for f in result.findings} == {36, 42, 43, 45}
    messages = " ".join(f.message for f in result.findings)
    assert "rebinds module global '_MODE'" in messages
    assert "fork-inherited module global '_CACHE'" in messages


def test_spawn_capture_fixture():
    result = run_tree(RACE_BAD, ["race-spawn-capture"])
    assert len(result.findings) == 2
    messages = " ".join(f.message for f in result.findings)
    assert "a lambda" in messages
    assert "defined inside the dispatching function" in messages


def test_unlocked_shared_fixture():
    result = run_tree(RACE_BAD, ["race-unlocked-shared"])
    # line 45 mutates _CACHE too, but under `with _REG_LOCK` — not flagged
    assert {f.line for f in result.findings} == {36, 43}
    assert all("2 process contexts" in f.message for f in result.findings)
    assert all("worker:badpool.pool._worker_b" in f.message for f in result.findings)


def test_whole_family_total():
    result = run_tree(RACE_BAD, RACE_RULES)
    assert len(result.findings) == 15


# ---------------------------------------------------------------------------
# gating, suppression, fingerprints
# ---------------------------------------------------------------------------


def test_race_rules_self_gate_on_dispatchless_trees():
    # No pool/process dispatch point -> the family stays silent even on
    # trees full of module-global mutation (the other fixtures).
    for tree in ("plan_purity_bad", "span_bad", "layering_bad"):
        assert run_tree(FIXTURES / tree, RACE_RULES).findings == []


def test_race_rules_clean_on_real_tree():
    result = analyze_paths(
        [str(REPO_ROOT / "src" / "repro")], root=str(REPO_ROOT), rules=RACE_RULES
    )
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    # The one sanctioned site is suppressed, not absent: serve_in_thread's
    # closure-capturing event-loop thread target, which is no row part.
    suppressed = [f for f in result.suppressed if f.rule.startswith("race-")]
    assert [(f.path, f.rule) for f in suppressed] == [
        ("src/repro/serve/server.py", "race-spawn-capture"),
    ]


def test_race_finding_suppressible(tmp_path):
    shutil.copytree(RACE_BAD, tmp_path / "race_bad")
    target = tmp_path / "race_bad" / "badpool" / "pool.py"
    text = target.read_text().replace(
        "a[0] = 1.0  # BAD: writes a shared operand view",
        "a[0] = 1.0  # repro-lint: disable=race-operand-write",
    )
    target.write_text(text)
    result = run_tree(tmp_path / "race_bad", ["race-operand-write"])
    assert len(result.findings) == 2 and len(result.suppressed) == 1


def test_fingerprints_survive_line_shifts(tmp_path):
    shutil.copytree(RACE_BAD, tmp_path / "race_bad")
    before = {
        f.fingerprint for f in run_tree(tmp_path / "race_bad", RACE_RULES).findings
    }
    target = tmp_path / "race_bad" / "badpool" / "pool.py"
    target.write_text('"""Shifted."""\n\n' + target.read_text())
    after = {
        f.fingerprint for f in run_tree(tmp_path / "race_bad", RACE_RULES).findings
    }
    assert before == after and len(before) == 15
