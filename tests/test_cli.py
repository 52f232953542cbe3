"""CLI tests (python -m repro)."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestInfo:
    def test_lists_algorithms_and_machines(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        for name in ("hash", "heap", "kokkos", "blocked_spa", "merge"):
            assert name in out
        assert "KNL" in out and "Haswell" in out
        assert "MCDRAM" in out


class TestDatasets:
    def test_lists_all_26(self, capsys):
        code, out, _ = run_cli(capsys, "datasets")
        assert code == 0
        assert out.count("\n") >= 26
        assert "cage15" in out and "webbase-1M" in out


class TestMultiply:
    def test_generated_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "multiply", "--pattern", "er", "--scale", "7",
            "--algorithm", "hash", "--unsorted",
        )
        assert code == 0
        assert "flop=" in out and "unsorted" in out

    def test_heap_algorithm(self, capsys):
        code, out, _ = run_cli(
            capsys, "multiply", "--pattern", "g500", "--scale", "7",
            "--algorithm", "heap",
        )
        assert code == 0
        assert "heap" in out

    def test_dataset_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "multiply", "--dataset", "mc2depi", "--max-n", "1000",
            "--algorithm", "esc",
        )
        assert code == 0
        assert "mc2depi" in out

    def test_matrix_market_input(self, capsys, tmp_path, medium_random):
        from repro.matrix.io import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(medium_random, path)
        code, out, _ = run_cli(
            capsys, "multiply", "--matrix", str(path), "--algorithm", "spa"
        )
        assert code == 0

    def test_unknown_algorithm_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "multiply", "--pattern", "er", "--scale", "6",
            "--algorithm", "sparta",
        )
        assert code == 2
        assert "error:" in err


class TestSimulate:
    def test_default_algorithm_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pattern", "er", "--scale", "9",
            "--machine", "knl", "--threads", "64",
        )
        assert code == 0
        assert "MFLOPS" in out
        assert out.count("ms (") >= 6  # six reports

    def test_algorithm_list_and_haswell(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pattern", "g500", "--scale", "9",
            "--machine", "haswell", "--algorithm", "hash,heap", "--unsorted",
        )
        assert code == 0
        assert "hash:" in out and "heap:" in out

    def test_memory_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--pattern", "g500", "--scale", "8",
            "--memory-mode", "flat_ddr", "--algorithm", "hash",
        )
        assert code == 0
        assert "flat_ddr" in out

    def test_bad_thread_count(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--pattern", "er", "--scale", "7",
            "--machine", "haswell", "--threads", "9999",
        )
        assert code == 2


class TestRecipe:
    def test_recommendation(self, capsys):
        code, out, _ = run_cli(
            capsys, "recipe", "--pattern", "g500", "--scale", "9",
        )
        assert code == 0
        assert "-> use algorithm" in out

    def test_with_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "recipe", "--pattern", "er", "--scale", "8", "--table",
        )
        assert code == 0
        assert "Table 4(b)" in out


class TestValidateCommand:
    def test_passes_on_generated_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--pattern", "g500", "--scale", "7",
        )
        assert code == 0
        assert "PASS" in out
        assert "flop (hash)" in out


class TestSummaCommand:
    def test_runs_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "summa", "--pattern", "er", "--scale", "7", "--grid", "2",
        )
        assert code == 0
        assert "SUMMA on 2x2" in out
        assert "per-rank received" in out


class TestCalibrateCommand:
    def test_writes_valid_profile(self, capsys, tmp_path):
        out_path = str(tmp_path / "profile.json")
        code, out, _ = run_cli(
            capsys, "calibrate", "--out", out_path, "--grid-scale", "5",
            "--repeats", "1", "--algorithms", "hash,heap",
        )
        assert code == 0
        assert "REPRO_CALIBRATION" in out
        assert "hash" in out and "heap" in out

        from repro.autotune import load_profile

        profile = load_profile(out_path)
        assert set(profile.curves) == {"hash", "heap"}

    def test_rejects_bad_algorithm(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "calibrate", "--out", str(tmp_path / "p.json"),
            "--grid-scale", "5", "--algorithms", "mkl",
        )
        assert code != 0
        assert "candidate" in err


class TestServeCommand:
    def test_worker_pool_flag_is_refused(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--nworkers", "2"])
        assert exc.value.code == 2

    def test_sigterm_drains_cleanly(self):
        """SIGTERM stops the server the way Ctrl-C does: drain, exit 0."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, text=True,
        )
        try:
            line = ""
            for line in proc.stdout:  # until the server binds, or exits
                if "listening on" in line:
                    break
            assert "listening on" in line
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, out
        assert "clean drain" in out
