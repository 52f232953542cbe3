"""Observability-layer tests: span model, exporters, env activation,
traced/untraced bit-identity, and the zero-overhead disabled path."""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ConfigError, FormatError, KernelStats, csr_from_coo, spgemm
from repro.observability import (
    NULL_TRACER,
    Span,
    Tracer,
    json_trace,
    phase_breakdown,
    render_breakdown,
    render_tree,
    reset_env_tracer,
    tracer_from_env,
    validate_trace_schema,
    write_json_trace,
)
from repro.rmat import er_matrix

COMMON = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def square_csr(draw, max_dim=12):
    n = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, n * n))
    if nnz:
        rows = draw(arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
        cols = draw(arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
        vals = draw(
            arrays(
                np.float64, nnz,
                elements=st.floats(-8, 8, allow_nan=False, width=32),
            )
        )
    else:
        rows = np.empty(0, np.int64)
        cols = np.empty(0, np.int64)
        vals = np.empty(0, np.float64)
    sort = draw(st.booleans())
    return csr_from_coo(n, n, rows, cols, vals, sort_rows=sort)


def _assert_bit_identical(c1, c2):
    np.testing.assert_array_equal(c1.indptr, c2.indptr)
    np.testing.assert_array_equal(c1.indices, c2.indices)
    np.testing.assert_array_equal(
        c1.data.view(np.uint64), c2.data.view(np.uint64)
    )


class TestSpan:
    def test_exclusive_partitions_duration(self):
        root = Span("root", "other")
        root.duration = 1.0
        for seconds in (0.25, 0.5):
            child = Span("c", "numeric")
            child.duration = seconds
            root.children.append(child)
        assert root.exclusive_seconds() == pytest.approx(0.25)
        total_exclusive = sum(s.exclusive_seconds() for s in root.walk())
        assert total_exclusive == pytest.approx(root.duration)

    def test_exclusive_never_negative(self):
        root = Span("root", "other")
        root.duration = 0.1
        child = Span("c", "numeric")
        child.duration = 0.5  # recorded child can exceed a tiny parent
        root.children.append(child)
        assert root.exclusive_seconds() == 0.0

    def test_dict_roundtrip(self):
        span = Span("numeric", "numeric", algorithm="hash", nrows=10)
        span.duration = 0.125
        span.add_counter("flops", 42.0)
        child = Span("sort", "sort")
        child.duration = 0.03
        span.children.append(child)
        clone = Span.from_dict(span.to_dict())
        assert clone.to_dict() == span.to_dict()


class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", phase="other"):
            with tracer.span("inner", phase="numeric"):
                pass
        (root,) = tracer.spans
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.duration >= root.children[0].duration

    def test_record_attaches_child(self):
        tracer = Tracer()
        with tracer.span("numeric", phase="numeric"):
            tracer.record("sort", 0.25, phase="sort")
        (root,) = tracer.spans
        assert root.children[0].name == "sort"
        assert root.children[0].duration == 0.25

    def test_counter_on_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.counter("flops", 3.0)
                tracer.counter("flops", 4.0)
        assert tracer.spans[0].children[0].counters == {"flops": 7.0}

    def test_graft_renames(self):
        worker = Tracer()
        with worker.span("spgemm", phase="other", algorithm="hash"):
            pass
        parent = Tracer()
        with parent.span("pool"):
            parent.graft(worker.spans[0].to_dict(), name="worker[0]:spgemm")
        grafted = parent.spans[0].children[0]
        assert grafted.name == "worker[0]:spgemm"
        assert grafted.meta["algorithm"] == "hash"

    def test_exception_unwinding(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current is None
        assert tracer.spans[0].children[0].duration >= 0.0


class TestExporters:
    def _traced(self):
        tracer = Tracer()
        a = er_matrix(5, 4, seed=2)
        spgemm(a, a, algorithm="hash", tracer=tracer)
        return tracer

    def test_json_schema_valid(self, tmp_path):
        tracer = self._traced()
        payload = validate_trace_schema(json_trace(tracer))
        assert payload["spans"][0]["meta"]["algorithm"] == "hash"
        path = write_json_trace(tracer, str(tmp_path / "trace.json"))
        validate_trace_schema(open(path).read())

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda t: t.update(schema="bogus/9"), "schema"),
            (lambda t: t.pop("total_seconds"), "total_seconds"),
            (lambda t: t["spans"][0].pop("phase"), "phase"),
            (lambda t: t["spans"][0].update(seconds=-1.0), "seconds"),
            (lambda t: t["spans"][0]["counters"].update(bad="x"), "bad"),
        ],
    )
    def test_schema_rejects_naming_field(self, mutate, needle):
        trace = json_trace(self._traced())
        mutate(trace)
        with pytest.raises(FormatError, match=needle):
            validate_trace_schema(trace)

    def test_render_tree(self):
        text = render_tree(self._traced())
        for name in ("spgemm", "symbolic", "numeric"):
            assert name in text
        assert render_tree(Tracer()) == "(empty trace)"

    def test_breakdown_invariant(self):
        tracer = self._traced()
        breakdown = phase_breakdown(tracer)
        assert set(breakdown) == {"hash"}
        phases = breakdown["hash"]
        assert {"symbolic", "numeric"} <= set(phases)
        assert sum(phases.values()) == pytest.approx(
            tracer.total_seconds(), rel=1e-9
        )
        table = render_breakdown("title", breakdown)
        assert "hash" in table and "numeric" in table and "total" in table


class TestEnvActivation:
    @pytest.fixture(autouse=True)
    def _reset(self):
        reset_env_tracer()
        yield
        reset_env_tracer()

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert tracer_from_env() is None

    def test_collect_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        a = er_matrix(4, 4, seed=1)
        spgemm(a, a, algorithm="spa")
        tracer = tracer_from_env()
        assert tracer is not None and tracer.spans
        assert tracer.spans[-1].meta["algorithm"] == "spa"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "verbose")
        with pytest.raises(ConfigError):
            tracer_from_env()
        with pytest.raises(ConfigError):
            a = er_matrix(3, 2, seed=0)
            spgemm(a, a)


ALGORITHMS = ("hash", "hashvec", "heap", "spa", "esc")


class TestBitIdentity:
    """A tracer must only observe: traced == untraced, bit for bit."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(a=square_csr(), sort_output=st.booleans(), fast=st.booleans())
    @settings(**COMMON)
    def test_traced_matches_untraced(self, algorithm, a, sort_output, fast):
        engine = "fast" if fast else "faithful"
        tracer = Tracer()
        kwargs = dict(
            algorithm=algorithm, sort_output=sort_output, engine=engine
        )
        c_traced = spgemm(a, a, tracer=tracer, **kwargs)
        c_plain = spgemm(a, a, **kwargs)
        _assert_bit_identical(c_traced, c_plain)
        assert tracer.spans, "traced run produced no spans"

    @pytest.mark.parametrize("algorithm", ["esc", "hash"])
    def test_traced_threaded_matches(self, monkeypatch, algorithm):
        import repro.core.threads as threads

        monkeypatch.setattr(threads, "_part_count", lambda total_flop: 3)
        g = er_matrix(7, 6, seed=5)
        tracer = Tracer()
        kwargs = dict(algorithm=algorithm, engine="fast")
        c_traced = spgemm(g, g, tracer=tracer, **kwargs)
        c_plain = spgemm(g, g, **kwargs)
        _assert_bit_identical(c_traced, c_plain)
        (root,) = tracer.spans
        child_names = [c.name for c in root.children]
        for expected in ("expand+reduce", "bucket", "assemble"):
            assert expected in child_names
        # the parts' own seconds land on the root as counters
        assert root.counters["parts"] == 3
        assert root.counters["part_seconds_max"] <= root.counters["part_seconds"]


class TestKernelStatsIntegration:
    def test_phase_seconds_folded_into_stats(self):
        stats = KernelStats()
        a = er_matrix(5, 4, seed=3)
        spgemm(a, a, algorithm="hash", stats=stats, tracer=Tracer())
        assert stats.symbolic_seconds > 0.0
        assert stats.numeric_seconds > 0.0
        assert stats.flops > 0

    def test_untraced_leaves_phase_seconds_zero(self):
        stats = KernelStats()
        a = er_matrix(5, 4, seed=3)
        spgemm(a, a, algorithm="hash", stats=stats)
        assert stats.symbolic_seconds == 0.0
        assert stats.flops > 0

    def test_stats_delta_lands_on_root_span(self):
        stats = KernelStats()
        tracer = Tracer()
        a = er_matrix(5, 4, seed=3)
        c = spgemm(a, a, algorithm="hash", stats=stats, tracer=tracer)
        counters = tracer.spans[0].counters
        assert counters["flops"] == stats.flops
        assert counters["nnz"] == c.nnz

    def test_merge_covers_every_field(self):
        """Regression: merge must handle *every* dataclass field, so a new
        counter can never again be silently dropped by a hand-kept list."""
        import dataclasses

        left = KernelStats()
        right = KernelStats()
        for i, f in enumerate(dataclasses.fields(KernelStats)):
            value = getattr(right, f.name)
            if isinstance(value, list):
                value.append((i, i))
            else:
                setattr(right, f.name, type(value)(i + 1))
        left.merge(right)
        for i, f in enumerate(dataclasses.fields(KernelStats)):
            merged = getattr(left, f.name)
            if isinstance(merged, list):
                assert merged == [(i, i)], f.name
            else:
                assert merged == type(merged)(i + 1), f.name

    def test_scalar_snapshot_covers_numeric_fields(self):
        import dataclasses

        snapshot = KernelStats().scalar_snapshot()
        for f in dataclasses.fields(KernelStats):
            if isinstance(getattr(KernelStats(), f.name), (int, float)):
                assert f.name in snapshot
        assert "per_thread" not in snapshot
        assert "symbolic_seconds" in snapshot


class TestDisabledPathOverhead:
    def test_noop_path_adds_no_per_row_work(self, monkeypatch):
        """Counter-based guard: with no tracer, the number of tracer-layer
        calls (NULL_TRACER spans, perf_counter reads) must not grow with
        the matrix — i.e. nothing tracer-related runs per row."""
        calls = {"span": 0, "clock": 0}
        null_cls = type(NULL_TRACER)
        real_span = null_cls.span
        real_clock = time.perf_counter

        def counting_span(self, name, phase=None, **meta):
            calls["span"] += 1
            return real_span(self, name, phase, **meta)

        def counting_clock():
            calls["clock"] += 1
            return real_clock()

        monkeypatch.setattr(null_cls, "span", counting_span)
        monkeypatch.setattr(time, "perf_counter", counting_clock)

        small = er_matrix(4, 4, seed=9)   # 16 rows
        big = er_matrix(7, 4, seed=9)     # 128 rows
        per_alg = {}
        for alg in ALGORITHMS:
            counts = []
            for m in (small, big):
                calls["span"] = calls["clock"] = 0
                spgemm(m, m, algorithm=alg)
                counts.append(dict(calls))
            per_alg[alg] = counts
        for alg, (c_small, c_big) in per_alg.items():
            assert c_small == c_big, (
                f"{alg}: disabled-path tracer work scales with rows: "
                f"{c_small} vs {c_big}"
            )

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", phase="numeric") as span:
            assert span is None
        NULL_TRACER.record("y", 1.0)
        NULL_TRACER.counter("z", 1.0)
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.total_seconds() == 0.0


class TestAppsTraced:
    def test_triangles_traced_identical(self):
        from repro.apps.triangles import count_triangles
        from repro.matrix.ops import add, transpose

        g = er_matrix(6, 3, seed=11)
        sym = add(g, transpose(g))
        rows = np.repeat(np.arange(sym.nrows), sym.row_nnz())
        keep = rows != sym.indices
        counts = np.bincount(rows[keep], minlength=sym.nrows)
        indptr = np.zeros(sym.nrows + 1, dtype=sym.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        from repro import CSR

        adj = CSR(
            sym.shape, indptr, sym.indices[keep],
            np.ones(int(keep.sum())), sorted_rows=sym.sorted_rows,
        )
        tracer = Tracer()
        assert count_triangles(adj, tracer=tracer) == count_triangles(adj)
        (root,) = tracer.spans
        names = [c.name for c in root.children]
        assert names == ["reorder", "split", "wedges", "mask"]
