"""The serving tier: wire round-trips, bit-identity, admission control.

Covers the unified options API (frozen options accepted everywhere, loose
kwargs still working, unknown keys rejected), the ``repro-job/1`` wire
schema (hypothesis round-trips over every option type and CSR payloads),
and the server's behavioural contract: served results bit-identical to
direct calls, queue-full and deadline-exceeded error paths, per-tenant
admission, graceful drain under load, and the metrics schema.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ChainOptions,
    ConfigError,
    ServeError,
    SpgemmOptions,
    options_from_wire,
    spgemm,
)
from repro.core.chain import multiply_chain
from repro.core.masked import masked_spgemm
from repro.rmat import er_matrix, g500_matrix
from repro.serve import (
    Client,
    ServeOptions,
    build_job,
    csr_from_wire,
    csr_to_wire,
    serve_in_thread,
    submit_job,
    validate_metrics_schema,
)
from repro.serve import server as server_mod
from repro.serve.metrics import LatencyReservoir

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

_ALGORITHMS = st.sampled_from(["auto", "hash", "hashvec", "heap", "spa", "esc"])
_SEMIRINGS = st.sampled_from(["plus_times", "or_and", "min_plus", "max_times"])


@st.composite
def spgemm_options(draw):
    return SpgemmOptions(
        algorithm=draw(_ALGORITHMS),
        semiring=draw(_SEMIRINGS),
        sort_output=draw(st.booleans()),
        nthreads=draw(st.integers(1, 8)),
        vector_bits=draw(st.sampled_from([128, 256, 512])),
        engine=draw(st.sampled_from(["faithful", "fast"])),
    )


@st.composite
def chain_options(draw):
    base = draw(spgemm_options())
    return ChainOptions(
        algorithm=base.algorithm,
        semiring=base.semiring,
        sort_output=base.sort_output,
        nthreads=base.nthreads,
        vector_bits=base.vector_bits,
        engine=draw(st.sampled_from(["faithful", "fast", "auto"])),
        complement=draw(st.booleans()),
        fuse=draw(st.sampled_from(["auto", "on", "off"])),
    )


class TestWireRoundTrip:
    @given(opts=spgemm_options())
    @settings(**COMMON)
    def test_spgemm_options_round_trip(self, opts):
        wire = opts.to_wire()
        assert wire["type"] == "spgemm"
        assert options_from_wire(wire) == opts
        assert SpgemmOptions.from_wire(wire) == opts

    @given(opts=chain_options())
    @settings(**COMMON)
    def test_chain_options_round_trip(self, opts):
        wire = opts.to_wire()
        assert wire["type"] == "chain"
        rebuilt = options_from_wire(wire)
        assert isinstance(rebuilt, ChainOptions)
        assert rebuilt == opts

    def test_partition_refuses_to_serialize(self):
        from repro.core.scheduler import rows_to_threads

        m = er_matrix(5, 4, seed=1)
        part = rows_to_threads(m, m, 2)
        with pytest.raises(ConfigError, match="partition"):
            SpgemmOptions(partition=part).to_wire()

    def test_unknown_wire_key_rejected(self):
        with pytest.raises(ConfigError, match="wire option"):
            SpgemmOptions.from_wire({"type": "spgemm", "bogus": 1})

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(ConfigError, match="options type"):
            options_from_wire({"type": "nope"})

    def test_wire_values_survive_json(self):
        import json

        opts = ChainOptions(algorithm="esc", fuse="off", complement=True)
        assert options_from_wire(json.loads(json.dumps(opts.to_wire()))) == opts

    def test_csr_round_trip_bit_identical(self):
        m = g500_matrix(6, 8, seed=11)
        back = csr_from_wire(csr_to_wire(m))
        assert back.shape == m.shape
        np.testing.assert_array_equal(back.indptr, m.indptr)
        np.testing.assert_array_equal(back.indices, m.indices)
        np.testing.assert_array_equal(
            back.data.view(np.uint64), m.data.view(np.uint64)
        )
        assert back.sorted_rows == m.sorted_rows


class TestUnifiedOptionsApi:
    """The three redesigned entry points accept the same (a, b, opts) shape."""

    def test_multiply_chain_accepts_frozen_options(self):
        g = er_matrix(5, 6, seed=2)
        opts = ChainOptions(algorithm="hash", fuse="off")
        by_opts = multiply_chain([g, g, g], opts)
        by_kwargs = multiply_chain([g, g, g], algorithm="hash", fuse="off")
        np.testing.assert_array_equal(by_opts.indptr, by_kwargs.indptr)
        np.testing.assert_array_equal(
            by_opts.data.view(np.uint64), by_kwargs.data.view(np.uint64)
        )

    def test_masked_spgemm_accepts_frozen_options(self):
        g = er_matrix(5, 6, seed=3)
        by_opts = masked_spgemm(g, g, g, ChainOptions(engine="fast"))
        by_kwargs = masked_spgemm(g, g, g, engine="fast")
        np.testing.assert_array_equal(by_opts.indptr, by_kwargs.indptr)
        np.testing.assert_array_equal(
            by_opts.data.view(np.uint64), by_kwargs.data.view(np.uint64)
        )

    def test_spgemm_accepts_frozen_options(self):
        g = er_matrix(5, 6, seed=4)
        by_opts = spgemm(g, g, SpgemmOptions(algorithm="esc"))
        by_kwargs = spgemm(g, g, algorithm="esc")
        np.testing.assert_array_equal(by_opts.indptr, by_kwargs.indptr)
        np.testing.assert_array_equal(
            by_opts.data.view(np.uint64), by_kwargs.data.view(np.uint64)
        )

    def test_spgemm_options_promote_to_chain_surface(self):
        g = er_matrix(5, 6, seed=5)
        plain = SpgemmOptions(algorithm="hash", engine="fast")
        c = multiply_chain([g, g], plain, fuse="off")
        d = spgemm(g, g, algorithm="hash", engine="fast")
        np.testing.assert_array_equal(c.indptr, d.indptr)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: multiply_chain([g, g], definitely_not_an_option=1),
            lambda g: masked_spgemm(g, g, g, definitely_not_an_option=1),
            lambda g: spgemm(g, g, definitely_not_an_option=1),
        ],
        ids=["chain", "masked", "spgemm"],
    )
    def test_unknown_kwargs_rejected_everywhere(self, call):
        g = er_matrix(4, 4, seed=6)
        with pytest.raises(ConfigError, match="valid options"):
            call(g)

    def test_serve_options_validation(self):
        with pytest.raises(ConfigError, match="concurrency"):
            ServeOptions(concurrency=0)
        with pytest.raises(ConfigError, match="unknown serve option"):
            ServeOptions.from_kwargs(None, bogus=1)
        base = ServeOptions(concurrency=3)
        assert ServeOptions.from_kwargs(base, max_queue_depth=2).concurrency == 3

    def test_worker_pool_options_are_refused(self):
        """Every served job runs inline; there is no process-pool path."""
        with pytest.raises(TypeError):
            ServeOptions(nworkers=2)
        for name, value in (("nworkers", 2), ("share", "shm")):
            with pytest.raises(ConfigError, match="unknown serve option"):
                ServeOptions.from_kwargs(None, **{name: value})


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(
        concurrency=2, max_queue_depth=16, default_deadline_ms=60_000,
        http_port=0,
    )
    yield handle
    handle.stop()


class TestServedBitIdentity:
    def test_spgemm_matches_direct(self, server):
        g = g500_matrix(6, 8, seed=21)
        direct = spgemm(g, g, algorithm="hash", engine="fast")
        with Client(server.host, server.port) as cli:
            served = cli.spgemm(g, g, algorithm="hash", engine="fast")
        np.testing.assert_array_equal(served.indptr, direct.indptr)
        np.testing.assert_array_equal(served.indices, direct.indices)
        np.testing.assert_array_equal(
            served.data.view(np.uint64), direct.data.view(np.uint64)
        )

    def test_repeated_structure_hits_plan_cache(self, server):
        g = er_matrix(6, 8, seed=22)
        with Client(server.host, server.port, tenant="cache") as cli:
            before = cli.stats()["plan_cache"]
            for _ in range(4):
                cli.spgemm(g, g, algorithm="hash")
            after = cli.stats()["plan_cache"]
        assert after["hits"] >= before["hits"] + 3

    def test_chain_matches_direct(self, server):
        g = er_matrix(5, 8, seed=23)
        direct = multiply_chain([g, g, g], fuse="off")
        with Client(server.host, server.port) as cli:
            served = cli.chain([g, g, g], fuse="off")
        np.testing.assert_array_equal(served.indptr, direct.indptr)
        np.testing.assert_array_equal(
            served.data.view(np.uint64), direct.data.view(np.uint64)
        )

    def test_masked_matches_direct(self, server):
        g = er_matrix(5, 8, seed=24)
        direct = masked_spgemm(g, g, g, engine="fast")
        with Client(server.host, server.port) as cli:
            served = cli.masked(g, g, g)
        np.testing.assert_array_equal(served.indptr, direct.indptr)
        np.testing.assert_array_equal(
            served.data.view(np.uint64), direct.data.view(np.uint64)
        )

    def test_app_matches_direct(self, server):
        from repro.apps import count_triangles

        g = er_matrix(6, 6, seed=25)
        with Client(server.host, server.port) as cli:
            result = cli.app("count_triangles", g)
        assert result["value"] == count_triangles(g)

    def test_app_reply_reports_kernel_counters(self, server):
        from repro.apps import count_triangles
        from repro.core.instrument import KernelStats
        from repro.core.plan import PlanCache

        g = er_matrix(6, 6, seed=26)
        job = build_job("app", job_id="tri-stats", app="count_triangles")
        job["adjacency"] = csr_to_wire(g)
        with Client(server.host, server.port) as cli:
            reply = cli.submit(job)
        direct = KernelStats()
        value = count_triangles(g, plan_cache=PlanCache(), stats=direct)
        assert reply["result"]["value"] == value
        assert direct.flops > 0
        assert reply["stats"]["flops"] == direct.flops

    @pytest.mark.parametrize(
        "app", ["count_triangles", "triangle_counts_per_vertex"]
    )
    def test_app_jobs_are_traced(self, app):
        from repro.observability import Tracer

        g = er_matrix(6, 6, seed=27)
        tracer = Tracer()
        with serve_in_thread(tracer=tracer) as handle:
            with Client(handle.host, handle.port) as cli:
                cli.app(app, g)
        names = [s.name for root in tracer.spans for s in root.walk()]
        # the fused masked product's plan spans, grafted from the request
        assert "plan.inspect" in names and "plan.execute" in names

    def test_ping_and_bad_requests(self, server):
        with Client(server.host, server.port) as cli:
            assert cli.ping()
            with pytest.raises(ServeError) as exc_info:
                cli.submit(build_job("spgemm", job_id="x"))  # no operands
            assert exc_info.value.code == "bad-request"

    def test_submit_job_one_shot(self, server):
        g = er_matrix(4, 4, seed=26)
        job = build_job(
            "spgemm", job_id="oneshot", a=g, b=g,
            options=SpgemmOptions(algorithm="hash"),
        )
        response = submit_job(server.host, server.port, job)
        assert response["ok"] and response["result"]["c"]

    def test_metrics_schema(self, server):
        with Client(server.host, server.port) as cli:
            snapshot = cli.stats()
        validate_metrics_schema(snapshot)
        assert snapshot["counters"]["completed"] >= 1
        with pytest.raises(ConfigError, match="schema"):
            validate_metrics_schema({"schema": "nope"})

    def test_http_metrics_endpoint(self, server):
        import json
        import urllib.request

        url = f"http://{server.host}:{server.http_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            payload = json.loads(resp.read())
        validate_metrics_schema(payload)
        health = f"http://{server.host}:{server.http_port}/healthz"
        with urllib.request.urlopen(health, timeout=30) as resp:
            assert json.loads(resp.read())["ok"] is True

    def test_stats_autotune_section_tracks_active_profile(self, server):
        from repro.autotune import (
            AlgorithmCurve,
            CalibrationProfile,
            clear_active_profile,
            set_active_profile,
        )

        with Client(server.host, server.port) as cli:
            assert "autotune" not in cli.stats()
            curve = AlgorithmCurve(
                algorithm="hash", coefficients=(0.0, 0.0, 0.0, 1.0),
                samples=1, rmse_seconds=0.0,
            )
            profile = CalibrationProfile(
                machine="KNL", engine="fast", nthreads=1, grid={},
                curves={"hash": curve},
            )
            set_active_profile(profile)
            try:
                section = cli.stats()["autotune"]
            finally:
                clear_active_profile()
            assert section["machine"] == "KNL"
            assert section["curves"] == ["hash"]
            assert "autotune" not in cli.stats()


class TestLatencyReservoir:
    def test_empty_window(self):
        r = LatencyReservoir(size=8)
        assert r.percentile(50) is None
        assert r.summary() == {
            "count": 0, "p50": None, "p90": None, "p99": None, "max": None,
        }

    def test_p0_is_min_p100_is_max(self):
        r = LatencyReservoir(size=64)
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            r.add(v)
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 5.0
        assert r.percentile(50) == 3.0

    def test_single_sample_answers_every_p(self):
        r = LatencyReservoir(size=8)
        r.add(7.5)
        for p in (0, 1, 50, 90, 99, 100):
            assert r.percentile(p) == 7.5
        assert r.summary() == {
            "count": 1, "p50": 7.5, "p90": 7.5, "p99": 7.5, "max": 7.5,
        }

    def test_nearest_rank_uses_ceil_not_round(self):
        # n=10, p=45: rank = ceil(4.5) = 5 — the 5th smallest sample.
        # round() banker-rounds 4.5 down to rank 4, off by one sample.
        r = LatencyReservoir(size=16)
        for v in range(1, 11):
            r.add(float(v))
        assert r.percentile(45) == 5.0
        assert r.percentile(90) == 9.0
        assert r.percentile(91) == 10.0
        assert r.percentile(99) == 10.0


def _slow_execute(delay_s: float):
    """A deterministic stand-in for the job body (see _execute_job)."""

    def run(server, payload):
        time.sleep(delay_s)
        return {"ok": True, "result": {"slept": delay_s}}, None, None

    return run


class TestAdmissionControl:
    def test_queue_full_rejection(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_execute_job", _slow_execute(0.6))
        with serve_in_thread(concurrency=1, max_queue_depth=1) as handle:
            g = er_matrix(3, 3, seed=31)
            codes = []
            lock = threading.Lock()

            def fire(i):
                spj = build_job(
                    "spgemm", job_id=f"j{i}", a=g, b=g,
                    options=SpgemmOptions(algorithm="hash"),
                )
                try:
                    submit_job(handle.host, handle.port, spj)
                    with lock:
                        codes.append("ok")
                except ServeError as exc:
                    with lock:
                        codes.append(exc.code)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
                time.sleep(0.02)  # deterministic arrival order
            for t in threads:
                t.join()
        # 1 computing + 1 queued are admitted; the rest bounce.
        assert codes.count("queue-full") >= 1
        assert "ok" in codes

    def test_deadline_exceeded(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_execute_job", _slow_execute(1.5))
        with serve_in_thread(concurrency=1) as handle:
            g = er_matrix(3, 3, seed=32)
            job = build_job(
                "spgemm", job_id="slow", a=g, b=g, deadline_ms=150,
                options=SpgemmOptions(algorithm="hash"),
            )
            with pytest.raises(ServeError) as exc_info:
                submit_job(handle.host, handle.port, job)
            assert exc_info.value.code == "deadline-exceeded"

    def test_timed_out_job_keeps_its_slot_until_it_finishes(self, monkeypatch):
        """A deadline-exceeded reply does not free the job's slot: its
        compute thread is still running, so the snapshot counts it in
        flight and a drain cannot report clean until it finishes."""
        import asyncio

        gate = threading.Event()

        def gated(server, payload):
            gate.wait(30)
            return {"ok": True, "result": {}}, None, None

        monkeypatch.setattr(server_mod, "_execute_job", gated)
        handle = serve_in_thread(concurrency=1, drain_timeout_s=0.2)
        try:
            g = er_matrix(3, 3, seed=36)
            job = build_job(
                "spgemm", job_id="gated", a=g, b=g, deadline_ms=50,
                options=SpgemmOptions(algorithm="hash"),
            )
            with pytest.raises(ServeError) as exc_info:
                submit_job(handle.host, handle.port, job)
            assert exc_info.value.code == "deadline-exceeded"
            with Client(handle.host, handle.port) as cli:
                assert cli.stats()["queue"]["in_flight"] == 1

            def drain():
                return asyncio.run_coroutine_threadsafe(
                    handle.server.drain(), handle._loop
                ).result(timeout=30)

            assert drain() is False
            gate.set()
            assert drain() is True
        finally:
            gate.set()
            handle.stop()

    def test_expired_while_queued_never_reaches_executor(self, monkeypatch):
        """A job whose deadline lapses in the queue fails at dispatch.

        Regression: expired entries used to consume the concurrency slot
        and spin up a compute task before the deadline check ran.  Now the
        dispatch loop fails them before dispatch, so the job body must
        never execute for the doomed job.
        """
        executed = []
        exec_lock = threading.Lock()

        def body(server, payload):
            with exec_lock:
                executed.append(payload["id"])
            time.sleep(0.5)
            return {"ok": True, "result": {}}, None, None

        monkeypatch.setattr(server_mod, "_execute_job", body)
        with serve_in_thread(concurrency=1, max_queue_depth=4) as handle:
            g = er_matrix(3, 3, seed=35)
            codes = {}
            code_lock = threading.Lock()

            def fire(name, deadline_ms):
                job = build_job(
                    "spgemm", job_id=name, a=g, b=g,
                    deadline_ms=deadline_ms,
                    options=SpgemmOptions(algorithm="hash"),
                )
                try:
                    submit_job(handle.host, handle.port, job)
                    with code_lock:
                        codes[name] = "ok"
                except ServeError as exc:
                    with code_lock:
                        codes[name] = exc.code

            first = threading.Thread(target=fire, args=("long", None))
            first.start()
            time.sleep(0.1)  # "long" occupies the only slot
            second = threading.Thread(target=fire, args=("doomed", 100))
            second.start()  # queued; its 100 ms expire while waiting
            first.join()
            second.join()
        assert codes == {"long": "ok", "doomed": "deadline-exceeded"}
        # Fail-fast contract: the expired job's body never ran.
        assert executed == ["long"]

    def test_draining_rejects_new_jobs_and_finishes_backlog(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_execute_job", _slow_execute(0.4))
        handle = serve_in_thread(
            concurrency=1, max_queue_depth=8, drain_timeout_s=30.0
        )
        g = er_matrix(3, 3, seed=33)
        results = {}
        lock = threading.Lock()

        def fire(name):
            job = build_job(
                "spgemm", job_id=name, a=g, b=g,
                options=SpgemmOptions(algorithm="hash"),
            )
            try:
                submit_job(handle.host, handle.port, job)
                with lock:
                    results[name] = "ok"
            except ServeError as exc:
                with lock:
                    results[name] = exc.code

        workers = [
            threading.Thread(target=fire, args=(f"in-flight-{i}",))
            for i in range(3)
        ]
        for t in workers:
            t.start()
        time.sleep(0.15)  # let them be admitted before the drain starts

        stopper = threading.Thread(target=lambda: results.update(
            clean=handle.stop()
        ))
        stopper.start()
        time.sleep(0.1)  # drain flag is now up
        late = threading.Thread(target=fire, args=("late",))
        late.start()
        for t in (*workers, late, stopper):
            t.join()
        assert results["clean"] is True
        assert results["late"] == "draining"
        assert all(
            results[f"in-flight-{i}"] == "ok" for i in range(3)
        ), results

    def test_tenant_fairness_round_robin(self, monkeypatch):
        """A flooding tenant must not starve another tenant's single job."""
        import socket

        from repro.serve.protocol import encode_message

        order = []
        order_lock = threading.Lock()

        def record(server, payload):
            time.sleep(0.1)
            with order_lock:
                order.append(payload.get("tenant"))
            return {"ok": True, "result": {}}, None, None

        monkeypatch.setattr(server_mod, "_execute_job", record)
        with serve_in_thread(concurrency=1, max_queue_depth=16) as handle:
            g = er_matrix(3, 3, seed=34)
            # Pipeline 5 flood jobs on one connection — they all queue at
            # once, without waiting for responses.
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=60
            )
            f = sock.makefile("rwb")
            for i in range(5):
                f.write(encode_message(build_job(
                    "spgemm", job_id=f"flood-{i}", tenant="flood",
                    a=g, b=g, options=SpgemmOptions(algorithm="hash"),
                )))
            f.flush()
            time.sleep(0.15)  # flood owns the queue; ~1 job has finished
            with Client(handle.host, handle.port, tenant="small") as cli:
                cli.submit(build_job(
                    "spgemm", job_id="small-0", tenant="small",
                    a=g, b=g, options=SpgemmOptions(algorithm="hash"),
                ))
            for _ in range(5):
                assert f.readline()
            f.close()
            sock.close()
        # Round-robin: the small tenant's job interleaves near the front
        # instead of waiting behind the whole flood.
        small_pos = order.index("small")
        assert small_pos <= 3, order
