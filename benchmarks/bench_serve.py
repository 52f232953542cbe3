"""Served SpGEMM under open-loop load.

Writes ``benchmarks/results/BENCH_serve.json``.

The server's bargain (docs/serving.md) is the plan layer's, socialized:
one process-wide :class:`~repro.core.plan.PlanCache` answers every
tenant's repeated-structure traffic numeric-only, no client coordination
required.  This bench drives that claim end to end:

* **open-loop traffic** — each tenant pipelines its whole job schedule
  onto the wire up front (sends are not gated on completions, so queue
  wait is measured, not hidden) and then collects out-of-order responses
  by id;
* **repeated structures** — the schedule cycles a small set of operand
  structures across tenants, the cache-hit regime the iterative apps
  (AMG, MCL, BFS batches) produce in practice;
* **throughput + latency** — jobs/s over the wall, with client-side
  p50/p99 send-to-response latencies and the server's own admission-to-
  completion percentiles recorded side by side;
* **plan-cache hit rate** — asserted > 50% (first touch per structure
  misses, everything after hits);
* **bit-identity** — one served product per structure is compared to a
  direct in-process ``spgemm`` at the raw-bytes level.
"""

import os
import threading
import time

import numpy as np

from _util import record_json
from repro import Client, serve_in_thread, spgemm
from repro.core.options import SpgemmOptions
from repro.rmat import er_matrix, g500_matrix
from repro.serve import build_job, csr_from_wire, decode_message, encode_message

#: Matrix scale for the serving record (CI smoke runs shrink it).
DEFAULT_SERVE_SCALE = 10
SERVE_SCALE = int(
    os.environ.get("REPRO_BENCH_SERVE_SCALE", str(DEFAULT_SERVE_SCALE))
)

EDGE_FACTOR = 8
TENANTS = ("alice", "bob", "carol")
JOBS_PER_TENANT = 24

#: Every job uses the same plan-capable options, so cache keys differ only
#: by operand structure.
OPTIONS = SpgemmOptions(algorithm="hash", engine="fast", sort_output=True)


def _structures():
    """The repeated operand structures the tenants cycle through."""
    return {
        "er_a": er_matrix(SERVE_SCALE, EDGE_FACTOR, seed=11),
        "er_b": er_matrix(SERVE_SCALE, EDGE_FACTOR, seed=22),
        "g500": g500_matrix(scale=SERVE_SCALE - 1, edge_factor=EDGE_FACTOR, seed=33),
    }


def _tenant_load(host, port, tenant, mats, out, errs):
    """Pipeline one tenant's schedule; record per-job wire latencies."""
    import socket

    names = sorted(mats)
    try:
        with socket.create_connection((host, port), timeout=120.0) as sock:
            rfile = sock.makefile("rb")
            sent = {}
            for i in range(JOBS_PER_TENANT):
                name = names[i % len(names)]
                m = mats[name]
                job = build_job(
                    "spgemm", job_id=f"{tenant}-{i}", tenant=tenant,
                    a=m, b=m, options=OPTIONS, deadline_ms=120_000,
                )
                frame = encode_message(job)
                sent[job["id"]] = time.perf_counter()
                sock.sendall(frame)
            for _ in range(JOBS_PER_TENANT):
                resp = decode_message(rfile.readline())
                t1 = time.perf_counter()
                assert resp.get("ok"), resp.get("error")
                out.append((resp["id"], (t1 - sent[resp["id"]]) * 1000.0))
    except Exception as exc:  # repro-lint: disable=overbroad-except — thread boundary; re-raised in the main thread below
        errs.append(exc)


def _percentile(values, q):
    """Nearest-rank percentile, matching the server's reservoir."""
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def test_serve_record():
    """Open-loop multi-tenant traffic against a live server."""
    mats = _structures()
    total_jobs = len(TENANTS) * JOBS_PER_TENANT

    with serve_in_thread(
        concurrency=2, max_queue_depth=total_jobs + 8,
        default_deadline_ms=300_000, plan_cache_size=16,
    ) as handle:
        # Load phase: every tenant pipelines its schedule concurrently.
        latencies, errs = [], []
        threads = [
            threading.Thread(
                target=_tenant_load,
                args=(handle.host, handle.port, t, mats, latencies, errs),
            )
            for t in TENANTS
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0
        if errs:
            raise errs[0]
        assert len(latencies) == total_jobs

        # Identity phase: one served product per structure vs direct.
        with Client(handle.host, handle.port, tenant="verify") as cli:
            for name, m in mats.items():
                job = build_job(
                    "spgemm", job_id=f"verify-{name}", tenant="verify",
                    a=m, b=m, options=OPTIONS,
                )
                served = csr_from_wire(cli.submit(job)["result"]["c"])
                direct = spgemm(m, m, OPTIONS)
                assert np.array_equal(served.indptr, direct.indptr)
                assert np.array_equal(served.indices, direct.indices)
                assert served.data.tobytes() == direct.data.tobytes()
            snap = cli.stats()
        clean = handle.stop()

    assert clean, "drain was not clean"
    counters = snap["counters"]
    assert counters["completed"] == total_jobs + len(mats), counters
    assert counters["failed"] == 0, counters
    hit_rate = snap["plan_cache"]["hit_rate"]
    assert hit_rate > 0.5, snap["plan_cache"]

    lat_ms = [ms for _, ms in latencies]
    record_json(
        "BENCH_serve",
        {
            "benchmark": "served spgemm: open-loop multi-tenant traffic",
            "matrices": {
                name: {"nrows": m.nrows, "nnz": m.nnz}
                for name, m in mats.items()
            },
            "scale": SERVE_SCALE,
            "options": OPTIONS.to_wire(),
            "tenants": list(TENANTS),
            "jobs_per_tenant": JOBS_PER_TENANT,
            "total_jobs": total_jobs,
            "wall_seconds": wall_s,
            "throughput_jobs_per_s": total_jobs / wall_s,
            "client_latency_ms": {
                "p50": _percentile(lat_ms, 50),
                "p99": _percentile(lat_ms, 99),
                "max": max(lat_ms),
            },
            "server_latency_ms": snap["latency_ms"],
            "plan_cache": snap["plan_cache"],
            "counters": counters,
            "by_tenant": snap["tenants"],
            "bit_identical": True,
            "clean_drain": clean,
        },
        reduced=SERVE_SCALE < DEFAULT_SERVE_SCALE,
    )
