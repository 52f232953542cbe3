"""``served``: open-loop Poisson traffic against ``python -m repro serve``.

Three tenants send a fixed mix of jobs over two connections to a server
subprocess running with default concurrency on the inline plan-cache
path:

* ``spgemm`` on a few repeated structures (plan-cache hits);
* ``spgemm`` on never-seen structures (selection plus inspection);
* ``masked`` L·U∘A on a fixed graph;
* ``chain`` R·A·P on a fixed mesh.

Every job is at about scale 10 (2**10 rows).  The products use ER
operands only.  Skewed inputs are the closed loops' concern: a skewed
never-seen product's cost varies so much between seeds that it would set
the 90th percentile on its own.

The run is split into segments, each with its own set-up and server
process (see :func:`run`).  A segment's arrival times are a seeded
Poisson process at the fixed rate :data:`RATE` (``N`` arrivals placed
uniformly over the segment, which is a Poisson process conditioned on
its count).  Every frame is built in set-up with the public
``build_job``/``encode_message``.  A job's latency runs from its
*scheduled* send time to the arrival of its full response, so a stalled
generator or server is charged to every job it delays.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import ChainOptions, Client, SpgemmOptions
from repro import masked_spgemm, multiply_chain, spgemm
from repro.matrix.ops import degree_reorder, triangular_split
from repro.serve.protocol import (
    build_job,
    csr_to_wire,
    decode_message,
    encode_message,
    parse_job,
)

import inputs
from common import (
    BENCH,
    SETUP_REPEATS,
    InvalidRun,
    check_close,
    corrupt,
    e2e_metrics,
    flatten_spans,
    layer_seconds,
    log,
    out_dir,
    pct,
    peak_rss_mb,
    ratio,
    recorded_span,
    reset_peak_rss,
    scipy_reference,
)

#: Offered load in jobs/s: about a quarter of the 90 jobs/s two
#: connections complete in a closed loop on a 2-core machine with this job
#: mix.  Half capacity would hold twice the frames in memory; at 8 and 16
#: jobs/s too few chain jobs (the slowest sixth, which holds the 90th
#: percentile) arrive in a run to place that percentile steadily
#: (README.md).
RATE = 24.0
#: A job that answers later than this after its scheduled send misses.
LATENCY_LIMIT_MS = 2000
#: A run whose generator sent its 90th-percentile job later than this
#: is invalid: the offered load was not the one stated.
LAG_LIMIT_MS = 50.0
#: Seconds of untimed traffic, in the run's own mix and rate, that each
#: server gets before its timed part: a fresh server process runs its first
#: jobs slower (allocator growth, first calls), and without this those
#: jobs land in the timed part of every segment.
WARMUP_S = 2.0
#: The generator sleeps until this long before a send is due, then keeps
#: yielding to the event loop (which goes on reading responses) until it
#: is: the loop's timers wake up to a millisecond late, which would be
#: charged to the job.
SPIN_S = 0.002
CONNECTIONS = 2
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Distinct repeated structures for the ``hit`` class: three, as in the
#: schedule of the repository's earlier serving benchmark, which cycles
#: three structures across its tenants.
HIT_SETS = 3
#: Job mix, as exact shares of the run's jobs (shuffled per seed): every
#: operand source gets the same number of jobs.  The sources are each
#: repeated ``hit`` structure, the masked graph, the chain mesh and the
#: stream of never-seen structures.
MIX = (("hit", HIT_SETS), ("miss", 1), ("masked", 1), ("chain", 1))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
AUTO = SpgemmOptions(algorithm="auto", engine="fast")
MASKED = ChainOptions(engine="fast")
CHAIN = ChainOptions(algorithm="auto", engine="auto")


class Job:
    """One scheduled job: its frame, operands and fresh reference key."""

    def __init__(self, i, at, kind, tenant, operands, options, key):
        self.id = f"job-{i}"
        self.at = at
        self.kind = kind
        self.operands = operands
        self.key = key
        wire_kind = {"hit": "spgemm", "miss": "spgemm"}.get(kind, kind)
        if wire_kind == "spgemm":
            job = build_job("spgemm", job_id=self.id, tenant=tenant,
                            options=options, a=operands[0], b=operands[1],
                            deadline_ms=LATENCY_LIMIT_MS)
        elif wire_kind == "masked":
            job = build_job("masked", job_id=self.id, tenant=tenant,
                            options=options, a=operands[0], b=operands[1],
                            mask=operands[2], deadline_ms=LATENCY_LIMIT_MS)
        else:
            job = build_job("chain", job_id=self.id, tenant=tenant,
                            options=options, matrices=operands,
                            deadline_ms=LATENCY_LIMIT_MS)
        self.frame = encode_message(job)
        self.at_abs = self.sent = self.recv = None
        #: the response, reduced to what the checks and metrics need
        self.ok = False
        self.error = self.elapsed_ms = self.stats = self.digest = None
        self.resp_bytes = 0

    def receive(self, t: float, msg: dict, nbytes: int) -> None:
        self.recv, self.resp_bytes = t, nbytes
        self.ok = bool(msg.get("ok"))
        self.error = msg.get("error")
        self.elapsed_ms = msg.get("elapsed_ms")
        self.stats = msg.get("stats") or {}
        if self.ok:
            self.digest = wire_digest(msg["result"]["c"])


def wire_digest(wire: dict) -> str:
    """Digest of a wire CSR's shape and raw arrays: equal digests mean
    bit-identical matrices (the ``sorted`` hint is left out)."""
    h = hashlib.sha256(repr(wire["shape"]).encode())
    for key in ("indptr", "indices", "data"):
        h.update(wire[key]["dtype"].encode())
        h.update(wire[key]["b64"].encode())
    return h.hexdigest()


def fresh(kind: str, operands):
    """The fresh in-process result a served job must equal bit for bit."""
    if kind in ("hit", "miss"):
        return spgemm(operands[0], operands[1], AUTO)
    if kind == "masked":
        return masked_spgemm(*operands, MASKED)
    return multiply_chain(operands, CHAIN)


def fixed_structures(sizes: inputs.Sizes, seed: int) -> dict:
    s, sc, ef = inputs.sub_seed, sizes.serve_scale, sizes.serve_ef
    out = {}
    for k in range(HIT_SETS):
        out[("hit", k)] = [inputs.er(sc, ef, s(seed, 20, k, 0)),
                           inputs.er(sc, ef, s(seed, 20, k, 1))]
    g, _ = degree_reorder(inputs.graph(sc, ef, False, s(seed, 21)))
    out[("masked", 0)] = [*triangular_split(g), g]
    # A square mesh of about 2**scale nodes, the size of the other jobs.
    side = int(round(2 ** (sc / 2)))
    out[("chain", 0)] = list(inputs.mesh_rap(side, s(seed, 22)))
    return out


def schedule(sizes: inputs.Sizes, seed: int, seconds: float, fixed: dict,
             segment: int):
    """The jobs of one segment of the run (its own arrivals, mix shuffle
    and never-seen structures)."""
    rng = np.random.default_rng([seed, 23, segment])
    n = max(int(round(RATE * seconds)), 1)
    at = np.sort(rng.uniform(0.0, seconds, size=n))
    unit = [k for k, w in MIX for _ in range(w)]
    kinds = np.array(unit * (n // len(unit) + 1))[:n]
    rng.shuffle(kinds)
    jobs = []
    for i, (t, kind) in enumerate(zip(at, kinds)):
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        if kind == "miss":
            a = inputs.er(sizes.serve_scale, sizes.serve_ef,
                          inputs.sub_seed(seed, 24, segment, i))
            operands, key, opts = [a, a], ("miss", segment, i), AUTO
        elif kind == "hit":
            key = ("hit", int(rng.integers(HIT_SETS)))
            operands, opts = fixed[key], AUTO
        elif kind == "masked":
            key = ("masked", 0)
            operands, opts = fixed[key], MASKED
        else:
            key = ("chain", 0)
            operands, opts = fixed[key], CHAIN
        jobs.append(Job(f"{segment}-{i}", float(t), str(kind), tenant,
                        operands, opts, key))
    return jobs


# --------------------------------------------------------------------------
# server process
# --------------------------------------------------------------------------

class ServerProc:
    """``python -m repro serve`` on an ephemeral port, with drain on stop.

    The server's output goes to a log file (a pipe nobody reads could fill
    and stall it).  SIGINT is reset to its default in the child, because
    a parent started in the background may ignore it, and the server only
    drains on the KeyboardInterrupt that SIGINT raises.
    """

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path = out_dir(ROOT) / "server.log"
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "w") as log_file:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                cwd=ROOT, env=env, stdout=log_file, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        self.port = self._await_port(timeout=60.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            for line in self.log_path.read_text().splitlines():
                if "listening on" in line:
                    return int(line.split()[3].rsplit(":", 1)[1])
            time.sleep(0.01)
        self.stop()
        raise InvalidRun(
            f"server did not start: {self.log_path.read_text()[-2000:]!r}"
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> bool:
        """Drain and stop; True when the server reported a clean drain."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        return (self.proc.returncode == 0
                and "clean drain" in self.log_path.read_text())


def _stats(port: int) -> dict:
    with Client("127.0.0.1", port) as cli:
        return cli.stats()


def _warm(port: int, fixed: dict) -> None:
    """One job per repeated structure, so the plan cache starts warm."""
    with Client("127.0.0.1", port, tenant="warmup") as cli:
        for (kind, _), ops in fixed.items():
            if kind == "hit":
                cli.spgemm(ops[0], ops[1], AUTO)
            elif kind == "masked":
                cli.masked(ops[0], ops[1], ops[2], MASKED)
            else:
                cli.chain(ops, CHAIN)


# --------------------------------------------------------------------------
# the open loop
# --------------------------------------------------------------------------

async def _drive(jobs, port: int) -> "tuple[float, list]":
    """Send every job at its scheduled time; collect every response.

    Returns the schedule origin (``perf_counter`` seconds) and each
    response line with its arrival time.  The lines are decoded after the
    run, so that the client's own work does not delay a send.
    """
    conns = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
        for _ in range(CONNECTIONS)
    ]
    arrivals: "list[tuple[float, bytes]]" = []

    async def reader(stream, expected: int) -> None:
        for _ in range(expected):
            line = await stream.readline()
            if not line:
                return
            arrivals.append((time.perf_counter(), line))

    readers = [
        asyncio.create_task(reader(r, len(jobs[c::CONNECTIONS])))
        for c, (r, _) in enumerate(conns)
    ]
    # The client's cyclic collector would otherwise pause the loop while
    # it walks every set-up object; nothing here makes cyclic garbage.
    gc.collect()
    gc.disable()
    try:
        origin = time.perf_counter() + 0.05
        for i, job in enumerate(jobs):
            due = origin + job.at
            delay = due - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            writer = conns[i % CONNECTIONS][1]
            job.sent = time.perf_counter()
            writer.write(job.frame)
            await writer.drain()
        done, pending = await asyncio.wait(
            readers, timeout=LATENCY_LIMIT_MS / 1000.0 + 30.0
        )
    finally:
        gc.enable()
    for task in pending:
        task.cancel()
    for task in done:
        task.result()
    for _, w in conns:
        w.close()
        await w.wait_closed()
    return origin, arrivals


def _receive(jobs, arrivals) -> None:
    """Decode the response lines into their jobs, freeing each line."""
    by_id = {job.id: job for job in jobs}
    while arrivals:
        t, line = arrivals.pop()
        msg = decode_message(line)
        job = by_id.get(msg.get("id"))
        if job is not None:
            job.receive(t, msg, len(line))


def _check(job: Job, refs: dict, inject: bool) -> "str | None":
    """A served result must equal the fresh in-process result bit for bit
    (compared by wire digest), and that result must match scipy."""
    if job.recv is None:
        return "no response"
    if not job.ok:
        return f"server error {job.error}"
    if (job.recv - job.at_abs) * 1e3 > LATENCY_LIMIT_MS:
        return f"missed the {LATENCY_LIMIT_MS} ms latency limit"
    if job.key not in refs:
        want = fresh(job.kind, job.operands)
        err = check_close(want, scipy_reference(
            job.operands, masked=job.kind == "masked"))
        refs[job.key] = (want, wire_digest(csr_to_wire(want)), err)
    want, digest, err = refs[job.key]
    if err is not None:
        return f"fresh in-process result: {err}"
    if inject:
        digest = wire_digest(csr_to_wire(corrupt(want)))
    if job.digest != digest:
        return "result is not bit-identical to the fresh in-process result"
    return None


#: Counters of the server's ``stats`` snapshot the per-layer metrics use,
#: as paths into the snapshot.
STATS = {
    "hits": ("plan_cache", "hits"),
    "misses": ("plan_cache", "misses"),
    "deadline_exceeded": ("counters", "deadline_exceeded"),
    "rejected_queue_full": ("counters", "rejected_queue_full"),
    "rejected_draining": ("counters", "rejected_draining"),
}


def _segment(sizes: inputs.Sizes, seed: int, seconds: float, k: int):
    """Set up a server and run one segment of the open loop against it.

    Returns the segment's jobs, its set-up seconds, its timed wall (from
    its schedule's origin to its last response), the server's ``VmHWM``
    over the timed part, and the deltas of the server's :data:`STATS`
    counters plus its final latency median.
    """
    t0 = time.perf_counter()
    fixed = fixed_structures(sizes, seed)
    jobs = schedule(sizes, seed, seconds, fixed, k)
    warmup = schedule(sizes, seed, WARMUP_S, fixed, SETUP_REPEATS + k)
    server = ServerProc()
    try:
        _warm(server.port, fixed)
        setup_s = time.perf_counter() - t0
        # Paced, so mostly idle: left out of setup_s, which it would
        # otherwise hold near a constant that hides set-up work.
        _, answers = asyncio.run(_drive(warmup, server.port))
        if len(answers) != len(warmup):
            raise InvalidRun("the server did not answer its warm-up jobs")
        del warmup, answers
        before = _stats(server.port)
        reset_peak_rss(server.pid)
        origin, arrivals = asyncio.run(_drive(jobs, server.port))
        after = _stats(server.port)
        rss = peak_rss_mb(server.pid)
    finally:
        drained = server.stop()
    if not drained:
        raise InvalidRun("the server did not drain cleanly")
    _receive(jobs, arrivals)
    for job in jobs:
        job.at_abs = origin + job.at
    end = max((j.recv for j in jobs if j.recv is not None), default=origin)
    stats = {}
    for name, path in STATS.items():
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        stats[name] = b - a
    stats["latency_p50"] = after["latency_ms"]["p50"] or 0.0
    return jobs, setup_s, end - origin, rss, stats


def run(args, sizes: inputs.Sizes) -> dict:
    """The run is :data:`SETUP_REPEATS` segments, each with its own set-up
    and server process and a share of ``--seconds``.  The latencies of all
    segments are pooled; ``setup_s`` and the peak RSS are the segments'
    medians.  Pooling over several server processes keeps one process's
    speed (how its threads were placed, what the host was doing) from
    setting the run's percentiles."""
    segments = [
        _segment(sizes, args.seed, args.seconds / SETUP_REPEATS, k)
        for k in range(SETUP_REPEATS)
    ]
    jobs = [j for seg in segments for j in seg[0]]
    setup_s = pct([seg[1] for seg in segments], 50)
    wall = sum(seg[2] for seg in segments)
    rss = pct([seg[3] for seg in segments], 50)
    stats = {
        name: sum(seg[4][name] for seg in segments) for name in STATS
    }
    stats["latency_p50"] = pct([seg[4]["latency_p50"] for seg in segments], 50)
    lag_ms = [(j.sent - j.at_abs) * 1e3 for j in jobs]
    if pct(lag_ms, 90) > LAG_LIMIT_MS:
        raise InvalidRun(
            f"load generator fell behind: p90 lag {pct(lag_ms, 90):.1f} ms "
            f"> {LAG_LIMIT_MS} ms"
        )

    refs: dict = {}
    errors = [_check(j, refs, args.inject_fault and k == 0)
              for k, j in enumerate(jobs)]
    failed = sum(e is not None for e in errors)
    for job, err in zip(jobs, errors):
        if err is not None:
            log(f"FAIL {job.kind} {job.id}: {err.splitlines()[0]}")
    answered = [j for j in jobs if j.recv is not None]
    lat = [j.recv - j.at_abs for j in answered]
    by_kind: "dict[str, list[float]]" = {}
    for j in answered:
        by_kind.setdefault(j.kind, []).append((j.recv - j.at_abs) * 1e3)
    kinds = ", ".join(f"{k} {pct(v, 50):.1f}" for k, v in sorted(by_kind.items()))
    log(f"served: {len(jobs)} jobs at {RATE} jobs/s, p50 "
        f"{pct(lat, 50) * 1e3:.1f} ms, p90 {pct(lat, 90) * 1e3:.1f} ms, "
        f"lag p90 {pct(lag_ms, 90):.2f} ms, {failed} failed; "
        f"median ms by kind: {kinds}")
    out = {"attempted": len(jobs), "failed": failed}
    if args.trace:
        out["spans"] = _spans(jobs, errors)
        out["layers"] = _layers(jobs, errors, refs, stats, lag_ms,
                                out["spans"])
    else:
        out["metrics"] = e2e_metrics(lat, len(jobs) - failed, wall, setup_s, rss)
    return out


def _spans(jobs, errors) -> "list[dict]":
    """Each verified job's spans, from the timestamps the run took anyway:
    generator lateness, then the wait (queue, handoff, transport, response
    encode), and the server's ``elapsed_ms`` as the compute at the end."""
    roots = []
    ok = [j for j, e in zip(jobs, errors) if e is None]
    for op, j in enumerate(ok):
        end_wait = max(j.recv - j.elapsed_ms / 1e3, j.sent)
        root = recorded_span("op", BENCH, j.at_abs, j.recv, op=op)
        root.children = [
            recorded_span("loadgen", "loadgen", j.at_abs, j.sent),
            recorded_span("wait", "serve.wait", j.sent, end_wait),
            recorded_span("compute", "serve.compute", end_wait, j.recv),
        ]
        roots.append(root)
    return flatten_spans(roots)


def _layers(jobs, errors, refs, stats, lag_ms, rows) -> dict:
    """Per-layer metrics from response bodies, the servers' stats snapshots
    and wire decode/encode timed here on the run's own payloads."""
    ok = [j for j, e in zip(jobs, errors) if e is None]
    n = len(jobs)
    wait_ms = [(j.recv - j.at_abs) * 1e3 - j.elapsed_ms for j in ok]

    # The served results are bit-identical to the fresh ones (checked), so
    # encoding the fresh result times the server's response encode.
    decode_s = encode_s = 0.0
    for j in ok:
        t0 = time.perf_counter()
        parse_job(decode_message(j.frame))
        t1 = time.perf_counter()
        encode_message(csr_to_wire(refs[j.key][0]))
        encode_s += time.perf_counter() - t1
        decode_s += t1 - t0

    hits, misses = stats["hits"], stats["misses"]
    tot = {k: sum(j.stats.get(k, 0.0) for j in ok)
           for k in ("flops", "output_nnz", "hash_probes", "hash_accesses")}
    masked = [j.stats for j in ok if j.kind == "masked"]
    kept = sum(st.get("masked_kept", 0.0) for st in masked)
    masked_flops = sum(st.get("flops", 0.0) for st in masked)
    own = layer_seconds(rows)
    traced = sum(j.recv - j.at_abs for j in ok)
    return {
        "core.flops": tot["flops"] / n,
        "core.output_nnz": tot["output_nnz"] / n,
        "core.compression_ratio": ratio(tot["flops"], tot["output_nnz"]),
        "core.collision_factor": (
            ratio(tot["hash_probes"], tot["hash_accesses"]) or 1.0
        ),
        "plan.hits": float(hits),
        "plan.misses": float(misses),
        "plan.hit_ratio": ratio(hits, hits + misses),
        "masked.kept_ratio": ratio(kept, masked_flops),
        "serve.compute_ms": sum(j.elapsed_ms for j in ok) / n,
        "serve.wait_p50_ms": pct(wait_ms, 50),
        "serve.wait_p90_ms": pct(wait_ms, 90),
        "serve.server_latency_p50_ms": stats["latency_p50"],
        "serve.decode_ms": decode_s / n * 1e3,
        "serve.encode_ms": encode_s / n * 1e3,
        "serve.bytes_in": sum(len(j.frame) for j in jobs) / n,
        "serve.bytes_out": sum(j.resp_bytes for j in jobs) / n,
        "serve.plan_hit_ratio": ratio(hits, hits + misses),
        "serve.deadline_exceeded": float(stats["deadline_exceeded"]),
        "serve.rejected": float(
            stats["rejected_queue_full"] + stats["rejected_draining"]
        ),
        "loadgen.lag_p90_ms": pct(lag_ms, 90),
        "bench.fail_frac": ratio(len(jobs) - len(ok), n),
        # The served spans are built from timestamps the untraced run takes
        # anyway, so tracing adds no work to a job's path.
        "bench.trace_overhead": 1.0,
        "bench.trace_coverage": ratio(
            sum(v for k, v in own.items() if k != "bench"), traced
        ),
    }
