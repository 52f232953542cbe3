"""The asyncio SpGEMM server: admission, fair dispatch, warm execution.

Architecture
------------
One asyncio event loop owns the sockets and *never* computes:

* Each connection is read line-by-line; frames are handled concurrently,
  so one connection can pipeline many jobs and receive responses
  out-of-order (matched by ``id``).
* Admission runs in the loop: a job arriving while draining is refused
  (``"draining"``), one arriving at ``max_queue_depth`` admitted-but-
  unstarted jobs is refused (``"queue-full"``); otherwise it joins its
  tenant's FIFO queue.
* A single dispatcher task round-robins across tenants — a tenant
  flooding the queue delays only itself, not the others — and starts at
  most ``concurrency`` jobs at once.
* The job body (operand decode, kernel, result encode) runs inline in a
  compute thread via :func:`_execute_job`; batched kernels inside it
  split large products over :mod:`repro.core.threads`.  Deadlines are
  enforced with ``asyncio.wait_for`` measured **from admission**, so
  queue wait counts against a request's budget.  A job past its deadline
  is answered at once, but its compute thread cannot be interrupted: the
  job keeps its concurrency slot and its ``in_flight`` count until the
  thread finishes, so a drain never reports clean over a running job.

Warm state shared by every request: a process-wide
:class:`~repro.core.plan.PlanCache` (repeated-structure traffic replays
plans numeric-only, across tenants).

Tracing: when the server has a tracer, each request runs under its own
:class:`~repro.observability.Tracer` in the compute thread and its span
forest is grafted into the server's tracer from the event loop, so one
trace interleaves every request's phase decomposition.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from ..apps.triangles import count_triangles, triangle_counts_per_vertex
from ..autotune import active_profile
from ..core.chain import multiply_chain
from ..core.engine import resolve_engine
from ..core.instrument import KernelStats
from ..core.plan import PlanCache
from ..errors import ConfigError, ReproError, invalid_choice
from ..observability import Tracer
from .metrics import ServerMetrics
from .options import ServeOptions
from .protocol import (
    JOB_KINDS,
    WIRE_SCHEMA,
    csr_to_wire,
    decode_message,
    encode_message,
    parse_job,
)

__all__ = ["Server", "ServerHandle", "serve_in_thread"]


def _error_body(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


# --------------------------------------------------------------------------
# job execution (compute-thread side)
# --------------------------------------------------------------------------

def _app_triangles(adjacency, plan_cache, stats, tracer, args):
    return {"value": int(count_triangles(
        adjacency, plan_cache=plan_cache, stats=stats, tracer=tracer, **args
    ))}


def _app_triangles_per_vertex(adjacency, plan_cache, stats, tracer, args):
    counts = triangle_counts_per_vertex(
        adjacency, plan_cache=plan_cache, stats=stats, tracer=tracer, **args
    )
    return {"values": [int(v) for v in counts]}


#: App jobs the server will run: registry name -> callable taking
#: ``(adjacency, plan_cache, stats, tracer, args)`` and returning a
#: JSON-able result.
_APP_REGISTRY = {
    "count_triangles": _app_triangles,
    "triangle_counts_per_vertex": _app_triangles_per_vertex,
}


def _execute_job(server: "Server", payload: dict):
    """Parse, compute and encode one job (runs on a compute thread).

    Returns ``(body, stats, trace_payload)`` where ``body`` is the
    response body (``ok`` + ``result``/``stats``/``elapsed_ms``),
    ``stats`` is the request's :class:`KernelStats` for the server-wide
    totals, and ``trace_payload`` is the request tracer's
    serialized span forest (or None).  Module-level — not a method — so
    tests can monkeypatch it with a deterministic slow/failing stand-in.
    """
    t0 = time.perf_counter()
    job = parse_job(payload)
    kind = job["kind"]
    stats = KernelStats()
    server_tracer = server.tracer
    wtracer = (
        Tracer() if server_tracer is not None and server_tracer.enabled
        else None
    )
    if kind == "spgemm":
        c = server._plan_cache.execute(
            job["a"], job["b"],
            job["options"].replace(stats=stats, tracer=wtracer),
        )
        result = {"c": csr_to_wire(c)}
    elif kind == "chain":
        options = job["options"].replace(
            stats=stats, tracer=wtracer, plan_cache=server._plan_cache,
        )
        c = multiply_chain(job["matrices"], options, mask=job["mask"])
        result = {"c": csr_to_wire(c)}
    elif kind == "masked":
        options = job["options"]
        c = server._plan_cache.execute_masked(
            job["a"], job["b"], job["mask"],
            semiring=options.semiring, complement=options.complement,
            sort_output=options.sort_output,
            engine=resolve_engine(options.engine),
            nthreads=options.nthreads, stats=stats, tracer=wtracer,
        )
        result = {"c": csr_to_wire(c)}
    elif kind == "app":
        fn = _APP_REGISTRY.get(job["app"])
        if fn is None:
            raise invalid_choice("app", job["app"], sorted(_APP_REGISTRY))
        try:
            result = fn(
                job["adjacency"], server._plan_cache, stats, wtracer,
                job["args"],
            )
        except TypeError as exc:
            raise ConfigError(
                f"bad args for app {job['app']!r}: {exc}"
            ) from exc
    else:  # stats/ping are answered in the event loop, never queued
        raise ConfigError(f"job kind {kind!r} is not a compute kind")
    body = {
        "ok": True,
        "result": result,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
        "stats": stats.scalar_snapshot(),
    }
    trace = (
        [s.to_dict() for s in wtracer.spans]
        if wtracer is not None and wtracer.spans else None
    )
    return body, stats, trace


# --------------------------------------------------------------------------
# the server
# --------------------------------------------------------------------------

class Server:
    """Multi-tenant SpGEMM server over the ``repro-job/1`` protocol.

    Construct with a :class:`~repro.serve.options.ServeOptions` (or loose
    keywords), ``await start()`` inside a running loop, and ``await
    shutdown()`` to drain and stop.  For synchronous callers (tests, the
    CLI, benchmarks) use :func:`serve_in_thread`, which runs the loop on
    a daemon thread and hands back a :class:`ServerHandle`.
    """

    def __init__(self, options: "ServeOptions | None" = None, **kwargs):
        self.options = ServeOptions.from_kwargs(options, **kwargs)
        self.tracer = self.options.tracer
        self.port: "int | None" = None
        self.http_port: "int | None" = None
        self._plan_cache = PlanCache(maxsize=self.options.plan_cache_size)
        self._metrics = ServerMetrics()
        self._threads: "ThreadPoolExecutor | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._tcp = None
        self._http = None
        self._dispatcher: "asyncio.Task | None" = None
        self._tasks: "set[asyncio.Task]" = set()
        self._conns: "set[asyncio.Task]" = set()
        self._tenants: "dict[str, deque]" = {}
        self._rr: "deque[str]" = deque()
        self._queued = 0
        self._in_flight = 0
        self._draining = False
        self._closed = False
        self._work: "asyncio.Event | None" = None
        self._sem: "asyncio.Semaphore | None" = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind sockets, start the compute threads and the dispatcher."""
        opts = self.options
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._sem = asyncio.Semaphore(opts.concurrency)
        self._threads = ThreadPoolExecutor(
            max_workers=opts.concurrency, thread_name_prefix="repro-serve"
        )
        self._tcp = await asyncio.start_server(
            self._handle_conn, opts.host, opts.port,
            limit=opts.max_request_bytes,
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        if opts.http_port is not None:
            self._http = await asyncio.start_server(
                self._handle_http, opts.host, opts.http_port
            )
            self.http_port = self._http.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> bool:
        """Refuse new jobs, wait for the backlog; True on a clean drain.

        Waits up to ``drain_timeout_s`` for queued + in-flight jobs to
        finish.  On timeout the still-queued jobs are failed with
        ``"draining"`` (their clients get a response, not a hang) and
        False is returned; in-flight compute threads are left to finish
        in the background — they cannot be interrupted safely.
        """
        self._draining = True
        deadline = self._loop.time() + self.options.drain_timeout_s
        while (self._queued or self._in_flight) and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        clean = not (self._queued or self._in_flight)
        while True:
            entry = self._next_entry()
            if entry is None:
                break
            if not entry["future"].done():
                entry["future"].set_result(_error_body(
                    "draining", "server drained before this job started"
                ))
        return clean

    async def shutdown(self, *, drain: bool = True) -> bool:
        """Drain (optionally), then stop sockets, dispatcher and threads."""
        clean = await self.drain() if drain else True
        if not drain:
            self._draining = True
            while True:
                entry = self._next_entry()
                if entry is None:
                    break
                if not entry["future"].done():
                    entry["future"].set_result(_error_body(
                        "draining", "server stopped before this job started"
                    ))
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        for srv in (self._tcp, self._http):
            if srv is not None:
                srv.close()
                await srv.wait_closed()
        # wait_closed() does not cover per-connection handler tasks; cancel
        # them now, while the loop is still running, so their cleanup code
        # (writer.close) never fires against a closed loop.
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        if self._threads is not None:
            self._threads.shutdown(wait=False)
        return clean

    # -- admission + dispatch ----------------------------------------------

    def _enqueue(self, tenant: str, entry: dict) -> None:
        if tenant not in self._tenants:
            self._tenants[tenant] = deque()
            self._rr.append(tenant)
        self._tenants[tenant].append(entry)
        self._queued += 1
        self._work.set()

    def _next_entry(self) -> "dict | None":
        """Pop the next job, round-robin across tenants with backlog."""
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            q = self._tenants.get(tenant)
            if q:
                entry = q.popleft()
                if not q:
                    del self._tenants[tenant]
                    self._rr.remove(tenant)
                self._queued -= 1
                return entry
            if q is not None:
                del self._tenants[tenant]
                self._rr.remove(tenant)
        return None

    def _expired_in_queue(self, entry: dict) -> bool:
        """True when ``entry``'s deadline elapsed before dispatch."""
        if entry["deadline_ms"] is None:
            return False
        waited = self._loop.time() - entry["admitted_at"]
        return waited >= entry["deadline_ms"] / 1000.0

    def _fail_expired(self, entry: dict) -> None:
        latency_ms = (self._loop.time() - entry["admitted_at"]) * 1000.0
        self._metrics.finished(
            ok=False, latency_ms=latency_ms, code="deadline-exceeded"
        )
        if not entry["future"].done():
            entry["future"].set_result(_error_body(
                "deadline-exceeded", "deadline expired while queued"
            ))

    async def _dispatch_loop(self) -> None:
        while not self._closed:
            await self._work.wait()
            if self._closed:
                return
            await self._sem.acquire()
            entry = self._next_entry()
            if entry is None:
                self._sem.release()
                self._work.clear()
                continue
            # Fail jobs whose deadline elapsed while queued *before* they
            # consume the concurrency slot we just acquired — dispatching
            # them would burn executor time on a response nobody can use.
            if self._expired_in_queue(entry):
                self._fail_expired(entry)
                self._sem.release()
                continue
            self._in_flight += 1
            task = asyncio.create_task(self._run_entry(entry))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _release_slot(self, _job=None) -> None:
        """Give back a dispatched job's concurrency slot and in-flight count."""
        self._in_flight -= 1
        self._sem.release()
        self._work.set()

    async def _run_entry(self, entry: dict) -> None:
        loop = self._loop
        stats = trace = job = None
        try:
            timeout = None
            if entry["deadline_ms"] is not None:
                timeout = (
                    entry["deadline_ms"] / 1000.0
                    - (loop.time() - entry["admitted_at"])
                )
            if timeout is not None and timeout <= 0:
                body = _error_body(
                    "deadline-exceeded", "deadline expired while queued"
                )
            else:
                try:
                    job = loop.run_in_executor(
                        self._threads, _execute_job, self, entry["payload"]
                    )
                    body, stats, trace = await asyncio.wait_for(
                        asyncio.shield(job), timeout=timeout
                    )
                except asyncio.TimeoutError:
                    # The compute thread cannot be interrupted; it finishes
                    # in the background, its result is discarded, and the
                    # finally below leaves its slot taken until then.
                    body = _error_body(
                        "deadline-exceeded",
                        f"deadline of {entry['deadline_ms']} ms exceeded",
                    )
                except ConfigError as exc:
                    body = _error_body("bad-request", str(exc))
                except ReproError as exc:
                    body = _error_body(
                        "internal", f"{type(exc).__name__}: {exc}"
                    )
                # Server boundary: any other failure must become an error
                # response, never a silent dropped request.
                except Exception as exc:  # repro-lint: disable=overbroad-except
                    body = _error_body(
                        "internal", f"{type(exc).__name__}: {exc}"
                    )
            latency_ms = (loop.time() - entry["admitted_at"]) * 1000.0
            error = body.get("error") or {}
            self._metrics.finished(
                ok=bool(body.get("ok")), latency_ms=latency_ms,
                code=error.get("code"), stats=stats,
            )
            if trace and self.tracer is not None:
                rid = entry["payload"].get("id")
                for sub in trace:
                    self.tracer.graft(sub, name=f"request[{rid}]:{sub['name']}")
            if not entry["future"].done():
                entry["future"].set_result(body)
        finally:
            if job is None or job.done():
                self._release_slot()
            else:
                job.add_done_callback(self._release_slot)

    # -- protocol front-end ------------------------------------------------

    def _snapshot(self) -> dict:
        snapshot = self._metrics.snapshot(
            queue_depth=self._queued, in_flight=self._in_flight,
            draining=self._draining, plan_cache=self._plan_cache,
        )
        # Optional section: calibrated-selector state, present only while a
        # calibration profile is active (the "auto" jobs route through it).
        profile = active_profile()
        if profile is not None:
            snapshot["autotune"] = {
                "machine": profile.machine,
                "engine": profile.engine,
                "curves": sorted(profile.curves),
                "refiner": profile.refiner.snapshot(),
            }
        return snapshot

    async def _send(self, writer, wlock: asyncio.Lock, obj: dict) -> None:
        data = encode_message(obj)
        async with wlock:
            writer.write(data)
            await writer.drain()

    async def _handle_conn(self, reader, writer) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._conns.add(me)
        wlock = asyncio.Lock()
        pending: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(writer, wlock, {
                        "schema": WIRE_SCHEMA, "id": None,
                        **_error_body(
                            "bad-request",
                            f"request exceeds max_request_bytes="
                            f"{self.options.max_request_bytes}",
                        ),
                    })
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_frame(line, writer, wlock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        except asyncio.CancelledError:
            # Shutdown cancels connection tasks; finish normally so the
            # streams machinery's done-callback (which calls
            # task.exception()) does not log a spurious CancelledError.
            pass
        finally:
            if me is not None:
                self._conns.discard(me)
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
            # The loop may already be tearing down when a GC'd handler
            # reaches this point; closing must never raise then.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _handle_frame(self, line: bytes, writer, wlock) -> None:
        try:
            payload = decode_message(line)
        except ConfigError as exc:
            await self._send(writer, wlock, {
                "schema": WIRE_SCHEMA, "id": None,
                **_error_body("bad-request", str(exc)),
            })
            return
        rid = payload.get("id")

        async def reply(body: dict) -> None:
            await self._send(
                writer, wlock, {"schema": WIRE_SCHEMA, "id": rid, **body}
            )

        kind = payload.get("kind")
        # Control kinds bypass the queue: operators need liveness and
        # metrics even while the server is saturated or draining.
        if kind == "ping":
            await reply({"ok": True, "result": "pong"})
            return
        if kind == "stats":
            await reply({"ok": True, "result": self._snapshot()})
            return
        if kind not in JOB_KINDS:
            await reply(_error_body(
                "bad-request",
                f"unknown job kind {kind!r}; valid choices: {list(JOB_KINDS)}",
            ))
            return
        if self._draining:
            self._metrics.rejected("draining")
            await reply(_error_body("draining", "server is draining"))
            return
        if self._queued >= self.options.max_queue_depth:
            self._metrics.rejected("queue-full")
            await reply(_error_body(
                "queue-full",
                f"queue depth {self.options.max_queue_depth} reached",
            ))
            return
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.options.default_deadline_ms
        elif not isinstance(deadline_ms, int) or deadline_ms < 1:
            await reply(_error_body(
                "bad-request",
                f"deadline_ms must be a positive integer, got {deadline_ms!r}",
            ))
            return
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            tenant = "default"
        entry = {
            "payload": payload,
            "future": self._loop.create_future(),
            "deadline_ms": deadline_ms,
            "admitted_at": self._loop.time(),
        }
        self._metrics.admitted(kind, tenant)
        self._enqueue(tenant, entry)
        body = await entry["future"]
        await reply(body)

    # -- HTTP shim ---------------------------------------------------------

    async def _handle_http(self, reader, writer) -> None:
        """Minimal HTTP/1.1 for ``GET /metrics`` and ``GET /healthz``."""
        try:
            request_line = await reader.readline()
            while True:  # drain headers; the shim ignores them
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path.split("?")[0] == "/metrics":
                status, body = "200 OK", json.dumps(self._snapshot())
            elif path.split("?")[0] == "/healthz":
                status, body = "200 OK", json.dumps(
                    {"ok": True, "draining": self._draining}
                )
            else:
                status, body = "404 Not Found", json.dumps(
                    {"error": f"no route {path!r}"}
                )
            raw = body.encode("utf-8")
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(raw)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1") + raw
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# --------------------------------------------------------------------------
# synchronous harness
# --------------------------------------------------------------------------

class ServerHandle:
    """A running server on a daemon thread: addresses + a blocking stop."""

    def __init__(self, server: Server, loop, thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop_result: "bool | None" = None

    @property
    def host(self) -> str:
        return self.server.options.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def http_port(self) -> "int | None":
        return self.server.http_port

    def stop(self, *, drain: bool = True, timeout: "float | None" = None) -> bool:
        """Drain and stop the server, then join its loop thread.

        Idempotent: a second call (including the context-manager exit
        after an explicit ``stop()``) returns the first call's result.
        """
        if self._stop_result is not None:
            return self._stop_result
        if timeout is None:
            timeout = self.server.options.drain_timeout_s + 30.0
        fut = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self._loop
        )
        clean = fut.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._stop_result = clean
        return clean

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    options: "ServeOptions | None" = None, **kwargs
) -> ServerHandle:
    """Start a :class:`Server` on a daemon thread and wait until it binds.

    The synchronous entry point used by tests, benchmarks and the CLI:
    returns a :class:`ServerHandle` whose ``port``/``http_port`` are the
    resolved (possibly ephemeral) addresses.
    """
    opts = ServeOptions.from_kwargs(options, **kwargs)
    started = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = Server(opts)
        try:
            loop.run_until_complete(server.start())
        # Startup failure must release the waiter, not hang it; the error
        # is re-raised in the caller below.
        except Exception as exc:  # repro-lint: disable=overbroad-except
            box["error"] = exc
            started.set()
            loop.close()
            return
        box["server"] = server
        box["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    # The event-loop thread is no row part: its closure owns the loop it
    # runs and hands back only the handle, and a thread target never
    # pickles.
    # repro-lint: disable-next-line=race-spawn-capture
    thread = threading.Thread(
        target=run, name="repro-serve-loop", daemon=True
    )
    thread.start()
    if not started.wait(timeout=60.0):
        raise ConfigError("server failed to start within 60 s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
