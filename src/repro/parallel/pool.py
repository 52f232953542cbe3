"""Process-pool SpGEMM: flop-balanced row blocks, one worker per block.

Operand transport — how each worker gets A and B — is selectable and
defaults to zero-copy:

* ``"shm"`` — the six CSR arrays of A and B are packed once into a single
  :class:`multiprocessing.shared_memory.SharedMemory` segment (64-byte
  aligned, mirroring cache-line alignment of the paper's scratch buffers);
  each worker maps the segment and reconstructs zero-copy numpy views.
  Nothing of the operands is pickled — only the segment name and a small
  metadata header travel to the workers.
* ``"fork"`` — operands are published in a module global before the pool
  starts and inherited by forked children through copy-on-write pages.
  Used automatically where ``shared_memory`` is unavailable.
* ``"pickle"`` — the legacy transport: each worker receives a pickled copy
  of its A block and of all of B.  Kept for debugging and as a behavioural
  baseline; this is exactly the per-worker allocation storm that the
  paper's Fig. 4 warns about at the thread level.

``share="auto"`` (the default) picks the first available mode in the order
above; the ``REPRO_POOL_SHARE`` environment variable overrides the choice
without code changes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import sanitizer as _sanitizer
from ..core.engine import resolve_engine
from ..core.options import SpgemmOptions
from ..core.scheduler import rows_to_threads
from ..core.spgemm import ALGORITHMS, _resolve_auto, spgemm
from ..errors import ConfigError, ShapeError
from ..observability import NULL_TRACER, Tracer, tracer_from_env
from ..matrix.csr import CSR, INDEX_DTYPE, INDPTR_DTYPE, VALUE_DTYPE

__all__ = ["parallel_spgemm", "SHARE_MODES"]

try:  # pragma: no cover - import guard exercised implicitly
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover - absent only on exotic platforms
    _shm_module = None

#: Operand transports accepted by ``parallel_spgemm(..., share=...)``.
SHARE_MODES = ("auto", "shm", "fork", "pickle")

#: Shared-memory segment alignment for each packed array (cache line).
_ALIGN = 64


# --------------------------------------------------------------------------
# operand transport
# --------------------------------------------------------------------------

def _pack_layout(arrays: "list[np.ndarray]") -> "tuple[list, int]":
    """Aligned (offset, dtype, size) for each array and the total bytes."""
    metas = []
    offset = 0
    for arr in arrays:
        offset = -(-offset // _ALIGN) * _ALIGN
        metas.append((offset, arr.dtype.str, int(arr.size)))
        offset += arr.nbytes
    return metas, max(offset, 1)


def _csr_arrays(m: CSR) -> "list[np.ndarray]":
    return [m.indptr, m.indices, m.data]


def _pack_shm(a: CSR, b: CSR):
    """Copy both operands into one shared segment; return (shm, header)."""
    arrays = _csr_arrays(a) + _csr_arrays(b)
    metas, total = _pack_layout(arrays)
    shm = _shm_module.SharedMemory(create=True, size=total)
    try:
        for (off, dtype, size), arr in zip(metas, arrays):
            view = np.ndarray(size, dtype=dtype, buffer=shm.buf, offset=off)
            view[:] = arr
    # Cleanup-and-reraise: the segment exists only in this function so far,
    # and even a KeyboardInterrupt mid-copy must not leak it in /dev/shm —
    # hence BaseException, with an unconditional re-raise.
    except BaseException:  # repro-lint: disable=overbroad-except
        _release_shm(shm)
        raise
    header = (a.shape, a.sorted_rows, b.shape, b.sorted_rows, metas)
    return shm, header


def _release_shm(shm) -> None:
    """Close and unlink a segment, tolerating an already-unlinked one.

    ``unlink`` after the resource tracker (or an earlier failure path) got
    there first raises ``FileNotFoundError``; releasing twice must stay
    harmless so every error path can call this unconditionally.
    """
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


#: Worker-side cache of attached segments, so a worker that runs several
#: blocks of one call maps the segment once.  A handle must not be closed
#: while numpy views borrow its mapped buffer: current numpy keeps only an
#: object reference to the mmap (no buffer-protocol export), so ``close()``
#: would *succeed* and the next view access would fault on the dangling
#: pointer.  The cache therefore never closes a handle; the workers of a
#: per-call pool exit with the call, which unmaps everything they held.
_SHM_HANDLES: "dict[str, object]" = {}


def _attach_shm(name: str):
    shm = _SHM_HANDLES.get(name)
    if shm is None:
        # The parent owns the segment's lifetime (it unlinks after the pool
        # drains).  Attaching must therefore not register with the resource
        # tracker: a fork worker shares the parent's tracker and its
        # unregister would race the parent's unlink, while a spawn worker's
        # private tracker would warn about a "leak" it does not own.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        try:
            # Sanctioned monkeypatch: scoped to this attach, restored in the
            # finally below, and only ever runs on the worker's own tracker.
            # repro-lint: disable-next-line=race-global-mutation
            resource_tracker.register = (
                lambda n, rtype: None
                if rtype == "shared_memory"
                else original_register(n, rtype)
            )
            shm = _shm_module.SharedMemory(name=name)
        finally:
            # repro-lint: disable-next-line=race-global-mutation
            resource_tracker.register = original_register
        # Sanctioned setup path: the cache is worker-private (each process
        # fills its own copy after fork/spawn) and reads are idempotent.
        # repro-lint: disable-next-line=race-global-mutation
        _SHM_HANDLES[name] = shm
    return shm


def _unpack_shm(shm, header) -> "tuple[CSR, CSR]":
    a_shape, a_sorted, b_shape, b_sorted, metas = header
    views = [
        np.ndarray(size, dtype=dtype, buffer=shm.buf, offset=off)
        for off, dtype, size in metas
    ]
    # Operands travel read-only, unconditionally: every worker maps the same
    # segment, so one stray in-place write would corrupt its siblings'
    # inputs.  (The CSR constructor's ascontiguousarray is a no-copy
    # passthrough for these canonical-dtype views, preserving the flag.)
    for view in views:
        view.flags.writeable = False
    a = CSR(a_shape, views[0], views[1], views[2], sorted_rows=a_sorted)
    b = CSR(b_shape, views[3], views[4], views[5], sorted_rows=b_sorted)
    return a, b


#: Fork-inheritance mailbox: operands published here before the pool forks
#: are visible to children via copy-on-write, with zero serialization.
_FORK_OPERANDS: "dict[int, tuple[CSR, CSR]]" = {}
_FORK_TOKENS = itertools.count()


def _resolve_share(share: str) -> str:
    """Validate ``share`` and resolve ``"auto"`` to a concrete transport."""
    if share == "auto":
        share = os.environ.get("REPRO_POOL_SHARE", "").strip() or "auto"
    if share not in SHARE_MODES:
        raise ConfigError(
            f"unknown share mode {share!r}; available: {list(SHARE_MODES)}"
        )
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    if share == "auto":
        if _shm_module is not None:
            return "shm"
        if fork_ok:
            return "fork"
        return "pickle"
    if share == "shm" and _shm_module is None:
        raise ConfigError("shared_memory is unavailable on this platform")
    if share == "fork" and not fork_ok:
        raise ConfigError("fork start method is unavailable on this platform")
    return share


# --------------------------------------------------------------------------
# workers (top-level so every start method can pickle them)
# --------------------------------------------------------------------------

def _trace_payload(wtracer: "Tracer | None"):
    """Serialized span forest of a worker-local tracer (None when untraced)."""
    if wtracer is None or not wtracer.spans:
        return None
    return [s.to_dict() for s in wtracer.spans]


def _compute_block(
    a: CSR, b: CSR, start: int, end: int,
    algorithm: str, semiring_name: str, sort_output: bool, engine: str,
    trace: bool,
):
    wtracer = Tracer() if trace else None
    c = spgemm(
        a.row_block(start, end), b,
        algorithm=algorithm, semiring=semiring_name,
        sort_output=sort_output, engine=engine, tracer=wtracer,
    )
    return c.indptr, c.indices, c.data, _trace_payload(wtracer)


def _worker_shm(args):
    (shm_name, header, start, end,
     algorithm, sr_name, sort_output, engine, trace) = args
    wtracer = Tracer() if trace else None
    if wtracer is None:
        a, b = _unpack_shm(_attach_shm(shm_name), header)
    else:
        with wtracer.span("unpack", phase="unpack", transport="shm"):
            a, b = _unpack_shm(_attach_shm(shm_name), header)
    c = spgemm(
        a.row_block(start, end), b,
        algorithm=algorithm, semiring=sr_name,
        sort_output=sort_output, engine=engine, tracer=wtracer,
    )
    return c.indptr, c.indices, c.data, _trace_payload(wtracer)


def _worker_fork(args):
    token, start, end, algorithm, sr_name, sort_output, engine, trace = args
    a, b = _FORK_OPERANDS[token]
    return _compute_block(
        a, b, start, end, algorithm, sr_name, sort_output, engine, trace
    )


def _worker_pickle(args):
    a_block, b, algorithm, sr_name, sort_output, engine, trace = args
    wtracer = Tracer() if trace else None
    c = spgemm(
        a_block, b,
        algorithm=algorithm, semiring=sr_name,
        sort_output=sort_output, engine=engine, tracer=wtracer,
    )
    return c.indptr, c.indices, c.data, _trace_payload(wtracer)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def parallel_spgemm(
    a: CSR,
    b: CSR,
    opts: SpgemmOptions | None = None,
    *,
    nworkers: int | None = None,
    share: str = "auto",
    **kwargs,
) -> CSR:
    """Compute ``C = A (x) B`` across ``nworkers`` OS processes.

    Rows are split with the paper's flop-balanced scheduler so workers
    finish together even on skewed inputs.  The default ``esc`` kernel is
    the fastest executable one under the faithful engine.  A product whose
    kernel is the threaded batched one (``engine="fast"`` on a row with a
    ``batch_order``: the hash family, SPA, ``mkl_inspector``) runs as one
    :func:`repro.spgemm` call on :mod:`repro.core.threads` instead, which
    beats worker processes on every measured operand; ``nworkers`` and
    ``share`` have no effect on it.

    Kernel configuration arrives the same way as :func:`repro.spgemm`'s: a
    frozen :class:`~repro.core.options.SpgemmOptions`, loose keywords
    (``algorithm``, ``semiring``, ``sort_output``, ``engine``, ``tracer``),
    or both — keywords override the options object's fields, validated by
    :meth:`SpgemmOptions.from_kwargs`.  ``algorithm`` defaults to ``"esc"``
    here (not ``"auto"``); an explicit ``"auto"`` resolves once, on the
    full operands, before dispatch, as a fresh :func:`repro.spgemm` call
    resolves it (a calibration profile, explicit or active, else the
    Table-4 recipe).  The
    process-local fields ``partition``, ``stats``, ``plan`` and
    ``plan_cache`` are not supported across the process boundary and raise
    :class:`~repro.errors.ConfigError`; ``nthreads`` is ignored (``nworkers``
    is this function's parallelism knob).

    Parameters
    ----------
    nworkers:
        Process count (default: min(cores, 8)).  Must be >= 1; counts
        beyond the row count are clamped — no silent empty blocks.  No
        effect when the threaded batched kernel runs.
    share:
        Operand transport: ``"shm"`` (zero-copy shared memory),
        ``"fork"`` (copy-on-write inheritance), ``"pickle"`` (legacy
        serialized copies), or ``"auto"`` to pick the best available,
        overridable via the ``REPRO_POOL_SHARE`` environment variable.
    tracer:
        Optional :class:`repro.observability.Tracer` (also activated by
        ``REPRO_TRACE``).  The parent traces partition, operand packing and
        the stitch; each worker traces its own block and ships the span
        tree back with its result, where it is grafted under the pool span
        — so one trace shows the per-worker phase decomposition *and* the
        transport cost around it.  Worker spans run concurrently, so their
        durations can sum past the pool's wall time.

    Notes
    -----
    Only the *output* blocks travel back over IPC; under ``"shm"``/
    ``"fork"`` the operands are never serialized, so the setup cost is one
    memcpy (or none) instead of ``nworkers`` pickled copies of B.
    """
    options = SpgemmOptions.from_kwargs(opts, **kwargs)
    if opts is None and "algorithm" not in kwargs:
        options = options.replace(algorithm="esc")
    for name in ("partition", "stats", "plan", "plan_cache"):
        if getattr(options, name) is not None:
            raise ConfigError(
                f"parallel_spgemm does not support {name!r}: it is "
                "process-local and cannot follow the operands to the workers"
            )
    if a.ncols != b.nrows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if options.algorithm == "auto":
        # The refiner's observe callback is dropped: the curves price one
        # process at the profile's thread count, not this pool's wall time.
        options = options.replace(algorithm=_resolve_auto(a, b, options)[0])
    algorithm = options.algorithm
    sr = options.semiring
    sort_output = options.sort_output
    engine = options.engine
    tracer = options.tracer
    if nworkers is None:
        nworkers = min(os.cpu_count() or 1, 8)
    if nworkers < 1:
        raise ConfigError(f"nworkers must be >= 1, got {nworkers}")
    mode = _resolve_share(share)
    nworkers = min(nworkers, max(a.nrows, 1))
    if tracer is None:
        tracer = tracer_from_env()
    threaded = (
        ALGORITHMS[algorithm].batch_order is not None
        and resolve_engine(engine, algorithm) == "fast"
    )
    if nworkers == 1 or a.nrows == 0 or threaded:
        return spgemm(
            a, b, algorithm=algorithm, semiring=sr,
            sort_output=sort_output, engine=engine, tracer=tracer,
        )
    # The pool path opens a constant number of spans per call (never one per
    # row), so tracing unconditionally through NULL_TRACER is free enough.
    obs = tracer if tracer is not None else NULL_TRACER
    trace = obs.enabled
    san = _sanitizer.begin(mode)
    with obs.span(
        "parallel_spgemm", phase="other",
        algorithm=algorithm, engine=engine, share=mode, nworkers=nworkers,
        nrows=a.nrows,
    ) as pool_span:
        with obs.span("partition", phase="partition"):
            partition = rows_to_threads(a, b, nworkers)
            partition.validate(a.nrows)
        blocks = [
            (int(partition.offsets[t]), int(partition.offsets[t + 1]))
            for t in range(nworkers)
        ]
        work = [(s, e) for s, e in blocks if e > s]
        if san is not None:
            for wid, (s, e) in enumerate(work):
                san.claim(wid, s, e)

        if mode == "shm":
            with obs.span("pack", phase="pack", transport="shm"):
                shm, header = _pack_shm(a, b)
            if san is not None:
                san.register_segment(shm)
            tasks = [
                (shm.name, header, s, e,
                 algorithm, sr.name, sort_output, engine, trace)
                for s, e in work
            ]
            try:
                with obs.span("workers", phase="execute", transport="shm"):
                    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                        results = list(pool.map(_worker_shm, tasks))
            finally:
                if san is not None:
                    # Digest check precedes release: the mapping must still
                    # be alive to compare bytes against the packed digest.
                    san.verify_segment(shm)
                _release_shm(shm)
                if san is not None:
                    san.release_segment(shm.name)
        elif mode == "fork":
            token = next(_FORK_TOKENS)
            # Sanctioned setup path: published before the fork so children
            # inherit it copy-on-write; only the parent ever mutates, under
            # a fresh token, and the finally below removes it.
            # repro-lint: disable-next-line=race-global-mutation
            _FORK_OPERANDS[token] = (a, b)
            tasks = [
                (token, s, e, algorithm, sr.name, sort_output, engine, trace)
                for s, e in work
            ]
            try:
                ctx = multiprocessing.get_context("fork")
                with obs.span("workers", phase="execute", transport="fork"):
                    with ProcessPoolExecutor(
                        max_workers=len(tasks), mp_context=ctx
                    ) as pool:
                        results = list(pool.map(_worker_fork, tasks))
            finally:
                # Parent-only cleanup of the parent-only mailbox entry.
                # repro-lint: disable-next-line=race-global-mutation
                del _FORK_OPERANDS[token]
        else:  # pickle
            with obs.span("pack", phase="pack", transport="pickle"):
                tasks = [
                    (a.row_block(s, e), b,
                     algorithm, sr.name, sort_output, engine, trace)
                    for s, e in work
                ]
            with obs.span("workers", phase="execute", transport="pickle"):
                with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                    results = list(pool.map(_worker_pickle, tasks))

        # Preallocated single-pass stitch: sizes first, then one copy per
        # block.
        payloads: "list[tuple[int, list]]" = []
        with obs.span("stitch", phase="stitch"):
            nrows = a.nrows
            indptr = np.zeros(nrows + 1, dtype=INDPTR_DTYPE)
            total = 0
            it = iter(results)
            block_results = []
            wid = 0
            for s, e in blocks:
                if e <= s:
                    block_results.append(None)
                    continue
                bi, bc, bv, payload = next(it)
                if san is not None:
                    san.check_block(wid, bi)
                block_results.append((bi, bc, bv))
                indptr[s + 1 : e + 1] = total + bi[1:]
                total += int(bi[-1])
                if payload:
                    payloads.append((wid, payload))
                wid += 1
            out_indices = np.empty(total, dtype=INDEX_DTYPE)
            out_data = np.empty(total, dtype=VALUE_DTYPE)
            cursor = 0
            for blk in block_results:
                if blk is None:
                    continue
                _, bc, bv = blk
                out_indices[cursor : cursor + len(bc)] = bc
                out_data[cursor : cursor + len(bv)] = bv
                cursor += len(bc)
        # Graft worker traces under the pool span (not the stitch — their
        # concurrent wall time would masquerade as stitch time otherwise).
        for wid, payload in payloads:
            for sub in payload:
                obs.graft(sub, name=f"worker[{wid}]:{sub['name']}")
        if san is not None:
            # Leak check + counters + report, then raise on any violation.
            san.finish(pool_span)
    return CSR(
        (nrows, b.ncols), indptr, out_indices, out_data,
        sorted_rows=ALGORITHMS[algorithm].sorts(sort_output),
    )
