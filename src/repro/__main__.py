"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      print the algorithm registry (Table 1) and machine specs
``datasets``  list the SuiteSparse proxy suite (Table 2)
``multiply``  run a real SpGEMM on a generated or Matrix-Market input
``simulate``  price the same multiplication on the KNL/Haswell model
``recipe``    ask Table 4 which algorithm to use for an input
``calibrate`` measure this machine, write a repro-calibration/1 profile
``validate``  cross-check the performance model against the real kernels
``summa``     run the distributed 2-D Sparse SUMMA simulation
``serve``     run the multi-tenant SpGEMM server (repro-job/1 protocol)
``submit``    submit one job to a running server and print the outcome

Examples
--------
::

    python -m repro multiply --pattern g500 --scale 12 --algorithm hash --unsorted
    python -m repro simulate --pattern er --scale 14 --machine knl --threads 272
    python -m repro recipe --matrix path/to/matrix.mtx
    python -m repro datasets
    python -m repro serve --port 7070 --http-port 7071 --concurrency 4
    python -m repro submit --port 7070 --pattern er --scale 10 --algorithm hash

``multiply`` and ``submit`` build their kernel configuration through the
same ``repro-job/1`` wire parser the server uses
(:func:`repro.core.options.options_from_wire`), so a flag accepted here is
by construction a request the server accepts too.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from . import __version__
from .errors import ReproError

__all__ = ["main", "build_parser"]


def _load_input(args) -> "tuple":
    """Build (A, description) from --matrix / --dataset / --pattern."""
    if args.matrix:
        from .matrix.io import read_matrix_market

        m = read_matrix_market(args.matrix)
        return m, f"file {args.matrix}"
    if args.dataset:
        from .datasets import load_dataset

        m = load_dataset(args.dataset, max_n=args.max_n)
        return m, f"proxy dataset {args.dataset!r} (max_n={args.max_n})"
    from .rmat import er_matrix, g500_matrix

    gen = {"er": er_matrix, "g500": g500_matrix}[args.pattern]
    m = gen(args.scale, args.edge_factor, seed=args.seed)
    return m, f"{args.pattern.upper()} scale {args.scale}, edge factor {args.edge_factor}"


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="Matrix Market file to load")
    p.add_argument("--dataset", help="name of a Table-2 proxy dataset")
    p.add_argument("--max-n", type=int, default=20000, dest="max_n",
                   help="dimension cap for proxy datasets (default 20000)")
    p.add_argument("--pattern", choices=("er", "g500"), default="g500",
                   help="R-MAT pattern for generated inputs (default g500)")
    p.add_argument("--scale", type=int, default=12,
                   help="R-MAT scale: matrix is 2^scale square (default 12)")
    p.add_argument("--edge-factor", type=int, default=16, dest="edge_factor",
                   help="average nonzeros per row (default 16)")
    p.add_argument("--seed", type=int, default=0)


def cmd_info(args) -> int:
    from .core.spgemm import ALGORITHMS
    from .machine import HASWELL, KNL

    print(f"repro {__version__} — SpGEMM on KNL/multicore (Nagasaka et al., ICPP'18)")
    print("\nAlgorithms (Table 1 + extensions):")
    for info in ALGORITHMS.values():
        print("  " + info.table_row())
    print("\nModeled machines (Table 3):")
    for m in (KNL, HASWELL):
        print(
            f"  {m.name:8s} {m.cores} cores x {m.smt} SMT @ {m.clock_ghz} GHz, "
            f"{m.vector_bits}-bit SIMD, "
            f"DDR {m.mem.ddr_peak_bps / 1e9:.0f} GB/s"
            + (
                f", MCDRAM {m.mem.mcdram_peak_bps / 1e9:.0f} GB/s"
                if m.mem.mcdram_peak_bps > m.mem.ddr_peak_bps
                else ""
            )
        )
    return 0


def cmd_datasets(args) -> int:
    from .datasets import DATASETS

    print(f"{'name':<18s} {'kind':<8s} {'n (paper)':>12s} {'nnz/row':>8s} {'CR':>7s}")
    print("-" * 60)
    for spec in DATASETS.values():
        print(
            f"{spec.name:<18s} {spec.kind:<8s} {spec.paper_n:>12,d} "
            f"{spec.paper_nnz_per_row:>8.1f} {spec.paper_compression_ratio:>7.2f}"
        )
    return 0


def _wire_options(args) -> "dict":
    """CLI flags as a ``repro-job/1`` options payload (shared parser)."""
    return {
        "type": "spgemm",
        "algorithm": args.algorithm,
        "semiring": args.semiring,
        "sort_output": not args.unsorted,
        "nthreads": args.threads,
    }


def cmd_multiply(args) -> int:
    from .core import KernelStats, options_from_wire, spgemm

    a, desc = _load_input(args)
    print(f"input: {desc}: {a}")
    stats = KernelStats()
    options = options_from_wire(_wire_options(args)).replace(stats=stats)
    t0 = time.perf_counter()
    c = spgemm(a, a, options)
    dt = time.perf_counter() - t0
    print(f"C = A (x) A via {args.algorithm!r}: {c}")
    print(
        f"wall-clock {dt:.3f} s (CPython); flop={stats.flops:,}, "
        f"probes={stats.hash_probes + stats.vector_probes:,}, "
        f"heap ops={stats.heap_pushes + stats.heap_pops:,}, "
        f"sorted elements={stats.sorted_elements:,}"
    )
    return 0


def cmd_simulate(args) -> int:
    from .machine import HASWELL, KNL
    from .perfmodel import ProblemQuantities, SimConfig, simulate_spgemm

    a, desc = _load_input(args)
    machine = {"knl": KNL, "haswell": HASWELL}[args.machine]
    q = ProblemQuantities.compute(a, a)
    cfg = SimConfig(
        machine=machine,
        nthreads=args.threads,
        sort_output=not args.unsorted,
        memory_mode=args.memory_mode,
    )
    print(
        f"input: {desc}: flop={q.total_flop / 1e6:.2f}M, "
        f"nnz(C)={q.total_nnz_c / 1e6:.2f}M, CR={q.compression_ratio:.2f}"
    )
    print(
        f"simulating on {machine.name}, "
        f"{cfg.threads} threads, {cfg.memory_mode}, "
        f"{'unsorted' if args.unsorted else 'sorted'} output:"
    )
    algorithms = args.algorithm.split(",") if args.algorithm else [
        "hash", "hashvec", "heap", "mkl", "mkl_inspector", "kokkos",
    ]
    reports = [
        simulate_spgemm(alg, config=cfg, quantities=q) for alg in algorithms
    ]
    for r in sorted(reports, key=lambda r: r.seconds):
        print(f"  {r}")
    return 0


def cmd_validate(args) -> int:
    from .perfmodel import validate_counts

    a, desc = _load_input(args)
    print(f"input: {desc}")
    report = validate_counts(a, a, nthreads=args.threads)
    print(report.render())
    return 0 if report.ok else 1


def cmd_summa(args) -> int:
    from .distributed import sparse_summa

    a, desc = _load_input(args)
    print(f"input: {desc}: {a}")
    c, report = sparse_summa(a, a, args.grid, algorithm=args.algorithm)
    print(f"C = A (x) A on the grid: {c}")
    print(report.summary())
    per_rank = report.received / 1e6
    print(
        f"per-rank received: min {per_rank.min():.2f} MB, "
        f"mean {per_rank.mean():.2f} MB, max {per_rank.max():.2f} MB"
    )
    return 0


def cmd_recipe(args) -> int:
    from .core.recipe import recipe_table, recommend

    a, desc = _load_input(args)
    d = recommend(a, sort_output=not args.unsorted)
    print(f"input: {desc}")
    print(
        f"features: CR={d.compression_ratio:.2f}, edge factor={d.edge_factor:.1f}, "
        f"skew={d.skew:.1f}, output={'unsorted' if args.unsorted else 'sorted'}"
    )
    print(f"-> use algorithm {d.algorithm!r} ({d.reason})")
    if args.table:
        print()
        print(recipe_table())
    return 0


def cmd_calibrate(args) -> int:
    from .autotune import PROFILE_ENV_VAR, run_calibration
    from .perfmodel.cost import CALIBRATION_TERMS

    algorithms = None
    if args.algorithms:
        algorithms = tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        )
    machine = {"knl": "KNL", "haswell": "Haswell"}[args.machine]
    t0 = time.perf_counter()
    profile = run_calibration(
        scale=args.grid_scale,
        algorithms=algorithms,
        engine=args.engine,
        nthreads=args.threads,
        repeats=args.repeats,
        machine=machine,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - t0
    profile.save(args.out)
    print(
        f"calibrated {len(profile.curves)} algorithm(s) on a "
        f"scale-{args.grid_scale} grid in {elapsed:.1f}s "
        f"(engine={args.engine}, threads={args.threads})"
    )
    header = "  ".join(f"{t:>13s}" for t in CALIBRATION_TERMS)
    print(f"{'algorithm':14s}{header}  {'rmse[ms]':>9s}")
    for name in sorted(profile.curves):
        curve = profile.curves[name]
        coefs = "  ".join(f"{c:13.3e}" for c in curve.coefficients)
        print(f"{name:14s}{coefs}  {curve.rmse_seconds * 1e3:9.3f}")
    print(f"profile written to {args.out}")
    print(f"activate with: export {PROFILE_ENV_VAR}={args.out}")
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def cmd_serve(args) -> int:
    from .serve import ServeOptions, serve_in_thread

    opts = ServeOptions(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        concurrency=args.concurrency,
        max_queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        plan_cache_size=args.plan_cache_size,
    )
    handle = serve_in_thread(opts)
    # SIGTERM drains exactly as Ctrl-C does: service managers and `kill`
    # send it, and a shell's background job ignores SIGINT.
    signal.signal(signal.SIGTERM, _interrupt)
    endpoint = f"{handle.host}:{handle.port}"
    print(f"repro-serve listening on {endpoint} (repro-job/1)")
    if handle.http_port is not None:
        print(f"metrics: http://{handle.host}:{handle.http_port}/metrics")
    print("press Ctrl-C (or send SIGTERM) to drain and stop")
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("\ndraining...")
        clean = handle.stop()
        print("clean drain" if clean else "drain timed out; queued jobs failed")
        return 0 if clean else 1


def cmd_submit(args) -> int:
    import json

    from .core import options_from_wire
    from .serve import Client

    a, desc = _load_input(args)
    options = options_from_wire(_wire_options(args))
    print(f"input: {desc}: {a}")
    with Client(args.host, args.port, tenant=args.tenant) as cli:
        t0 = time.perf_counter()
        c = cli.spgemm(a, a, options, deadline_ms=args.deadline_ms)
        dt = time.perf_counter() - t0
        print(f"C = A (x) A served by {args.host}:{args.port}: {c}")
        print(f"round-trip {dt:.3f} s")
        if args.stats:
            print(json.dumps(cli.stats(), indent=2, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="algorithm registry and machine specs")
    sub.add_parser("datasets", help="list the Table-2 proxy suite")

    p_mul = sub.add_parser("multiply", help="run a real SpGEMM (A squared)")
    _add_input_args(p_mul)
    p_mul.add_argument("--algorithm", default="hash")
    p_mul.add_argument("--semiring", default="plus_times")
    p_mul.add_argument("--unsorted", action="store_true")
    p_mul.add_argument("--threads", type=int, default=1)

    p_sim = sub.add_parser("simulate", help="price A squared on the model")
    _add_input_args(p_sim)
    p_sim.add_argument("--machine", choices=("knl", "haswell"), default="knl")
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--unsorted", action="store_true")
    p_sim.add_argument("--memory-mode", dest="memory_mode", default="cache",
                       choices=("cache", "flat_ddr", "flat_mcdram"))
    p_sim.add_argument("--algorithm", default=None,
                       help="comma-separated list (default: the paper's set)")

    p_rec = sub.add_parser("recipe", help="apply the Table-4 recipe")
    _add_input_args(p_rec)
    p_rec.add_argument("--unsorted", action="store_true")
    p_rec.add_argument("--table", action="store_true",
                       help="also print the full Table 4")

    p_cal = sub.add_parser(
        "calibrate",
        help="measure this machine and write a repro-calibration/1 profile",
    )
    p_cal.add_argument("--out", required=True,
                       help="profile JSON path to write")
    p_cal.add_argument("--grid-scale", type=int, default=10,
                       dest="grid_scale",
                       help="calibration problems are ~2^scale rows "
                            "(default 10)")
    p_cal.add_argument("--engine", choices=("fast", "faithful"),
                       default="fast",
                       help="engine the profile is calibrated for "
                            "(default fast)")
    p_cal.add_argument("--threads", type=int, default=1)
    p_cal.add_argument("--repeats", type=int, default=2,
                       help="timed repetitions per grid point (default 2)")
    p_cal.add_argument("--machine", choices=("knl", "haswell"),
                       default="knl",
                       help="machine model the curves are expressed over")
    p_cal.add_argument("--algorithms", default=None,
                       help="comma-separated subset (default: all "
                            "candidates)")
    p_cal.add_argument("--seed", type=int, default=7)

    p_val = sub.add_parser(
        "validate", help="model-vs-kernel operation-count validation"
    )
    _add_input_args(p_val)
    p_val.add_argument("--threads", type=int, default=4)

    p_sum = sub.add_parser(
        "summa", help="distributed 2-D Sparse SUMMA simulation (A squared)"
    )
    _add_input_args(p_sum)
    p_sum.add_argument("--grid", type=int, default=2,
                       help="process grid dimension p (p*p ranks)")
    p_sum.add_argument("--algorithm", default="esc",
                       help="node-local kernel")

    p_srv = sub.add_parser(
        "serve", help="run the multi-tenant SpGEMM server"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7070)
    p_srv.add_argument("--http-port", type=int, default=None, dest="http_port",
                       help="metrics/health HTTP shim port (off by default)")
    p_srv.add_argument("--concurrency", type=int, default=2,
                       help="jobs computed simultaneously (default 2)")
    p_srv.add_argument("--queue-depth", type=int, default=32,
                       dest="queue_depth",
                       help="admitted-but-unstarted jobs allowed (default 32)")
    p_srv.add_argument("--deadline-ms", type=int, default=30_000,
                       dest="deadline_ms",
                       help="default per-job deadline (default 30000)")
    p_srv.add_argument("--plan-cache-size", type=int, default=64,
                       dest="plan_cache_size")

    p_sub = sub.add_parser(
        "submit", help="submit one A-squared job to a running server"
    )
    _add_input_args(p_sub)
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=7070)
    p_sub.add_argument("--tenant", default="cli")
    p_sub.add_argument("--algorithm", default="hash")
    p_sub.add_argument("--semiring", default="plus_times")
    p_sub.add_argument("--unsorted", action="store_true")
    p_sub.add_argument("--threads", type=int, default=1)
    p_sub.add_argument("--deadline-ms", type=int, default=None,
                       dest="deadline_ms")
    p_sub.add_argument("--stats", action="store_true",
                       help="also print the server's metrics snapshot")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "datasets": cmd_datasets,
        "multiply": cmd_multiply,
        "simulate": cmd_simulate,
        "recipe": cmd_recipe,
        "calibrate": cmd_calibrate,
        "validate": cmd_validate,
        "summa": cmd_summa,
        "serve": cmd_serve,
        "submit": cmd_submit,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into `head` etc.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
