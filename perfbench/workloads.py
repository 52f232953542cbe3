"""Run one workload and gather its metrics."""

from __future__ import annotations

import inputs
import oneshot
import replay
import served
from closed_loop import latency_summary, layer_metrics, run_loop
from common import (
    LAYER_UNITS,
    dump_spans,
    e2e_metrics,
    flatten_spans,
    log,
    out_dir,
    src_lines,
    timed_setup,
)


def run(args, root) -> dict:
    sizes = inputs.SIZES[args.scale]
    if args.workload == "served":
        out = served.run(args, sizes)
    else:
        out = _closed(args, sizes)
    if args.trace:
        metrics = dict.fromkeys(LAYER_UNITS, 0.0)
        metrics.update(out["layers"])
        metrics["repo.src_lines"] = float(src_lines(root))
        out["metrics"] = metrics
        path = out_dir(root) / f"trace-{args.workload}-{args.seed}.jsonl"
        dump_spans(out["spans"], path)
        log(f"spans written to {path}")
    return out


def _closed(args, sizes) -> dict:
    if args.workload == "oneshot":
        _, setup_s = timed_setup(oneshot.setup(sizes, args.seed))
        ops = oneshot.op_stream(sizes, args.seed)
        round_len, cache = len(oneshot.ROUND), None
    else:
        (patterns, cache), setup_s = timed_setup(replay.setup(sizes, args.seed))
        replay.prepare_checks(patterns, cache, args.seed)
        ops = replay.op_stream(patterns, cache, args.seed)
        round_len = len(replay.ROUND)
    res = run_loop(ops, args.seconds, round_len=round_len, cache=cache,
                   trace=bool(args.trace), inject_fault=args.inject_fault)
    log(f"{args.workload}: {latency_summary(res)}, "
        f"{res['failed']} of {res['attempted']} failed")
    out = {"attempted": res["attempted"], "failed": res["failed"]}
    if args.trace:
        out["spans"] = flatten_spans(res["acc"].tracer.spans)
        out["layers"] = layer_metrics(res, out["spans"])
    else:
        ok = len(res["latencies"]) - res["failed"]
        out["metrics"] = e2e_metrics(
            res["latencies"], ok, res["plain_wall"], setup_s, res["rss_mb"]
        )
    return out
