"""The SpGEMM benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload oneshot|replay|served --seed N \
        --seconds S --trace 0|1 [--scale full|tiny] [--inject-fault]

Run from the root of a source checkout; the package is imported from
``src/``.  Prints one ``name value unit`` line per metric, then, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).

Exit codes: 0 when every result checked out; 1 when some result was wrong
or an op failed (the JSON line is still printed); 2 when the checkout has
no package sources; 3 when the run was invalid (a served run whose load
generator fell behind or whose server did not drain), in which case no
numbers are printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oneshot", "replay", "served")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="operand sizes; 'tiny' is for the smoke test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first result before it is checked "
                         "(the smoke test's proof that checks bite)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from common import E2E_UNITS, LAYER_UNITS, InvalidRun

    try:
        out = workloads.run(args, ROOT)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {
        name: {"value": float(out["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
