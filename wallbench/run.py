"""Wall-clock benchmark of ALT-index: one workload per invocation.

Usage, from the root of a checkout::

    python3 wallbench/run.py --workload point-rw --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
stream's fixed prefix with every layer's public calls shimmed and prints
per-layer call counts and self times instead.  The next-to-last stdout
line is a JSON ``detail`` record (latency breakdown, host calibration,
workload properties, gauges); the last line is the result object::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from wallbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    if out["detail"].get("errors"):
        print("oracle mismatches: " + "; ".join(out["detail"]["errors"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
