"""Benchmark regression observatory: recorded runs + noise-aware checks.

Every tracked run is frozen as a machine-readable ``BENCH_<n>.json`` at
the repository root: the experiment configuration, the simulated
throughput/latency results, the modeled cost, the index health snapshot
(:func:`repro.obs.health.sample_health`), the metrics registry dump, and
the git revision it was measured at.  The sequence of BENCH files *is*
the performance trajectory of the reproduction — each PR that claims a
performance-relevant change records a new point.

``python -m repro.bench.regress`` records a run; ``--check --baseline
BENCH_k.json`` additionally compares the fresh run against a recorded
one and exits nonzero on regression.  Comparisons are noise-aware in a
specific sense: the simulated metrics (throughput, percentile latency,
modeled cost) are *deterministic* given the same configuration and seed,
so their thresholds guard against real behavioral drift, not sampling
noise, and can be tight; wall-clock metrics (build time) vary with the
host and are demoted to warnings with slack thresholds.  A configuration
mismatch between run and baseline is itself a failure — comparing cells
of different experiments is the classic way to fake a speedup.
"""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

SCHEMA = "repro.bench.regress/v1"

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: Deterministic-metric thresholds: metric -> (good direction, relative
#: tolerance).  A "higher" metric regresses when it drops more than the
#: tolerance below baseline; a "lower" metric when it rises above it.
THRESHOLDS = {
    "throughput_mops": ("higher", 0.15),
    "p50_us": ("lower", 0.25),
    "p99_us": ("lower", 0.25),
    "p999_us": ("lower", 0.25),
    "modeled_total_ns": ("lower", 0.15),
    "hit_rate": ("higher", 0.10),
}

#: Warn-only comparisons: protocol counters can legitimately move with
#: intentional changes, and wall-clock build time tracks the host, not
#: the code — both get slack thresholds and never fail the check.
WARN_THRESHOLDS = {
    "retries": ("lower", 0.50),
    "fallbacks": ("lower", 0.50),
    "conflicts": ("lower", 0.50),
}
WALLCLOCK_WARN = {"build_seconds": ("lower", 3.0)}

#: Config keys that must match exactly for a comparison to be valid.
CONFIG_KEYS = ("index", "dataset", "workload", "n_keys", "n_ops", "threads", "seed")


def repo_root() -> Path:
    """The repository root (three levels above this file's package)."""
    return Path(__file__).resolve().parents[3]


def git_rev(root: Path | None = None) -> str:
    """Short git revision of ``root``, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def next_bench_id(out_dir: Path) -> int:
    """Next free BENCH number; the trajectory starts at 8 (the PR that
    introduced the observatory)."""
    ids = [
        int(m.group(1))
        for p in out_dir.glob("BENCH_*.json")
        if (m := _BENCH_RE.match(p.name))
    ]
    return max(ids, default=7) + 1


def latest_bench(out_dir: Path) -> Path | None:
    """Highest-numbered existing BENCH file, or None."""
    best: tuple[int, Path] | None = None
    for p in out_dir.glob("BENCH_*.json"):
        m = _BENCH_RE.match(p.name)
        if m and (best is None or int(m.group(1)) > best[0]):
            best = (int(m.group(1)), p)
    return best[1] if best else None


def bench_document(
    index: str = "ALT-index",
    dataset: str = "lognormal",
    workload: str = "balanced",
    n_keys: int = 50_000,
    n_ops: int = 8_000,
    threads: int = 32,
    seed: int = 0,
    bench_id: int | None = None,
) -> dict:
    """Run one fully-observed experiment cell and freeze it as a BENCH doc.

    Uses :func:`repro.bench.harness.run_observed_experiment`, so the
    document carries span-checked modeled cost, the metrics registry
    snapshot, and the index health snapshot alongside the headline
    throughput/latency numbers.
    """
    from repro.bench.harness import run_observed_experiment
    from repro.bench.runner import INDEX_FACTORIES
    from repro.datasets.generators import dataset as make_dataset
    from repro.sim.engine import SimConfig
    from repro.workloads import WORKLOADS

    keys = make_dataset(dataset, n_keys, seed=seed)
    spec = WORKLOADS[workload]
    result, profile, _, snapshot = run_observed_experiment(
        INDEX_FACTORIES[index], dataset, keys, spec,
        threads=threads, n_ops=n_ops, seed=seed,
    )
    cost_model = SimConfig(threads=threads).cost_model
    return {
        "schema": SCHEMA,
        "bench_id": bench_id,
        "git_rev": git_rev(),
        "config": {
            "index": index,
            "dataset": dataset,
            "workload": workload,
            "n_keys": n_keys,
            "n_ops": n_ops,
            "threads": threads,
            "seed": seed,
        },
        "results": {
            "throughput_mops": result.throughput_mops,
            "p50_us": result.latency.p50_ns / 1e3,
            "p99_us": result.latency.p99_ns / 1e3,
            "p999_us": result.latency.p999_ns / 1e3,
            "modeled_total_ns": result.modeled_total_ns,
            "span_total_modeled_ns": profile.total_modeled_ns(cost_model),
            "hit_rate": result.sim.hit_rate,
            "conflicts": result.sim.conflicts,
            "retries": result.retries,
            "fallbacks": result.fallbacks,
            "recoveries": result.recoveries,
        },
        "wallclock": {"build_seconds": result.build_seconds},
        "health": result.index_stats.get("health"),
        "metrics": snapshot,
    }


def _regressed(direction: str, current: float, baseline: float, rel_tol: float) -> bool:
    if direction == "higher":
        return current < baseline * (1.0 - rel_tol)
    return current > baseline * (1.0 + rel_tol) + 1e-12


def compare(current: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """Compare a fresh BENCH doc against a recorded one.

    Returns ``(failures, warnings)``: failures are config mismatches and
    deterministic-metric regressions past :data:`THRESHOLDS`; warnings
    cover counter drift and wall-clock movement.
    """
    failures: list[str] = []
    warnings: list[str] = []
    ccfg = current.get("config", {})
    bcfg = baseline.get("config", {})
    for key in CONFIG_KEYS:
        if ccfg.get(key) != bcfg.get(key):
            failures.append(
                f"config mismatch: {key} = {ccfg.get(key)!r} vs baseline "
                f"{bcfg.get(key)!r} — comparison is between different experiments"
            )
    if failures:
        return failures, warnings

    cres = current.get("results", {})
    bres = baseline.get("results", {})

    def _check(table: dict, sink: list[str], kind: str) -> None:
        for metric, (direction, tol) in table.items():
            cur, base = cres.get(metric), bres.get(metric)
            if cur is None or base is None:
                continue
            if _regressed(direction, cur, base, tol):
                arrow = "dropped" if direction == "higher" else "rose"
                sink.append(
                    f"{kind}: {metric} {arrow} {base:.4g} -> {cur:.4g} "
                    f"(tolerance {tol:.0%})"
                )

    _check(THRESHOLDS, failures, "regression")
    _check(WARN_THRESHOLDS, warnings, "counter drift")
    cwall = current.get("wallclock", {})
    bwall = baseline.get("wallclock", {})
    for metric, (direction, tol) in WALLCLOCK_WARN.items():
        cur, base = cwall.get(metric), bwall.get(metric)
        if cur is None or base is None or base <= 0:
            continue
        if _regressed(direction, cur, base, tol):
            warnings.append(
                f"wall-clock drift: {metric} {base:.3g}s -> {cur:.3g}s "
                f"(host-dependent; not a failure)"
            )
    return failures, warnings


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.regress``: record and check a BENCH point.

    Default: run the standard cell and write ``BENCH_<n>.json`` at the
    repository root.  With ``--check``, additionally compare against
    ``--baseline`` (default: the latest recorded BENCH file) and exit 1
    on any regression or configuration mismatch.
    """
    import argparse

    from repro.bench.runner import INDEX_FACTORIES
    from repro.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Record a benchmark point and check it for regressions.",
    )
    parser.add_argument("--check", action="store_true",
                        help="compare against a baseline; exit 1 on regression")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline BENCH_<n>.json (default: latest recorded)")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="where BENCH files live (default: repo root)")
    parser.add_argument("--bench-id", type=int, default=None)
    parser.add_argument("--no-record", action="store_true",
                        help="do not write a BENCH file (check only)")
    parser.add_argument("--index", default="ALT-index", choices=sorted(INDEX_FACTORIES))
    parser.add_argument("--dataset", default="lognormal")
    parser.add_argument("--workload", default="balanced", choices=sorted(WORKLOADS))
    parser.add_argument("--n", type=int, default=50_000, help="dataset size in keys")
    parser.add_argument("--ops", type=int, default=8_000)
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small cell for smoke tests (--n 10000 --ops 1000)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir) if args.out_dir else repo_root()
    n_keys, n_ops = (10_000, 1_000) if args.quick else (args.n, args.ops)
    bench_id = args.bench_id if args.bench_id is not None else next_bench_id(out_dir)

    doc = bench_document(
        index=args.index, dataset=args.dataset, workload=args.workload,
        n_keys=n_keys, n_ops=n_ops, threads=args.threads, seed=args.seed,
        bench_id=bench_id,
    )
    res = doc["results"]
    print(
        f"bench {bench_id} @ {doc['git_rev']}: "
        f"{res['throughput_mops']:.3f} Mops/s, "
        f"p99 {res['p99_us']:.2f} us, p999 {res['p999_us']:.2f} us"
    )

    status = 0
    if args.check:
        baseline_path = (
            Path(args.baseline) if args.baseline else latest_bench(out_dir)
        )
        if baseline_path is None:
            print("no baseline recorded yet; recording this run as the first point")
        else:
            with open(baseline_path) as fh:
                baseline = json.load(fh)
            if baseline.get("schema") != SCHEMA:
                print(f"FAIL: {baseline_path} is not a {SCHEMA} document")
                return 1
            failures, warnings = compare(doc, baseline)
            for w in warnings:
                print(f"warn: {w}")
            for f in failures:
                print(f"FAIL: {f}")
            if failures:
                status = 1
            else:
                print(f"ok: no regression vs {baseline_path.name}")

    if not args.no_record:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"BENCH_{bench_id}.json"
        with open(out_path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"recorded -> {out_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
