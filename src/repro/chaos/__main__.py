"""Command-line chaos runner: ``python -m repro.chaos``.

Drives the seeded protocol schedules from :mod:`repro.chaos.protocols`,
prints one line per schedule (seed, schedule fingerprint, verdict), and
replays every schedule a second time to prove determinism — a differing
fingerprint on replay is itself a failure.

With ``--exhaustive`` the seeded sampling is replaced by systematic
enumeration (:mod:`repro.chaos.dpor`): every schedule of a small
per-protocol variant is explored depth-first with sleep-set pruning,
the clean protocol must show no violation anywhere in the tree, and the
planted mutants must be *found* — deterministically, with no seed.

Examples::

    python -m repro.chaos --protocol gpl --seeds 5
    python -m repro.chaos --protocol all --seeds 3 --planted-bug
    python -m repro.chaos --protocol art --seed 17
    python -m repro.chaos --exhaustive --protocol gpl
    python -m repro.chaos --exhaustive --planted-bug --max-schedules 500

Exit status is 0 when every schedule behaved as expected (linearizable
normally; at least one detected violation per protocol with
``--planted-bug``), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.chaos.protocols import CASE_BUILDERS, find_violating_seed, run_schedule


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault-injection schedules for the ALT-index "
        "concurrency protocols.",
    )
    parser.add_argument(
        "--protocol",
        choices=[*CASE_BUILDERS, "all"],
        default="all",
        help="which protocol to exercise (default: all)",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="number of seeds to run, starting at 0"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="run exactly this one seed"
    )
    parser.add_argument(
        "--planted-bug",
        action="store_true",
        help="run the lost-update mutants and scan for a seed that exposes them",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="systematically enumerate schedules (DPOR with sleep-set "
        "pruning) over small per-protocol variants instead of sampling "
        "seeds; reports explored/pruned counts per protocol",
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=1000,
        metavar="N",
        help="schedule budget per protocol for --exhaustive (default 1000)",
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="disable sleep-set pruning under --exhaustive (plain "
        "enumeration; slower but assumption-free)",
    )
    parser.add_argument(
        "--emit-timeline",
        default=None,
        metavar="PATH",
        help="write every (protocol, seed) schedule as one merged Chrome "
        "trace-event JSON: one process per run, one track per task, with "
        "injected crashes as instant events and fingerprints in otherData",
    )
    args = parser.parse_args(argv)

    protocols = list(CASE_BUILDERS) if args.protocol == "all" else [args.protocol]
    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    ok = True
    timeline_runs: list[tuple[str, int, object]] = []

    if args.exhaustive:
        from repro.chaos.dpor import explore_protocol

        for proto in protocols:
            report = explore_protocol(
                proto,
                planted=args.planted_bug,
                max_schedules=args.max_schedules,
                prune=not args.no_prune,
            )
            print(report.summary())
            if args.planted_bug:
                if not report.violations:
                    print(f"{proto:<8} planted-bug NOT DETECTED in explored schedules")
                    ok = False
                else:
                    print("    " + report.violations[0].summary())
            elif report.violations:
                ok = False
                for violation in report.violations:
                    print("    " + violation.summary())
        print("chaos: OK" if ok else "chaos: FAILED")
        return 0 if ok else 1

    for proto in protocols:
        if args.planted_bug:
            report = find_violating_seed(proto, seeds if args.seed is not None else range(64))
            if report is None:
                print(f"{proto:<8} planted-bug NOT DETECTED in scanned seeds")
                ok = False
                continue
            print(report.summary())
            replay = run_schedule(proto, report.seed, planted=True)
            same = replay.fingerprint == report.fingerprint
            print(
                f"{proto:<8} replay seed={report.seed} "
                f"fingerprint={replay.fingerprint} "
                f"{'identical' if same else 'DIVERGED'}"
            )
            ok = ok and same
            continue
        for seed in seeds:
            report = run_schedule(proto, seed)
            if report.scheduler is not None:
                timeline_runs.append((proto, seed, report.scheduler))
            print(report.summary())
            if not report.ok:
                ok = False
                for op in report.ops:
                    print(f"    {op!r}")
            replay = run_schedule(proto, seed)
            if replay.fingerprint != report.fingerprint:
                print(
                    f"{proto:<8} replay seed={seed} DIVERGED: "
                    f"{report.fingerprint} != {replay.fingerprint}"
                )
                ok = False

    if args.emit_timeline is not None:
        import json

        from repro.obs.timeline import CHAOS_PID, TimelineRecorder, timeline_from_chaos

        events: list[dict] = []
        other: dict = {}
        for i, (proto, seed, sched) in enumerate(timeline_runs):
            rec = TimelineRecorder(
                pid=CHAOS_PID + i, process_name=f"chaos:{proto} seed={seed}"
            )
            timeline_from_chaos(sched, rec)
            events.extend(rec.events)
            other[f"{proto}:seed{seed}"] = rec.other
        doc = {"traceEvents": events, "displayTimeUnit": "ns", "otherData": other}
        with open(args.emit_timeline, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"timeline -> {args.emit_timeline} ({len(events)} events)")

    print("chaos: OK" if ok else "chaos: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
