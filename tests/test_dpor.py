"""DPOR explorer: exhaustive enumeration, sleep-set soundness, budgets.

The three acceptance properties of :mod:`repro.chaos.dpor`:

1. **Seedless detection** — the planted gpl lost-update mutant is found
   deterministically by enumeration, with no seed scan.
2. **Sound pruning** — on toy protocols whose footprints are known
   exactly, sleep-set pruning skips schedules but never drops a terminal
   outcome: the outcome set equals plain brute force
   (``never_independent``).
3. **Budgets** — ``max_schedules`` is a hard cap and the report says
   whether the tree was exhausted.

Plus the scheduler-level primitives the explorer is built on: prescribed
schedules, the decision callback, and per-step choice recording.
"""

import pytest

from repro import chaos
from repro.chaos import ChaosScheduler
from repro.chaos.dpor import (
    explore,
    explore_protocol,
    never_independent,
    schedule_fingerprint,
    span_independent,
)
from repro.chaos.history import CheckResult, HistoryRecorder
from repro.chaos.protocols import EXHAUSTIVE_CASES, ProtocolCase
from repro.chaos.scheduler import TASK_EXIT, PrescribedScheduleError
from repro.obs.recorder import FlightRecorder, flight_recorder

# ----------------------------------------------------------------------
# Toy protocols with *exactly known* footprints (point name encodes the
# variable the surrounding segments touch), so the independence oracle
# is ground truth rather than a heuristic.
# ----------------------------------------------------------------------


def _toy_var(point):
    if point is None or point == TASK_EXIT:
        return None
    return point.split(".")[2]  # "planted.toy.<var>.<n>"


def toy_footprint(resume, arrival):
    sites = {v for v in (_toy_var(resume), _toy_var(arrival)) if v is not None}
    return frozenset(sites or {"*"})


def toy_independent(a, b):
    if "*" in a or "*" in b:
        return False
    return a.isdisjoint(b)


def build_independent_toy() -> ProtocolCase:
    """Two tasks, three points each, touching disjoint variables."""
    state = {"x": 0, "y": 0}

    def bump(var: str) -> None:
        for i in range(3):
            chaos.point(f"planted.toy.{var}.{i}")
            state[var] += 1

    return ProtocolCase(
        protocol="toy",
        planted=False,
        tasks=[("wx", lambda: bump("x")), ("wy", lambda: bump("y"))],
        rec=HistoryRecorder(),
        check=lambda: CheckResult(True, "toy has no oracle"),
        snapshot=lambda: (state["x"], state["y"]),
    )


def build_dependent_toy() -> ProtocolCase:
    """Two racing read-modify-writes over one shared variable.

    The interleaving point sits inside the RMW window, so the terminal
    value is schedule-dependent: 2 when the increments serialize, 1 when
    they overlap (the classic lost update).  Enumeration must surface
    both outcomes.
    """
    state = {"s": 0}

    def rmw(task: str) -> None:
        chaos.point(f"planted.toy.s.{task}1")
        tmp = state["s"]
        chaos.point(f"planted.toy.s.{task}2")
        state["s"] = tmp + 1

    return ProtocolCase(
        protocol="toy",
        planted=True,
        tasks=[("a", lambda: rmw("a")), ("b", lambda: rmw("b"))],
        rec=HistoryRecorder(),
        check=lambda: CheckResult(True, "toy has no oracle"),
        snapshot=lambda: state["s"],
    )


class TestExhaustiveDetection:
    def test_planted_gpl_found_without_any_seed(self):
        report = explore_protocol("gpl", planted=True)
        assert report.violations, "planted lost update not detected"
        v = report.violations[0]
        assert v.protocol == "gpl" and v.planted
        assert "not linearizable" in v.check.reason or v.check.reason
        # Prefer-switch DFS walks straight into the race: no seed scan,
        # and only a handful of executions before the first violation.
        assert report.stats.executions <= 5

    def test_detection_is_deterministic(self):
        first = explore_protocol("gpl", planted=True)
        second = explore_protocol("gpl", planted=True)
        assert first.violations[0].schedule == second.violations[0].schedule
        assert first.violations[0].fingerprint == second.violations[0].fingerprint

    def test_clean_gpl_tree_enumerated_completely(self):
        report = explore_protocol("gpl", max_schedules=2000)
        assert report.complete and not report.budget_exhausted
        assert report.ok, [v.summary() for v in report.violations]
        assert 0 < report.stats.executions < 2000
        assert report.stats.terminals > 0

    def test_violation_postmortem_carries_schedule_id(self):
        rec = FlightRecorder()
        with flight_recorder(rec):
            explore_protocol("gpl", planted=True)
        docs = [
            d for d in rec.postmortems
            if d["reason"] == "linearizability_violation"
        ]
        assert docs
        assert docs[0]["context"]["schedule"].startswith("schedule:")


class TestSleepSetSoundness:
    def test_pruning_fires_on_independent_toy_and_preserves_outcomes(self):
        pruned = explore(
            build_independent_toy,
            footprint=toy_footprint,
            independence=toy_independent,
            collect_outcomes=True,
        )
        brute = explore(
            build_independent_toy,
            footprint=toy_footprint,
            independence=never_independent,
            collect_outcomes=True,
        )
        assert pruned.complete and brute.complete
        assert pruned.stats.pruned > 0
        assert pruned.stats.executions < brute.stats.executions
        assert pruned.outcomes == brute.outcomes  # no maximal schedule lost

    def test_dependent_toy_is_never_pruned_and_race_is_enumerated(self):
        pruned = explore(
            build_dependent_toy,
            footprint=toy_footprint,
            independence=toy_independent,
            collect_outcomes=True,
        )
        brute = explore(
            build_dependent_toy,
            footprint=toy_footprint,
            independence=never_independent,
            collect_outcomes=True,
        )
        # Every transition touches "s": nothing commutes, nothing pruned.
        assert pruned.stats.pruned == 0
        assert pruned.outcomes == brute.outcomes == {1, 2}

    def test_span_heuristic_matches_brute_force_on_gpl_clean(self):
        clean, _ = EXHAUSTIVE_CASES["gpl"]
        pruned = explore(
            clean, protocol="gpl", independence=span_independent,
            collect_outcomes=True,
        )
        brute = explore(
            clean, protocol="gpl", independence=never_independent,
            max_schedules=5000, collect_outcomes=True,
        )
        assert pruned.complete and brute.complete
        assert pruned.outcomes == brute.outcomes
        assert pruned.ok and brute.ok


class TestBudget:
    def test_max_schedules_is_a_hard_cap(self):
        report = explore_protocol("writeback", max_schedules=7)
        assert report.budget_exhausted
        assert not report.complete
        assert report.stats.executions == 7


def _two_point_tasks():
    trace: list[str] = []

    def mk(name: str):
        def fn():
            chaos.point(f"planted.toy.{name}.1")
            trace.append(name + "1")
            chaos.point(f"planted.toy.{name}.2")
            trace.append(name + "2")

        return fn

    return trace, [("a", mk("a")), ("b", mk("b"))]


class TestPrescribedSchedules:
    def test_schedule_replays_and_records_choices(self):
        trace, tasks = _two_point_tasks()
        prescription = ["a", "a", "b", "a", "b", "b"]
        sched = ChaosScheduler(schedule=prescription)
        for name, fn in tasks:
            sched.spawn(name, fn)
        sched.run()
        assert trace == ["a1", "a2", "b1", "b2"]
        assert [c.chosen for c in sched.choices] == prescription
        assert sched.choices[0].live == ("a", "b")
        assert sched.choices[0].arrival == "planted.toy.a.1"
        assert sched.choices[3].arrival == TASK_EXIT  # "a" finished there
        assert sched.schedule_id().startswith("schedule:")

    def test_schedule_naming_dead_task_raises(self):
        _, tasks = _two_point_tasks()
        sched = ChaosScheduler(schedule=["nobody"])
        for name, fn in tasks:
            sched.spawn(name, fn)
        with pytest.raises(PrescribedScheduleError):
            sched.run()

    def test_decide_callback_sees_live_and_parked(self):
        _, tasks = _two_point_tasks()
        seen: list[tuple[int, tuple, dict]] = []

        def decide(step, live, parked):
            seen.append((step, live, parked))
            return live[0]

        sched = ChaosScheduler(decide=decide)
        for name, fn in tasks:
            sched.spawn(name, fn)
        sched.run()
        assert seen[0] == (0, ("a", "b"), {})
        # After step 0 ran "a" to its first point, "a" is parked there.
        assert seen[1][2]["a"] == "planted.toy.a.1"

    def test_schedule_and_decide_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ChaosScheduler(schedule=["a"], decide=lambda s, l, p: l[0])

    def test_schedule_fingerprint_is_stable_and_order_sensitive(self):
        assert schedule_fingerprint(["a", "b"]) == schedule_fingerprint(["a", "b"])
        assert schedule_fingerprint(["a", "b"]) != schedule_fingerprint(["b", "a"])
