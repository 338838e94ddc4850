"""ChaosScheduler: determinism, preemption, crash injection."""

import pytest

from repro import chaos
from repro.chaos import ChaosScheduler, InjectedCrash
from repro.concurrency.version_lock import SlotVersionArray
from repro.core.learned_layer import GPLModel
from repro.sim.trace import MemoryMap


def _model(n_slots: int = 4) -> GPLModel:
    return GPLModel(
        first_key=0, slope_eff=1.0, n_slots=n_slots,
        memory=MemoryMap(), tag="test/chaos",
    )


def _writer_workload(sched: ChaosScheduler, model: GPLModel) -> None:
    sched.spawn("w1", lambda: [model.write_slot(0, 0, i) for i in range(3)])
    sched.spawn("w2", lambda: [model.write_slot(1, 1, i) for i in range(3)])
    sched.spawn("r", lambda: [model.read_slot(0) for _ in range(3)])


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        logs = []
        for _ in range(2):
            model = _model()
            sched = ChaosScheduler(seed=1234)
            _writer_workload(sched, model)
            sched.run()
            logs.append((list(sched.log), sched.fingerprint()))
        assert logs[0][0] == logs[1][0]  # identical firing sequence
        assert logs[0][1] == logs[1][1]  # identical fingerprint

    def test_different_seeds_explore_different_schedules(self):
        prints = set()
        for seed in range(6):
            model = _model()
            sched = ChaosScheduler(seed=seed)
            _writer_workload(sched, model)
            sched.run()
            prints.add(sched.fingerprint())
        assert len(prints) > 1

    def test_log_records_task_and_point_names(self):
        model = _model()
        sched = ChaosScheduler(seed=0)
        sched.spawn("w", lambda: model.write_slot(0, 0, 42))
        sched.run()
        points = [p for _, task, p in sched.log if task == "w"]
        assert "gpl.slot_cas" in points
        assert "slot.write_latched" in points
        assert "slot.write_publish" in points


class TestCrashInjection:
    def test_crash_at_point_kills_task_mid_protocol(self):
        model = _model()
        sched = ChaosScheduler(seed=7)
        sched.spawn("victim", lambda: model.write_slot(0, 0, 1))
        sched.spawn("bystander", lambda: model.write_slot(1, 1, 2))
        sched.crash_at("slot.write_latched", task="victim")
        sched.run()  # crash is absorbed; bystander completes
        assert sched.crashed_tasks() == ["victim"]
        # The victim died holding the latch: slot 0 version stays odd.
        assert model.versions.odd_slots() == [0]
        # The bystander's write published normally.
        assert model.read_slot(1)[2] == 2

    def test_crash_hit_count_selects_arrival(self):
        model = _model()
        sched = ChaosScheduler(seed=0)
        sched.spawn("w", lambda: [model.write_slot(0, 0, i) for i in range(3)])
        sched.crash_at("slot.write_publish", task="w", hit=2)
        sched.run()
        assert sched.crashed_tasks() == ["w"]
        # First write completed (v=0 published), second died pre-publish.
        assert model.versions.odd_slots() == [0]

    def test_injected_faults_counted_in_trace(self):
        from repro.sim.trace import CostTrace, tracer

        model = _model()
        t = CostTrace()

        def victim():
            with tracer(t):  # tracers are thread-local: install on the task
                model.write_slot(0, 0, 1)

        sched = ChaosScheduler(seed=0)
        sched.spawn("victim", victim)
        sched.crash_at("slot.write_latched")
        sched.run()
        assert t.injected_faults == 1
        assert t.atomic_rmw == 1

    def test_injected_crash_carries_context(self):
        exc = InjectedCrash("slot.write_latched", "w")
        assert exc.point == "slot.write_latched"
        assert exc.task == "w"

    def test_real_errors_propagate_from_run(self):
        sched = ChaosScheduler(seed=0)
        sched.spawn("boom", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sched.run()

    def test_multiple_task_errors_aggregate_into_group(self):
        # One failing task re-raises bare (above); several must surface
        # *together* — previously only the first spawned task's error
        # escaped run() and the rest were silently dropped.
        sched = ChaosScheduler(seed=0)
        sched.spawn("boom-a", lambda: 1 / 0)
        sched.spawn("boom-b", lambda: [][1])
        with pytest.raises(ExceptionGroup) as ei:
            sched.run()
        assert {type(e) for e in ei.value.exceptions} == {
            ZeroDivisionError,
            IndexError,
        }

    def test_any_task_crash_rule_counts_arrivals_globally(self):
        # crash_at(point, hit=2) with no task pinned must fire on the
        # second arrival at the point *overall* — here w2's first visit —
        # not wait for some single task to visit twice.
        order = []

        def worker(name):
            chaos.point("planted.chaos.hit")
            order.append(name)

        sched = ChaosScheduler(schedule=["w1", "w2", "w1"])
        sched.spawn("w1", lambda: worker("w1"))
        sched.spawn("w2", lambda: worker("w2"))
        sched.crash_at("planted.chaos.hit", hit=2)
        sched.run()
        assert sched.crashed_tasks() == ["w2"]
        assert order == ["w1"]


class TestPointPlumbing:
    def test_point_is_noop_without_scheduler(self):
        assert not chaos.is_active()
        chaos.point("anything")  # must not raise

    def test_foreign_threads_pass_through_points(self):
        # The main (pytest) thread is not a chaos task; even while a
        # scheduler is installed its points must not block.
        arr = SlotVersionArray(2)
        sched = ChaosScheduler(seed=0)
        sched.spawn("w", lambda: (arr.write_begin(0), arr.write_end(0)))
        sched.run()
        arr.write_begin(1)  # outside any schedule
        arr.write_end(1)

    def test_scheduler_not_reusable(self):
        sched = ChaosScheduler(seed=0)
        sched.spawn("w", lambda: None)
        sched.run()
        with pytest.raises(RuntimeError):
            sched.run()

    def test_results_and_return_values(self):
        sched = ChaosScheduler(seed=0)
        sched.spawn("a", lambda: 41 + 1)
        sched.run()
        assert sched.results() == {"a": 42}


class TestRetrainSchedule:
    """Seeded schedules over the §III-F expansion handoff."""

    def test_clean_handoff_linearizable_across_seeds(self):
        from repro.chaos import protocols

        for seed in range(6):
            report = protocols.run_schedule("retrain", seed)
            assert report.ok, f"seed={seed}: {report.check.reason}"

    def test_planted_swap_before_migrate_detected_and_replayable(self):
        from repro.chaos import protocols

        report = protocols.find_violating_seed("retrain", range(64))
        assert report is not None, "planted handoff hole never hit"
        replay = protocols.run_schedule("retrain", report.seed, planted=True)
        assert not replay.ok
        assert replay.fingerprint == report.fingerprint
