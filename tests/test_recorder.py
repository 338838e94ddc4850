"""Flight recorder and crash postmortems (repro.obs.recorder).

Covers the acceptance properties of the recorder tier:

1. **Bounded rings** — each thread keeps at most ``capacity`` recent
   events; labels merge rings deterministically.
2. **Replayable postmortems** — a seeded chaos crash produces the same
   postmortem fingerprint on every run, the committed fixture replays
   through ``python -m repro.obs.recorder`` with a verified fingerprint,
   and a tampered document is rejected.
3. **Auto-dump triggers** — retry-budget exhaustion, injected crashes,
   and failed linearizability checks each freeze a postmortem.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.chaos import protocols
from repro.concurrency.retry import BoundedRetry, RetryBudgetExceeded
from repro.obs.recorder import (
    SCHEMA,
    FlightRecorder,
    active_recorder,
    auto_dump,
    fingerprint_events,
    flight_recorder,
    load_postmortem,
    main,
    record,
    render_postmortem,
)

FIXTURE = Path(__file__).parent / "fixtures" / "postmortem-writeback-crash.json"


class TestRings:
    def test_capacity_bounds_each_ring(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("point", f"p{i}")
        threads = rec.threads()
        (events,) = threads.values()
        assert len(events) == 4
        assert [e["name"] for e in events] == ["p6", "p7", "p8", "p9"]
        assert [e["seq"] for e in events] == [7, 8, 9, 10]

    def test_detail_is_optional_and_preserved(self):
        rec = FlightRecorder()
        rec.record("retry", "site", {"attempts": 3, "slot": 7})
        rec.record("span", "op.read")
        (events,) = rec.threads().values()
        assert events[0]["detail"] == {"attempts": 3, "slot": 7}
        assert "detail" not in events[1]

    def test_name_thread_labels_ring(self):
        rec = FlightRecorder()
        rec.name_thread("writer")
        rec.record("point", "a")
        assert list(rec.threads()) == ["writer"]

    def test_threads_merge_rings_sharing_a_label(self):
        rec = FlightRecorder()

        def worker():
            rec.name_thread("pool")
            rec.record("point", "from-thread")

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        rec.name_thread("pool")
        rec.record("point", "from-main")
        events = rec.threads()["pool"]
        assert [e["name"] for e in events] == ["from-thread", "from-main"]
        assert events[0]["seq"] < events[1]["seq"]


class TestAmbientHooks:
    def test_module_helpers_noop_when_disabled(self):
        assert active_recorder() is None
        record("point", "nothing")  # must not raise, must not create state
        assert auto_dump("nothing") is None

    def test_flight_recorder_installs_and_restores(self):
        rec = FlightRecorder()
        with flight_recorder(rec) as r:
            assert r is rec
            assert active_recorder() is rec
            record("point", "inside")
        assert active_recorder() is None
        (events,) = rec.threads().values()
        assert events[0]["name"] == "inside"

    def test_span_enter_records_when_active(self):
        from repro.obs.spans import profiled

        rec = FlightRecorder()
        with flight_recorder(rec), profiled() as prof:
            with prof.span("op.read"):
                pass
        (events,) = rec.threads().values()
        assert ("span", "op.read") in [(e["kind"], e["name"]) for e in events]


class TestPostmortems:
    def test_snapshot_fingerprint_matches_events(self):
        rec = FlightRecorder()
        rec.record("point", "a")
        rec.record("error", "boom", {"site": "x"})
        doc = rec.snapshot("test_failure", {"seed": 7})
        assert doc["schema"] == SCHEMA
        assert doc["reason"] == "test_failure"
        assert doc["context"] == {"seed": 7}
        assert doc["fingerprint"] == fingerprint_events(doc["threads"])
        assert json.loads(json.dumps(doc)) == doc  # JSON-clean

    def test_auto_dump_writes_to_dump_dir(self, tmp_path):
        rec = FlightRecorder(dump_dir=tmp_path)
        rec.record("point", "a")
        doc = rec.auto_dump("stuck_writer", {"slot": 3})
        assert rec.postmortems == [doc]
        path = Path(doc["path"])
        assert path.parent == tmp_path
        assert load_postmortem(path)["reason"] == "stuck_writer"

    def test_render_lists_threads_and_context(self):
        rec = FlightRecorder()
        rec.name_thread("writer")
        rec.record("retry", "gpl.read", {"attempts": 2, "slot": 5})
        text = render_postmortem(rec.snapshot("stuck_writer", {"slot": 5}))
        assert "postmortem: stuck_writer" in text
        assert "-- writer (1 events)" in text
        assert "retry" in text and "slot=5" in text

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError, match="unknown postmortem schema"):
            load_postmortem(path)


def first_writeback_crash() -> tuple[protocols.ScheduleReport, dict]:
    """The first seeded write-back schedule that dies at its armed
    ``alt.writeback`` crash, with the postmortem it froze.

    Scans seeds the way :func:`repro.chaos.protocols.find_violating_seed`
    does, so a change that reshuffles the schedules (a new chaos point on
    the ``get`` path) moves the seed without editing this file.  If the
    run it lands on no longer matches the fixture, regenerate the fixture
    from it: ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``.
    """
    for seed in range(64):
        rec = FlightRecorder(capacity=256)
        with flight_recorder(rec):
            report = protocols.run_schedule(
                "writeback", seed, crash_point="alt.writeback"
            )
        if report.crashed:
            (doc,) = [d for d in rec.postmortems if d["reason"] == "injected_crash"]
            return report, doc
    raise AssertionError("no seed in 0..63 reaches alt.writeback")


class TestCrashPostmortemFixture:
    """The committed fixture is a real crash-injected chaos run."""

    def test_fixture_replays_with_verified_fingerprint(self, capsys):
        assert main([str(FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "postmortem: injected_crash" in out
        assert "fingerprint verified" in out

    def test_tampered_fixture_fails_replay(self, tmp_path, capsys):
        doc = load_postmortem(FIXTURE)
        doc["threads"]["getter-a"][0]["name"] = "edited"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == 1
        assert "FINGERPRINT MISMATCH" in capsys.readouterr().out

    def test_rerunning_the_schedule_reproduces_the_fixture(self):
        report, doc = first_writeback_crash()
        fixture = load_postmortem(FIXTURE)
        assert report.crashed == [fixture["context"]["task"]]
        assert doc["context"] == fixture["context"]
        assert doc["fingerprint"] == fixture["fingerprint"]
        assert doc["threads"] == fixture["threads"]


class TestAutoDumpTriggers:
    def test_retry_budget_exhaustion_dumps(self):
        rec = FlightRecorder()
        state = BoundedRetry(max_retries=3).begin("gpl.read")
        with flight_recorder(rec):
            with pytest.raises(RetryBudgetExceeded):
                while True:
                    state.step(slot=9)
        assert [d["reason"] for d in rec.postmortems] == ["retry_budget_exceeded"]
        context = rec.postmortems[0]["context"]
        assert context["site"] == "gpl.read"
        assert context["slot"] == 9

    def test_injected_crash_dumps_with_schedule_context(self):
        report, doc = first_writeback_crash()
        assert doc["context"]["point"] == "alt.writeback"
        assert doc["context"]["seed"] == report.seed
        assert doc["context"]["schedule"] == f"seed:{report.seed}"
        assert doc["context"]["task"] in ("getter-a", "getter-b", "churn")

    def test_linearizability_violation_dumps(self):
        rec = FlightRecorder()
        with flight_recorder(rec):
            report = protocols.run_schedule("epoch", 2, planted=True)
        assert not report.ok
        (doc,) = [
            d for d in rec.postmortems if d["reason"] == "linearizability_violation"
        ]
        assert doc["context"]["protocol"] == "epoch"
        assert doc["context"]["schedule_fingerprint"] == report.fingerprint

    def test_clean_run_dumps_nothing(self):
        rec = FlightRecorder()
        with flight_recorder(rec):
            report = protocols.run_schedule("writeback", 0)
        assert report.ok
        assert rec.postmortems == []
