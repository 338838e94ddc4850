"""Linearizability checker + seeded protocol schedules.

Acceptance (ISSUE 2): the checker passes on >=3 seeded schedules per
protocol (GPL seqlock, fast-pointer spinlock, ART OLC) and detects a
deliberately planted lost-update mutation in each.
"""

import pytest

from repro.chaos.history import HistoryRecorder, OpRecord, check_linearizable
from repro.chaos.protocols import CASE_BUILDERS, find_violating_seed, run_schedule

SEEDS = range(3)


def _op(task, op, key, result, invoked, responded, arg=None, crashed=False):
    return OpRecord(
        task=task, op=op, key=key, arg=arg, result=result,
        invoked=invoked, responded=responded, crashed=crashed,
    )


class TestChecker:
    def test_sequential_history_linearizable(self):
        ops = [
            _op("a", "put", 1, None, 1, 2, arg="x"),
            _op("a", "get", 1, "x", 3, 4),
            _op("a", "remove", 1, True, 5, 6),
            _op("a", "get", 1, None, 7, 8),
        ]
        assert check_linearizable(ops)

    def test_concurrent_overlap_allows_either_order(self):
        # get overlaps put: both None and "x" are legal results.
        for seen in (None, "x"):
            ops = [
                _op("w", "put", 1, None, 1, 4, arg="x"),
                _op("r", "get", 1, seen, 2, 3),
            ]
            assert check_linearizable(ops)

    def test_real_time_order_is_enforced(self):
        # put responded before get was invoked: get must see "x".
        ops = [
            _op("w", "put", 1, None, 1, 2, arg="x"),
            _op("r", "get", 1, None, 3, 4),
        ]
        assert not check_linearizable(ops)

    def test_lost_update_is_not_linearizable(self):
        # Two atomic increments cannot both return 1.
        ops = [
            _op("a", "add", 0, 1, 1, 3, arg=1),
            _op("b", "add", 0, 1, 2, 4, arg=1),
        ]
        assert not check_linearizable(ops)

    def test_duplicate_register_index_is_not_linearizable(self):
        ops = [
            _op("a", "register", 5, 0, 1, 3),
            _op("b", "register", 5, 1, 2, 4),
        ]
        assert not check_linearizable(ops)

    def test_crashed_write_may_or_may_not_take_effect(self):
        for seen in (None, "x"):
            ops = [
                _op("w", "put", 1, None, 1, -1, arg="x", crashed=True),
                _op("r", "get", 1, seen, 2, 3),
            ]
            assert check_linearizable(ops), f"get->{seen!r} should be legal"

    def test_crashed_write_cannot_rewind_time(self):
        # The crash was invoked after the read responded: the read can
        # never observe it.
        ops = [
            _op("r", "get", 1, "x", 1, 2),
            _op("w", "put", 1, None, 3, -1, arg="x", crashed=True),
        ]
        assert not check_linearizable(ops)

    def test_initial_state_respected(self):
        ops = [_op("r", "get", 7, "boot", 1, 2)]
        assert check_linearizable(ops, init={7: "boot"})
        assert not check_linearizable(ops)

    def test_witness_order_returned(self):
        ops = [
            _op("w", "put", 1, None, 1, 4, arg="x"),
            _op("r", "get", 1, "x", 2, 3),
        ]
        res = check_linearizable(ops)
        assert [o.op for o in res.witness] == ["put", "get"]


class TestProtocolSchedules:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("proto", sorted(CASE_BUILDERS))
    def test_clean_protocols_linearizable(self, proto, seed):
        report = run_schedule(proto, seed)
        assert report.ok, report.check.reason
        assert not report.crashed

    @pytest.mark.parametrize("proto", sorted(CASE_BUILDERS))
    def test_replay_reproduces_fingerprint(self, proto):
        a = run_schedule(proto, 11)
        b = run_schedule(proto, 11)
        assert a.fingerprint == b.fingerprint
        assert [(o.task, o.op, o.key, o.result) for o in a.ops] == [
            (o.task, o.op, o.key, o.result) for o in b.ops
        ]


class TestPlantedMutations:
    """The harness must catch its own planted lost-update bugs."""

    @pytest.mark.parametrize("proto", sorted(CASE_BUILDERS))
    def test_planted_bug_detected(self, proto):
        report = find_violating_seed(proto, range(16))
        assert report is not None, f"no seed exposed the planted {proto} bug"
        assert not report.ok
        # And the failure replays exactly from its seed.
        replay = run_schedule(proto, report.seed, planted=True)
        assert replay.fingerprint == report.fingerprint
        assert not replay.ok

    def test_planted_gpl_loses_an_update(self):
        report = find_violating_seed("gpl", range(16))
        adds = [o.result for o in report.ops if o.op == "add"]
        assert len(adds) == 4
        assert len(set(adds)) < 4  # a duplicate increment result = lost update

    def test_planted_spinlock_duplicates_an_index(self):
        report = find_violating_seed("spinlock", range(16))
        by_key: dict[int, set] = {}
        for o in report.ops:
            by_key.setdefault(o.key, set()).add(o.result)
        assert any(len(v) > 1 for v in by_key.values())

    def test_planted_art_double_claims_insert(self):
        report = find_violating_seed("art", range(16))
        claims = [o for o in report.ops if o.op == "insert" and o.key == 150]
        assert [o.result for o in claims] == [True, True]


class TestRunnersSmoke:
    def test_reports_expose_schedule_metadata(self):
        report = run_schedule("gpl", 0)
        assert report.protocol == "gpl"
        assert report.seed == 0
        assert len(report.fingerprint) == 16
        assert "LINEARIZABLE" in report.summary()

    def test_each_runner_returns_ops(self):
        assert len(run_schedule("spinlock", 0).ops) == 6
        assert len(run_schedule("art", 0).ops) == 5
