"""Unified observability layer: spans, metrics, timeline (repro.obs).

Covers the three acceptance properties of the layer:

1. **Exact attribution** — per-span modeled totals sum to the traced
   stream's total modeled cost (no event lost, none double-counted).
2. **Near-zero disabled cost** — with no profile/registry installed the
   instrumented structures record byte-identical CostTraces and the
   guard cost is a small fraction of one traced operation.
3. **Valid timelines** — the simulator's Chrome trace-event export
   passes the schema check with one track per virtual thread and op /
   lock-wait / conflict events.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines.xindex import XIndex
from repro.core.alt_index import ALTIndex
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    active_registry,
    inc,
    metrics_registry,
    observe,
)
from repro.obs.spans import (
    NULL_SPAN,
    SpanProfile,
    current_profile,
    profiled,
    span,
    span_targets,
)
from repro.obs.taxonomy import SPAN_TAXONOMY
from repro.obs.timeline import (
    CHAOS_PID,
    TimelineRecorder,
    timeline_from_chaos,
    validate_timeline,
)
from repro.sim.cost_model import CostModel
from repro.sim.engine import SimConfig, simulate
from repro.sim.metrics import summarize_latencies
from repro.sim.trace import (
    NULL_TRACE,
    CostTrace,
    MemoryMap,
    active_tracer,
    current_tracer,
    tracer,
)


def _keys(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(2**40, size=n, replace=False).astype(np.uint64))


def _target_attrs() -> dict:
    """The raw attribute every span-table target resolves to right now."""
    return {(owner, attr): vars(owner)[attr] for _, owner, attr in span_targets()}


def _assert_originals(before: dict) -> None:
    after = _target_attrs()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, f"{key[1]} left wrapped"


def _insert_keys(keys, n):
    """Fresh keys interleaved within the loaded range (off-by-one
    neighbours), so inserts exercise the normal absorb path instead of
    an out-of-range expansion avalanche."""
    return [int(k) + 1 for k in keys[1 : n + 1]]


def _assert_spans_partition_trace(index_cls) -> SpanProfile:
    """Reads and inserts under op envelopes: the per-span modeled totals
    must sum to the whole trace's modeled cost."""
    keys = _keys()
    index = index_cls.bulk_load(keys)
    model = CostModel()
    with profiled() as prof:
        trace = CostTrace()
        with tracer(trace):
            for k in keys[::5]:
                with prof.span("op.read"):
                    index.get(int(k))
            for i, k in enumerate(_insert_keys(keys, 400)):
                with prof.span("op.insert"):
                    index.insert(k, i)
    total = prof.total_modeled_ns(model)
    expected = model.sequential_ns(trace)
    assert expected > 0
    assert total == pytest.approx(expected, rel=1e-9)
    return prof


class TestSpanAttribution:
    def test_span_totals_sum_to_trace_total(self):
        _assert_spans_partition_trace(ALTIndex)

    def test_nested_targets_sum_to_trace_total(self):
        """XIndex nests the RMI: its spans still partition the trace."""
        prof = _assert_spans_partition_trace(XIndex)
        assert {"rmi.predict", "rmi.secondary", "xindex.group_probe"} <= set(prof.totals)

    def test_all_span_names_are_registered(self):
        keys = _keys()
        index = ALTIndex.bulk_load(keys)
        with profiled() as prof:
            with tracer():
                for k in keys[::10]:
                    with prof.span("op.read"):
                        index.get(int(k))
                for i, k in enumerate(_insert_keys(keys, 200)):
                    with prof.span("op.insert"):
                        index.insert(k, i)
        assert prof.totals
        for name in prof.totals:
            assert name in SPAN_TAXONOMY, f"unregistered span {name!r}"

    def test_breakdown_shares_sum_to_one(self):
        keys = _keys(1000)
        index = ALTIndex.bulk_load(keys)
        with profiled() as prof:
            with tracer():
                for k in keys[::3]:
                    with prof.span("op.read"):
                        index.get(int(k))
        rows = prof.breakdown(CostModel())
        assert rows == sorted(rows, key=lambda r: -r["modeled_ms"])
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_a_lazily_consumed_walk_is_charged_to_its_span(self):
        """``ALTIndex.scan`` resumes the ART walk (a generator target)
        from its own merge loop: every resume is the ART's work, the
        loop between resumes is the scan's, and the spans still
        partition the trace."""
        keys = _keys()
        index = ALTIndex.bulk_load(keys[::2])
        model = CostModel()
        with profiled() as prof:
            trace = CostTrace()
            with tracer(trace):
                for k in keys[1::40]:
                    with prof.span("op.scan"):
                        index.scan(int(k), 100)
        art = prof.totals["art.descend"]
        assert art.reads > 0 and prof.totals["op.scan"].reads > 0
        assert art.count > len(keys[1::40])  # one entry per resume
        assert prof.total_modeled_ns(model) == pytest.approx(
            model.sequential_ns(trace), rel=1e-9
        )

    def test_span_ctx_unwinds_on_exception(self):
        prof = SpanProfile()
        with profiled(prof):
            with pytest.raises(RuntimeError):
                with prof.span("op.read"):
                    prof.enter("alt.model_probe")
                    prof.enter("alt.gpl_probe")
                    raise RuntimeError("crash injection")
            assert prof._stack == []
        assert prof.totals["op.read"].count == 1

    def test_nested_spans_attribute_self_time(self):
        prof = SpanProfile()
        with profiled(prof):
            t = CostTrace()
            with tracer(t):
                with prof.span("op.read"):
                    t.read_line(1)
                    with prof.span("alt.model_probe"):
                        t.read_line(2)
                        t.read_line(3)
                    t.read_line(4)
        assert prof.totals["op.read"].reads == 2
        assert prof.totals["alt.model_probe"].reads == 2


class TestDisabledPath:
    def test_current_profile_none_and_null_span(self):
        assert current_profile() is None
        assert span("op.read") is NULL_SPAN
        # the null span is shared, not allocated per call
        assert span("op.read") is span("op.insert")

    def test_disabled_traces_identical_to_undisabled(self):
        keys = _keys(1500)
        probe = [int(k) for k in keys[::4]]

        def run():
            # fresh MemoryMap per run -> identical line ids across runs
            index = ALTIndex.bulk_load(keys, memory=MemoryMap(), tag="obs")
            t = CostTrace()
            with tracer(t):
                for k in probe:
                    index.get(k)
                for i, k in enumerate(_insert_keys(keys, 150)):
                    index.insert(k, i)
            return t

        plain = run()
        with profiled():
            on = run()
        assert plain.scalars() == on.scalars()
        assert plain.reads == on.reads
        assert plain.writes == on.writes

    def test_health_and_recorder_leave_traces_byte_identical(self):
        """The overhead contract of the health/recorder tier: an active
        monitor samples under its own private tracer and the recorder
        never touches CostTrace, so the ambient operation traces are
        byte-identical with both instruments on or off."""
        from repro.obs.health import HealthMonitor, health_monitoring
        from repro.obs.recorder import FlightRecorder, flight_recorder

        keys = _keys(1500)
        probe = [int(k) for k in keys[::4]]

        def run():
            index = ALTIndex.bulk_load(keys, memory=MemoryMap(), tag="obs")
            t = CostTrace()
            with tracer(t):
                for k in probe:
                    index.get(k)
                for i, k in enumerate(_insert_keys(keys, 150)):
                    index.insert(k, i)
                index.batch_get(keys[:64])
            return t

        plain = run()

        keys2 = _keys(1500)
        index_for_monitor = ALTIndex.bulk_load(keys2)
        monitor = HealthMonitor(index_for_monitor, interval=10)
        rec = FlightRecorder(capacity=64)
        with health_monitoring(monitor), flight_recorder(rec):
            observed = run()
        assert plain.scalars() == observed.scalars()
        assert plain.reads == observed.reads
        assert plain.writes == observed.writes

    def test_sampling_the_traced_index_keeps_traces_identical(self):
        """Even when the monitor fires on the index under trace, the
        sampling walk must stay out of the ambient CostTrace."""
        from repro.obs.health import HealthMonitor, health_monitoring

        keys = _keys(1500)
        probe = [int(k) for k in keys[::4]]

        def run(monitored: bool):
            index = ALTIndex.bulk_load(keys, memory=MemoryMap(), tag="obs")
            t = CostTrace()
            monitor = HealthMonitor(index, interval=20)
            ctx = health_monitoring(monitor) if monitored else None
            if ctx is not None:
                ctx.__enter__()
            try:
                with tracer(t):
                    for k in probe:
                        index.get(k)
            finally:
                if ctx is not None:
                    ctx.__exit__(None, None, None)
            return t, monitor

        plain, _ = run(monitored=False)
        observed, monitor = run(monitored=True)
        assert monitor.samples > 0  # it really did sample mid-trace
        assert plain.scalars() == observed.scalars()
        assert plain.reads == observed.reads
        assert plain.writes == observed.writes

    def test_no_registry_means_no_health_gauge_state(self):
        from repro.obs.health import sample_health
        from repro.obs.metrics import active_registry

        index = ALTIndex.bulk_load(_keys(1200))
        assert active_registry() is None
        snap = sample_health(index)  # must not raise without a registry
        assert snap["model_count"] >= 1

    def test_batch_writes_probe_once_per_batch(self):
        """With a profile installed, one batch of n writes enters the
        whole-batch probe span once, not n times, and the disabled path
        stays identical to the enabled one in results."""
        keys = _keys(1500)
        fresh = np.array(_insert_keys(keys, 256), dtype=np.uint64)

        index = ALTIndex.bulk_load(keys, memory=MemoryMap(), tag="obs")
        off_ins = index.batch_insert(fresh, [int(k) for k in fresh])
        off_rem = index.batch_remove(fresh)

        index = ALTIndex.bulk_load(keys, memory=MemoryMap(), tag="obs")
        with profiled() as prof:
            on_ins = index.batch_insert(fresh, [int(k) for k in fresh])
            on_rem = index.batch_remove(fresh)
        assert on_ins.tolist() == off_ins.tolist()
        assert on_rem.tolist() == off_rem.tolist()
        counts = {name: st.count for name, st in prof.totals.items()}
        # one probe span per batch call, not per key
        assert counts.get("alt.batch_probe") == 2
        assert counts.get("alt.gpl_probe", 0) >= 2  # the slot writes

    def test_disabled_guard_cost_fraction_of_traced_op(self):
        # The acceptance bound: with no consumers installed, the span
        # guards must cost well under 5% of a traced operation.  The
        # structures carry no span code; the harness fetches the profile
        # once per operation for its op envelope.  Price 3
        # current_profile() calls against one traced ALT-index get.
        # Min over repeats to shed scheduler noise.
        self._assert_guard_under_bound(current_profile)

    @pytest.mark.parametrize("guard", [current_tracer, active_tracer])
    def test_disabled_tracer_guard_cost_fraction_of_traced_op(self, guard):
        # The tracer lookups take the same activation-count guard as
        # current_profile(), so they are held to the same bound.
        assert guard() in (None, NULL_TRACE)
        self._assert_guard_under_bound(guard)

    def test_profile_count_survives_thread_churn(self):
        """profiled() updates its activation count under a lock: more
        threads than cores enter and leave profiles with a short switch
        interval, and a lost update would leave the count off zero or
        hide a live profile from current_profile()."""
        from repro.obs import spans as spans_mod

        before = _target_attrs()
        errors = []

        def worker():
            for _ in range(2000):
                with profiled() as prof:
                    if current_profile() is not prof:
                        errors.append("profile hidden while live")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert spans_mod._n_active == 0
        _assert_originals(before)

    def test_profiled_restores_every_target_on_exit(self):
        before = _target_attrs()
        with profiled():
            during = _target_attrs()
            assert all(during[k] is not v for k, v in before.items())
            with profiled():  # nested: installed once, restored once
                assert _target_attrs() == during
            assert _target_attrs() == during
        _assert_originals(before)

    def test_profiled_restores_every_target_after_an_exception(self):
        before = _target_attrs()
        index = ALTIndex.bulk_load(_keys(500))
        with pytest.raises(RuntimeError):
            with profiled() as prof:
                index.get(int(index.layer.models[0].first_key))
                raise RuntimeError("crash injection")
        assert prof._stack == []
        _assert_originals(before)

    def test_shim_unwinds_when_the_target_raises(self):
        from repro.concurrency.retry import BoundedRetry, RetryBudgetExceeded

        state = BoundedRetry(max_retries=1).begin("obs.test")
        with profiled() as prof:
            with prof.span("op.read"):
                with pytest.raises(RetryBudgetExceeded):
                    state.step()
                assert prof._stack == ["op.read"]
        assert prof.totals["retry.backoff"].count == 1

    @staticmethod
    def _assert_guard_under_bound(guard) -> None:
        keys = _keys(2000)
        index = ALTIndex.bulk_load(keys)
        probe = [int(k) for k in keys[::2]]

        def time_ops() -> float:
            start = time.perf_counter_ns()
            with tracer():
                for k in probe:
                    index.get(k)
            return (time.perf_counter_ns() - start) / len(probe)

        def time_guard(n: int = 50_000) -> float:
            start = time.perf_counter_ns()
            for _ in range(n):
                guard()
            return (time.perf_counter_ns() - start) / n

        time_ops()  # warm
        op_ns = min(time_ops() for _ in range(3))
        guard_ns = min(time_guard() for _ in range(3))

        assert 3 * guard_ns < 0.05 * op_ns, (
            f"guard {guard_ns:.0f}ns x3 vs op {op_ns:.0f}ns"
        )


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("lat")
        h.observe_many([0, 1, 2, 3, 1000, 2**70])
        assert h.count == 6
        assert h.buckets[0] == 1  # the zero sample
        assert h.buckets[Histogram.NBUCKETS - 1] == 1  # clamped huge sample
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) <= h.quantile(0.99)
        with pytest.raises(ValueError):
            h.observe(-1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_empty_and_single_bucket_edges(self):
        h = Histogram("lat")
        # Empty histogram: every quantile is 0.0, mean is 0.0.
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 0.0
        assert h.mean() == 0.0
        # A single sample in bucket 0 reports bucket 0's upper edge.
        h.observe(0)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 1.0
        # All samples in one bucket: every quantile is that edge.
        h2 = Histogram("lat2")
        h2.observe_many([5, 6, 7])
        assert h2.quantile(0.0) == h2.quantile(1.0) == 8.0

    def test_histogram_overflow_bucket_handles_inf(self):
        h = Histogram("lat")
        # int(float('inf')) raises OverflowError; the overflow bucket
        # must be taken before the int() conversion.
        h.observe(float("inf"))
        h.observe(2.0**70)
        assert h.buckets[Histogram.NBUCKETS - 1] == 2
        assert h.quantile(1.0) == float(2 ** (Histogram.NBUCKETS - 1))
        # inf is clamped so mean stays finite; large finite samples keep
        # their exact contribution.
        assert h.total == float(2 ** (Histogram.NBUCKETS - 1)) + 2.0**70
        with pytest.raises(ValueError):
            h.observe(float("nan"))

    def test_histogram_as_dict_has_p999(self):
        h = Histogram("lat")
        h.observe_many([1] * 995 + [10_000] * 5)
        d = h.as_dict()
        assert d["p50"] == 2.0
        assert d["p999"] >= d["p99"] >= d["p50"]
        assert d["p999"] == 16384.0  # the tail samples' bucket edge
        assert h.quantile(1.0) == 16384.0

    def test_quantile_from_buckets_str_keys(self):
        # Snapshot bucket maps use str keys for JSON; the helper must
        # accept them (and int keys) interchangeably.
        from repro.obs.metrics import quantile_from_buckets

        assert quantile_from_buckets({"0": 1, "10": 1}, 2, 1.0) == 1024.0
        assert quantile_from_buckets({0: 1, 10: 1}, 2, 0.0) == 1.0
        assert quantile_from_buckets({}, 0, 0.5) == 0.0
        with pytest.raises(ValueError):
            quantile_from_buckets({0: 1}, 1, 2.0)

    def test_registry_snapshot_and_delta(self):
        reg = MetricsRegistry()
        reg.inc("ops", 3)
        reg.set_gauge("size", 7.0)
        reg.observe("lat", 10)
        before = reg.snapshot()
        reg.inc("ops", 2)
        reg.observe("lat", 20)
        reg.set_gauge("size", 9.0)
        d = reg.delta(before)
        assert d["counters"]["ops"] == 2
        assert d["histograms"]["lat"]["count"] == 1
        assert d["gauges"]["size"] == 9.0
        # snapshots are plain JSON-ready data
        json.dumps(reg.snapshot())

    def test_delta_percentiles_reflect_only_the_phase(self):
        reg = MetricsRegistry()
        for _ in range(100):
            reg.observe("lat", 1)  # warm phase: all fast
        before = reg.snapshot()
        for _ in range(10):
            reg.observe("lat", 5000)  # measured phase: all slow
        d = reg.delta(before)["histograms"]["lat"]
        # The delta's percentiles come from delta'd buckets, so the warm
        # phase's 100 fast samples cannot dilute the measured phase.
        assert d["count"] == 10
        assert d["p50"] == 8192.0
        assert d["p999"] == 8192.0
        assert d["mean"] == 5000.0
        assert d["buckets"] == {"13": 10}
        # Instruments absent from the earlier snapshot diff against zero.
        reg.observe("fresh", 3)
        d2 = reg.delta(before)["histograms"]["fresh"]
        assert d2["count"] == 1 and d2["p50"] == 4.0

    def test_helpers_noop_when_disabled(self):
        assert active_registry() is None
        inc("nothing")  # must not raise, must not create state
        observe("nothing", 1.0)
        with metrics_registry() as reg:
            assert active_registry() is reg
            inc("hits", 2)
            observe("lat", 5.0)
        assert active_registry() is None
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 2
        assert snap["histograms"]["lat"]["count"] == 1

    def test_alt_index_reports_metrics(self):
        keys = _keys(1200)
        with metrics_registry() as reg:
            index = ALTIndex.bulk_load(keys)
            with tracer():
                for i, k in enumerate(_insert_keys(keys, 300)):
                    index.insert(k, i)
                for k in keys[::6]:
                    index.get(int(k))
            index.stats()
        snap = reg.snapshot()
        assert snap["gauges"]["alt.model_count"] >= 1
        assert "alt.learned_fraction" in snap["gauges"]


class TestTimeline:
    def _contended_traces(self, n_ops=60):
        # Every op writes the same line: later ops conflict and stall on
        # the previous writer (coherence serialization -> lock_wait).
        traces = []
        for i in range(n_ops):
            t = CostTrace()
            t.reads.extend([100 + i, 200 + i])
            t.writes.append(7)  # shared hot line
            t.model_calcs += 3
            t.op_label = "insert" if i % 2 else "read"
            if i == 5:
                t.injected_faults += 1
            traces.append(t)
        return traces

    def test_simulate_emits_valid_timeline(self):
        rec = TimelineRecorder()
        result = simulate(
            self._contended_traces(), SimConfig(threads=4), timeline=rec
        )
        doc = rec.as_dict()
        assert validate_timeline(doc) == []
        events = doc["traceEvents"]
        names = {e["name"] for e in events}
        assert "op.read" in names and "op.insert" in names
        assert "conflict" in names
        assert "lock_wait" in names
        assert "injected_fault" in names
        # one named track per virtual thread
        workers = {
            e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert workers == {0, 1, 2, 3}
        assert result.conflicts > 0
        assert doc["otherData"]["threads"] == 4

    def test_op_slices_cover_every_operation(self):
        traces = self._contended_traces(40)
        rec = TimelineRecorder()
        simulate(traces, SimConfig(threads=4), timeline=rec)
        slices = [
            e
            for e in rec.events
            if e["ph"] == "X" and e["name"].startswith("op.")
        ]
        assert len(slices) == len(traces)
        for e in slices:
            assert e["dur"] > 0
            assert "cache_hits" in e["args"]

    def test_background_work_gets_own_track(self):
        t = CostTrace()
        t.reads.append(1)
        t.begin_background()
        t.writes.append(2)
        t.model_calcs += 10
        rec = TimelineRecorder()
        simulate([t], SimConfig(threads=2, background_threads=1), timeline=rec)
        bg = [e for e in rec.events if e.get("cat") == "background"]
        assert len(bg) == 1
        assert bg[0]["tid"] == 2  # first track after the 2 workers
        assert validate_timeline(rec.as_dict()) == []

    def test_simulate_without_timeline_unchanged(self):
        traces = self._contended_traces()
        a = simulate(traces, SimConfig(threads=4))
        b = simulate(self._contended_traces(), SimConfig(threads=4), timeline=TimelineRecorder())
        assert a.makespan_ns == b.makespan_ns
        assert a.conflicts == b.conflicts
        assert np.array_equal(a.latencies_ns, b.latencies_ns)

    def test_chaos_timeline_export(self):
        from repro.chaos.protocols import run_schedule

        report = run_schedule("gpl", 0)
        assert report.scheduler is not None
        rec = timeline_from_chaos(report.scheduler)
        doc = rec.as_dict()
        assert validate_timeline(doc) == []
        assert rec.pid == CHAOS_PID
        assert doc["otherData"]["chaos_fingerprint"] == report.fingerprint

    def test_validate_timeline_catches_problems(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "op", "pid": 1, "tid": 0, "ts": -1.0}
            ],
            "displayTimeUnit": "fortnights",
            "otherData": {},
        }
        problems = validate_timeline(bad)
        assert any("displayTimeUnit" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("dur" in p for p in problems)
        assert any("thread_name" in p for p in problems)
        assert validate_timeline([]) == ["document is not a JSON object"]


class TestSummarizeLatencies:
    def test_accepts_ndarray_without_copy_when_float64(self):
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        s = summarize_latencies(arr)
        assert s.count == 4
        assert s.mean_ns == pytest.approx(2.5)

    def test_accepts_generator_and_sequence_equally(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        from_list = summarize_latencies(values)
        from_gen = summarize_latencies(v for v in values)
        from_arr = summarize_latencies(np.array(values, dtype=np.int64))
        assert from_list == from_gen == from_arr
        assert from_list.max_ns == 50.0

    def test_empty_inputs(self):
        assert summarize_latencies([]).count == 0
        assert summarize_latencies(iter([])).count == 0
        assert summarize_latencies(np.array([])).count == 0
