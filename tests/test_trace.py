"""Tests for modeled memory and cost tracing (repro.sim.trace)."""

import sys
import threading

import numpy as np
import pytest

from repro.sim import trace as trace_mod
from repro.sim.trace import (
    CACHE_LINE_BYTES,
    CostTrace,
    MemoryMap,
    NULL_TRACE,
    active_tracer,
    current_tracer,
    tracer,
)


class TestLineSpan:
    def test_line_ids_are_contiguous(self):
        mem = MemoryMap()
        span = mem.alloc(256, "t")
        assert span.nlines == 4
        assert list(span.lines()) == [span.base + i for i in range(4)]

    def test_line_maps_byte_offsets(self):
        mem = MemoryMap()
        span = mem.alloc(256, "t")
        assert span.line(0) == span.base
        assert span.line(63) == span.base
        assert span.line(64) == span.base + 1
        assert span.line(255) == span.base + 3

    def test_minimum_one_line(self):
        mem = MemoryMap()
        assert mem.alloc(1, "t").nlines == 1
        assert mem.alloc(0, "t").nlines == 1

    def test_spans_do_not_overlap(self):
        mem = MemoryMap()
        spans = [mem.alloc(100, "t") for _ in range(50)]
        all_lines = [line for s in spans for line in s.lines()]
        assert len(all_lines) == len(set(all_lines))

    def test_free_is_idempotent(self):
        mem = MemoryMap()
        span = mem.alloc(128, "t")
        span.free()
        span.free()
        assert mem.live_bytes("t") == 0


class TestMemoryMap:
    def test_live_bytes_by_tag(self):
        mem = MemoryMap()
        mem.alloc(100, "a")
        mem.alloc(200, "a")
        b = mem.alloc(300, "b")
        assert mem.live_bytes("a") == 300
        assert mem.live_bytes("b") == 300
        assert mem.live_bytes() == 600
        b.free()
        assert mem.live_bytes("b") == 0
        assert mem.live_bytes_by_tag() == {"a": 300}

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap().alloc(-1, "t")

    def test_total_allocations_counter(self):
        mem = MemoryMap()
        for _ in range(5):
            mem.alloc(10, "t")
        assert mem.total_allocations == 5

    def test_thread_safe_allocation(self):
        mem = MemoryMap()
        spans = []
        lock = threading.Lock()

        def worker():
            local = [mem.alloc(64, "t") for _ in range(200)]
            with lock:
                spans.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        bases = [s.base for s in spans]
        assert len(bases) == len(set(bases))
        assert mem.live_bytes("t") == 64 * 1600


class TestCostTrace:
    def test_scalar_counters_roundtrip(self):
        t = CostTrace()
        t.model_calcs += 3
        t.comparisons += 2
        t.retries += 1
        scalars = t.scalars()
        assert scalars["model_calcs"] == 3
        assert scalars["comparisons"] == 2
        assert scalars["retries"] == 1

    def test_read_write_recording(self):
        mem = MemoryMap()
        span = mem.alloc(128, "t")
        t = CostTrace()
        t.read_line(span.line(0))
        t.write_line(span.line(64))
        t.read_line(999)
        assert t.reads == [span.line(0), 999]
        assert t.writes == [span.line(64)]

    def test_background_split_views(self):
        t = CostTrace()
        t.read_line(1)
        t.model_calcs += 1
        t.begin_background()
        t.read_line(2)
        t.write_line(3)
        t.model_calcs += 4
        fg = t.foreground_view()
        bg = t.background_view()
        assert fg.reads == [1] and fg.writes == []
        assert fg.model_calcs == 1
        assert bg.reads == [2] and bg.writes == [3]
        assert bg.model_calcs == 4

    def test_no_background_views(self):
        t = CostTrace()
        t.read_line(1)
        assert t.foreground_view() is t
        assert t.background_view() is None

    def test_begin_background_idempotent(self):
        t = CostTrace()
        t.read_line(1)
        t.begin_background()
        first = t.background_split
        t.read_line(2)
        t.begin_background()
        assert t.background_split == first


class TestAmbientTracer:
    def test_inactive_by_default(self):
        assert current_tracer() is None
        assert active_tracer() is NULL_TRACE

    def test_context_activates_and_restores(self):
        with tracer() as t:
            assert current_tracer() is t
            assert active_tracer() is t
        assert current_tracer() is None

    def test_nesting_shadows(self):
        with tracer() as outer:
            with tracer() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_thread_local(self):
        seen = {}

        def worker():
            seen["inner"] = current_tracer()

        with tracer():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["inner"] is None

    def test_untraced_thread_sees_none_while_another_traces(self):
        """The activation count is process-wide, but the trace is not:
        while thread A holds a tracer, thread B's untraced ops must find
        none, record nothing into A's trace, and B's own tracer must
        still record once A has exited."""
        from repro.core.alt_index import ALTIndex

        keys = np.arange(0, 40_000, 40, dtype=np.uint64)
        index = ALTIndex.bulk_load(keys, memory=MemoryMap())
        held, release = threading.Event(), threading.Event()
        traces = {}

        def a():
            with tracer() as t:
                traces["a"] = t
                held.set()
                release.wait(10)

        def b():
            seen = []
            for k in keys[:50].tolist():
                seen.append((current_tracer(), active_tracer()))
                index.get(k)
                index.insert(k + 1, k)
            traces["b_seen"] = seen

        ta = threading.Thread(target=a)
        ta.start()
        assert held.wait(10)
        tb = threading.Thread(target=b)
        tb.start()
        tb.join(10)
        assert not tb.is_alive()
        release.set()
        ta.join(10)
        assert not ta.is_alive()
        assert all(c is None and n is NULL_TRACE for c, n in traces["b_seen"])
        assert traces["a"].reads == [] and traces["a"].writes == []
        assert traces["a"].scalars() == CostTrace().scalars()
        assert trace_mod._n_active == 0

        def b_traced():
            with tracer() as t:
                index.get(int(keys[7]))
            traces["b"] = t

        tb = threading.Thread(target=b_traced)
        tb.start()
        tb.join(10)
        assert not tb.is_alive()
        assert traces["b"].model_calcs >= 1 and traces["b"].reads

    def test_activation_count_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with tracer():
                with tracer():
                    assert trace_mod._n_active == 2
                    raise RuntimeError("boom")
        assert trace_mod._n_active == 0
        assert current_tracer() is None
        assert active_tracer() is NULL_TRACE

    def test_activation_count_survives_thread_churn(self):
        """More threads than cores enter and leave tracers with a short
        switch interval; a lost count update would leave the count off
        zero, or at zero inside a live activation (untracing it)."""
        errors = []

        def worker():
            for _ in range(2000):
                with tracer() as t:
                    if current_tracer() is not t:
                        errors.append("untraced inside a live tracer")

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
        assert trace_mod._n_active == 0

    def test_null_trace_accepts_events(self):
        NULL_TRACE.read_line(1)
        NULL_TRACE.write_line(2)
        NULL_TRACE.begin_background()  # all no-ops, no state

    def test_explicit_trace_object(self):
        mine = CostTrace()
        with tracer(mine) as t:
            assert t is mine
