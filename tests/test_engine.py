"""Tests for the discrete-event concurrency simulator."""

import numpy as np
import pytest

from repro.sim.cost_model import CostModel
from repro.sim.engine import SimConfig, simulate
from repro.sim.trace import CostTrace


def op(reads=(), writes=(), **scalars):
    return CostTrace(reads=list(reads), writes=list(writes), **scalars)


class TestBasics:
    def test_empty_run(self):
        r = simulate([], SimConfig(threads=4))
        assert r.total_ops == 0
        assert r.throughput_mops == 0.0

    def test_single_op_latency(self):
        m = CostModel()
        r = simulate([op(reads=[1])], SimConfig(threads=1))
        assert r.latencies_ns[0] == pytest.approx(m.cache_miss_ns)
        assert r.cache_misses == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimConfig(threads=0)
        with pytest.raises(ValueError):
            SimConfig(background_threads=-1)

    def test_deterministic(self):
        ops = [op(reads=[i % 7], writes=[i % 3 + 100]) for i in range(500)]
        a = simulate(ops, SimConfig(threads=8))
        b = simulate(ops, SimConfig(threads=8))
        assert a.makespan_ns == b.makespan_ns
        assert np.array_equal(a.latencies_ns, b.latencies_ns)
        assert a.conflicts == b.conflicts


class TestCaching:
    def test_repeat_access_hits(self):
        ops = [op(reads=[42]) for _ in range(10)]
        r = simulate(ops, SimConfig(threads=1))
        assert r.cache_misses == 1
        assert r.cache_hits == 9

    def test_lru_eviction(self):
        cm = CostModel(cache_lines_per_thread=4)
        cfg = SimConfig(threads=1, cost_model=cm)
        # Touch 8 distinct lines then the first again: evicted -> miss.
        ops = [op(reads=[i]) for i in range(8)] + [op(reads=[0])]
        r = simulate(ops, cfg)
        assert r.cache_misses == 9

    def test_per_thread_caches_are_private(self):
        # Two threads read the same line: each pays its own cold miss.
        ops = [op(reads=[7]), op(reads=[7])]
        r = simulate(ops, SimConfig(threads=2))
        assert r.cache_misses == 2


class TestCoherence:
    def test_writer_invalidates_reader(self):
        # Thread 0 reads line 5 (miss) then thread 1 writes it; thread 0's
        # next read pays an invalidation miss.
        ops = [
            op(reads=[5]),       # t0: cold miss
            op(writes=[5]),      # t1: writes the line
            op(reads=[5]),       # t0: invalidated
            op(reads=[99]),      # t1: filler
        ]
        r = simulate(ops, SimConfig(threads=2))
        assert r.invalidation_misses >= 1

    def test_self_writes_do_not_invalidate(self):
        ops = [op(writes=[5]), op(reads=[5]), op(reads=[5])]
        r = simulate(ops, SimConfig(threads=1))
        assert r.invalidation_misses == 0
        assert r.cache_hits == 2

    def test_write_write_conflicts_detected(self):
        # Many threads hammering one line produce optimistic conflicts.
        ops = [op(writes=[1], reads=[1]) for _ in range(200)]
        r = simulate(ops, SimConfig(threads=16))
        assert r.conflicts > 50

    def test_disjoint_writes_no_conflicts(self):
        ops = [op(writes=[i]) for i in range(200)]
        r = simulate(ops, SimConfig(threads=16))
        assert r.conflicts == 0

    def test_contended_line_serializes(self):
        """A hot shared line caps scalability (the LIPP+ effect)."""
        ops_shared = [op(writes=[1], atomic_rmw=1) for _ in range(512)]
        ops_private = [op(writes=[1000 + i % 16], atomic_rmw=1) for i in range(512)]
        shared = simulate(ops_shared, SimConfig(threads=16))
        private = simulate(ops_private, SimConfig(threads=16))
        assert private.throughput_mops > 2 * shared.throughput_mops


class TestScalability:
    def test_more_threads_more_throughput_when_independent(self):
        def mk():
            return [op(reads=[i % 1000], model_calcs=1) for i in range(2000)]

        t1 = simulate(mk(), SimConfig(threads=1))
        t8 = simulate(mk(), SimConfig(threads=8))
        assert t8.throughput_mops > 4 * t1.throughput_mops

    def test_latency_independent_of_threads_without_sharing(self):
        ops = [op(reads=[i]) for i in range(64)]
        t1 = simulate(ops, SimConfig(threads=1))
        t8 = simulate(ops, SimConfig(threads=8))
        assert t1.avg_latency_ns == pytest.approx(t8.avg_latency_ns)


class TestWarmup:
    def test_warmup_excluded_from_metrics(self):
        ops = [op(reads=[5]) for _ in range(10)]
        r = simulate(ops, SimConfig(threads=1), warmup=1)
        assert r.total_ops == 9
        assert len(r.latencies_ns) == 9
        # The cold miss happened during warmup; all measured ops hit.
        assert r.cache_misses == 0
        assert r.cache_hits == 9

    def test_warmup_larger_than_ops(self):
        ops = [op(reads=[1]) for _ in range(3)]
        r = simulate(ops, SimConfig(threads=1), warmup=5)
        assert r.total_ops == 0


class TestBackground:
    def test_background_work_not_in_op_latency(self):
        heavy = op(reads=[1])
        heavy.begin_background()
        for i in range(1000):
            heavy.read_line(i + 10)
        light = op(reads=[1])
        r_heavy = simulate([heavy], SimConfig(threads=1))
        r_light = simulate([light], SimConfig(threads=1))
        assert r_heavy.latencies_ns[0] == pytest.approx(r_light.latencies_ns[0])
        assert r_heavy.background_ns > 0

    def test_background_extends_makespan_when_bottleneck(self):
        heavy = op(reads=[1])
        heavy.begin_background()
        for i in range(10_000):
            heavy.read_line(i)
        r = simulate([heavy], SimConfig(threads=1, background_threads=1))
        assert r.makespan_ns >= r.background_ns


class TestBandwidth:
    def test_saturation_inflates_makespan(self):
        cm = CostModel(dram_bandwidth_bytes_per_s=1e6, cache_lines_per_thread=8)
        ops = [op(reads=[i, i + 1, i + 2]) for i in range(0, 3000, 3)]
        r = simulate(ops, SimConfig(threads=8, cost_model=cm))
        assert r.bandwidth_factor > 1.0

    def test_no_saturation_by_default(self):
        ops = [op(reads=[i]) for i in range(100)]
        r = simulate(ops, SimConfig(threads=4))
        assert r.bandwidth_factor == 1.0


class TestResultApi:
    def test_percentiles_and_hit_rate(self):
        ops = [op(reads=[i % 3]) for i in range(100)]
        r = simulate(ops, SimConfig(threads=2))
        assert r.percentile_ns(50) <= r.percentile_ns(99.9)
        assert 0.0 <= r.hit_rate <= 1.0

    def test_throughput_definition(self):
        ops = [op(model_calcs=10) for _ in range(100)]
        r = simulate(ops, SimConfig(threads=4))
        assert r.throughput_mops == pytest.approx(
            r.total_ops / r.makespan_ns * 1e3
        )
