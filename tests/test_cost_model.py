"""Tests for the event-to-nanoseconds cost model."""

import pytest

from repro.sim.cost_model import CostModel
from repro.sim.trace import CACHE_LINE_BYTES, CostTrace


class TestComputeNs:
    def test_empty_trace_is_free(self):
        assert CostModel().compute_ns(CostTrace()) == 0.0

    def test_each_event_priced(self):
        m = CostModel()
        t = CostTrace(
            model_calcs=2,
            comparisons=3,
            branches=4,
            atomic_rmw=1,
            slots_shifted=5,
            secondary_steps=6,
            nodes_visited=2,
        )
        expected = (
            2 * m.model_calc_ns
            + 3 * m.comparison_ns
            + 4 * m.branch_ns
            + 1 * m.atomic_rmw_ns
            + 5 * m.slot_shift_ns
            + 6 * m.secondary_step_ns
            + 2 * m.node_visit_ns
        )
        assert CostModel().compute_ns(t) == pytest.approx(expected)

    def test_memory_events_not_in_compute(self):
        t = CostTrace(reads=[1, 2, 3], writes=[4])
        assert CostModel().compute_ns(t) == 0.0


class TestMissBytes:
    def test_miss_bytes(self):
        assert CostModel().miss_bytes(10) == 10 * CACHE_LINE_BYTES


class TestSequentialEstimate:
    def test_scales_with_touches(self):
        m = CostModel()
        t1 = CostTrace(reads=[1])
        t10 = CostTrace(reads=list(range(10)))
        assert m.sequential_ns(t10) > m.sequential_ns(t1)

    def test_miss_ratio_bounds(self):
        m = CostModel()
        t = CostTrace(reads=list(range(100)))
        all_hit = m.sequential_ns(t, miss_ratio=0.0)
        all_miss = m.sequential_ns(t, miss_ratio=1.0)
        assert all_hit == pytest.approx(100 * m.cache_hit_ns)
        assert all_miss == pytest.approx(100 * m.cache_miss_ns)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().cache_hit_ns = 1.0


class TestCalibration:
    """Sanity relations the defaults must keep for shapes to be honest."""

    def test_miss_costs_more_than_hit(self):
        m = CostModel()
        assert m.cache_miss_ns > 10 * m.cache_hit_ns

    def test_invalidation_at_least_a_miss(self):
        m = CostModel()
        assert m.invalidation_ns >= m.cache_miss_ns

    def test_model_calc_cheaper_than_miss(self):
        # The learned-index premise: one prediction beats one cache miss.
        m = CostModel()
        assert m.model_calc_ns < m.cache_miss_ns / 5

    def test_pointer_chase_below_dram(self):
        m = CostModel()
        assert m.cache_hit_ns < m.node_visit_ns < m.cache_miss_ns
