"""Calibrated event-to-nanoseconds cost model.

One :class:`CostModel` instance is shared by every index in an experiment,
so relative performance between indexes depends only on what their
operations *do* — the counts recorded in :class:`repro.sim.trace.CostTrace`
— never on per-index tuning.

The default constants approximate the paper's testbed (Intel Xeon Gold
6240 @ 2.6 GHz, DDR4):

=====================  ======  =========================================
event                  cost    rationale
=====================  ======  =========================================
cache hit              4 ns    ~10 cycles L1/L2 blended
cache miss             90 ns   DRAM round trip
invalidation miss      110 ns  DRAM + coherence traffic
model calculation      6 ns    fused multiply-add + rounding + bound
comparison / branch    1 ns    ~2.6 cycles, partially hidden
atomic RMW             20 ns   uncontended lock-prefixed op
slot shift (16 B)      4 ns    pair move within cached node
retry penalty          0.5×    fraction of base op cost re-executed
DRAM bandwidth         100e9   bytes/s aggregate cap (dual socket)
=====================  ======  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import CACHE_LINE_BYTES, CostTrace


@dataclass(frozen=True)
class CostModel:
    """Converts :class:`CostTrace` events to virtual nanoseconds."""

    cache_hit_ns: float = 4.0
    cache_miss_ns: float = 90.0
    invalidation_ns: float = 110.0
    model_calc_ns: float = 6.0
    comparison_ns: float = 1.0
    branch_ns: float = 1.0
    atomic_rmw_ns: float = 20.0
    slot_shift_ns: float = 4.0
    secondary_step_ns: float = 2.0
    # Tree descents are chains of *dependent* loads: the next node
    # address is unknown until the previous load retires, so each level
    # costs an un-pipelined L2/L3-class latency on top of the line costs
    # — the reason learned-index predictions beat pointer chasing.
    node_visit_ns: float = 40.0
    # A pessimistic fallback (BoundedRetry giving up on optimism) is a
    # contended mutex hand-off: roughly a futex wake plus the coherence
    # traffic of the lock word — far more than one atomic, far less than
    # a syscall-heavy sleep.  Charging it here lets the simulator price
    # contention collapse: a workload that keeps falling back pays for it.
    fallback_ns: float = 250.0
    retry_fraction: float = 0.5
    dram_bandwidth_bytes_per_s: float = 100e9
    # Hot-line budget per virtual thread.  Sized relative to the scaled
    # datasets: the paper's 200M-key indexes (3-6 GB) dwarf a 25 MB LLC
    # (<1% resident); at the default 100K-key scale (~2-4 MB of modeled
    # memory) 512 lines = 32 KiB keeps a comparable index-to-cache
    # ratio, so hit rates — and the zipf-skew effects of Fig. 8e — stay
    # honest: upper models and hot keys cache, cold slots do not.
    cache_lines_per_thread: int = 512

    def compute_ns(self, trace: CostTrace) -> float:
        """Pure CPU cost of a trace (memory events are priced by the engine)."""
        return (
            trace.model_calcs * self.model_calc_ns
            + trace.comparisons * self.comparison_ns
            + trace.branches * self.branch_ns
            + trace.atomic_rmw * self.atomic_rmw_ns
            + trace.slots_shifted * self.slot_shift_ns
            + trace.secondary_steps * self.secondary_step_ns
            + trace.nodes_visited * self.node_visit_ns
            + trace.fallbacks * self.fallback_ns
        )

    def miss_bytes(self, n_misses: int) -> int:
        """Bytes pulled from DRAM by ``n_misses`` cache misses."""
        return n_misses * CACHE_LINE_BYTES

    def sequential_ns(self, trace: CostTrace, miss_ratio: float = 0.35) -> float:
        """Single-thread estimate without engine simulation.

        Used by quick estimates and examples; assumes a fixed fraction of
        line touches miss cache.  The engine computes real per-line
        hit/miss behaviour instead.
        """
        touches = len(trace.reads) + len(trace.writes)
        misses = touches * miss_ratio
        hits = touches - misses
        return (
            self.compute_ns(trace)
            + misses * self.cache_miss_ns
            + hits * self.cache_hit_ns
        )
