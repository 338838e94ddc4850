"""Discrete-event multi-thread replay of traced index operations.

The engine takes the per-operation :class:`~repro.sim.trace.CostTrace`
stream produced by running a real (Python) index and replays it on ``N``
virtual threads in virtual time.  It models the three phenomena that
determine concurrent index performance in the paper:

1. **Cache locality** — each virtual thread owns an LRU set of hot cache
   lines; touching a resident line is a hit, anything else is a DRAM miss.
   Skewed (zipfian) workloads naturally get higher hit rates (Fig. 8e).

2. **Coherence invalidation** — a line written by one thread is invalidated
   in every other thread's cache; the next toucher pays an invalidation
   miss.  Structures that funnel writes through shared lines (LIPP+'s root
   statistics counters) suffer exactly as the paper describes.

3. **Optimistic conflicts** — two overlapping writes to the same line from
   different threads make the later operation retry, re-paying a fraction
   of its cost (the odd/even version-number protocol of §III-E).

4. **DRAM bandwidth saturation** — when aggregate miss traffic exceeds the
   socket bandwidth cap, all memory time inflates proportionally.  This is
   what makes ε-bounded secondary search "saturate the memory bandwidth".

Operations are assigned to worker threads round-robin and executed in
global virtual-time order (always advancing the thread with the smallest
clock), so cross-thread interactions are deterministic for a given input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.sim.cost_model import CostModel
from repro.sim.trace import CACHE_LINE_BYTES, CostTrace


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated execution."""

    threads: int = 32
    background_threads: int = 2
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.background_threads < 0:
            raise ValueError("background_threads must be >= 0")


@dataclass
class SimResult:
    """Aggregate outcome of a simulated run."""

    threads: int
    total_ops: int
    makespan_ns: float
    latencies_ns: np.ndarray
    cache_hits: int
    cache_misses: int
    invalidation_misses: int
    conflicts: int
    bandwidth_factor: float
    background_ns: float

    @property
    def throughput_mops(self) -> float:
        """Throughput in million operations per second."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.total_ops / self.makespan_ns * 1e3

    @property
    def avg_latency_ns(self) -> float:
        if len(self.latencies_ns) == 0:
            return 0.0
        return float(self.latencies_ns.mean())

    def percentile_ns(self, pct: float) -> float:
        """Latency percentile in nanoseconds (e.g. ``pct=99.9``)."""
        if len(self.latencies_ns) == 0:
            return 0.0
        return float(np.percentile(self.latencies_ns, pct))

    @property
    def hit_rate(self) -> float:
        touches = self.cache_hits + self.cache_misses
        return self.cache_hits / touches if touches else 0.0


class _ThreadCache:
    """Per-virtual-thread LRU of hot cache lines.

    Values are last-access timestamps; an entry is stale (invalidated) if
    another thread wrote the line after we last touched it.
    """

    __slots__ = ("lines", "capacity")

    def __init__(self, capacity: int):
        self.lines: dict[int, float] = {}
        self.capacity = capacity

    def touch(self, line: int, now: float) -> float | None:
        """Record an access; returns prior access time if resident."""
        prev = self.lines.pop(line, None)
        self.lines[line] = now
        if len(self.lines) > self.capacity:
            self.lines.pop(next(iter(self.lines)))
        return prev


def simulate(
    op_traces: Sequence[CostTrace] | Iterable[CostTrace],
    config: SimConfig | None = None,
    warmup: int = 0,
    timeline=None,
) -> SimResult:
    """Replay traced operations on virtual threads; see module docstring.

    The first ``warmup`` operations are executed (they warm the virtual
    caches and establish write ownership) but excluded from latency
    percentiles and throughput — the paper measures steady state, not
    cold caches.

    ``timeline`` optionally takes a
    :class:`~repro.obs.timeline.TimelineRecorder`; the engine then emits
    one track per virtual thread with an op slice (named by the trace's
    ``op_label``) per operation, ``lock_wait`` slices where coherence
    serialization stalled an op, ``conflict``/``injected_fault`` instant
    events, and one track per background thread.  Timestamps are the
    engine's virtual nanoseconds *before* bandwidth stretching (the
    applied factor is recorded in ``otherData``).
    """
    config = config or SimConfig()
    traces = list(op_traces)
    model = config.cost_model
    n_threads = config.threads

    clocks = [0.0] * n_threads
    caches = [_ThreadCache(model.cache_lines_per_thread) for _ in range(n_threads)]
    # line -> (writer thread, virtual completion time of the write)
    last_write: dict[int, tuple[int, float]] = {}
    bg_clocks = [0.0] * max(1, config.background_threads)

    n_measured = max(len(traces) - warmup, 0)
    latencies = np.empty(n_measured, dtype=np.float64)
    hits = misses = invals = conflicts = 0
    total_bg_ns = 0.0
    warmup_boundary = 0.0

    # Per-thread FIFO queues, round-robin assignment.
    queues: list[list[int]] = [[] for _ in range(n_threads)]
    for i in range(len(traces)):
        queues[i % n_threads].append(i)
    cursors = [0] * n_threads

    heap = [(0.0, tid) for tid in range(n_threads) if queues[tid]]
    heapq.heapify(heap)

    hit_ns = model.cache_hit_ns
    miss_ns = model.cache_miss_ns
    inval_ns = model.invalidation_ns

    while heap:
        start, tid = heapq.heappop(heap)
        op_idx = queues[tid][cursors[tid]]
        cursors[tid] += 1
        full = traces[op_idx]
        trace = full.foreground_view()
        measured = op_idx >= warmup

        cache = caches[tid]
        mem_ns = 0.0
        op_conflict = False
        op_hits = op_misses = op_invals = 0

        for line in trace.reads:
            lw = last_write.get(line)
            prev = cache.touch(line, start)
            if prev is not None and (lw is None or lw[1] <= prev or lw[0] == tid):
                mem_ns += hit_ns
                op_hits += 1
            elif prev is not None and lw is not None and lw[0] != tid:
                mem_ns += inval_ns
                op_invals += 1
            else:
                mem_ns += miss_ns
                op_misses += 1

        serialize_until = 0.0
        serialize_line = -1
        for line in trace.writes:
            lw = last_write.get(line)
            prev = cache.touch(line, start)
            if prev is not None and (lw is None or lw[1] <= prev or lw[0] == tid):
                mem_ns += hit_ns
                op_hits += 1
            elif prev is not None and lw is not None and lw[0] != tid:
                mem_ns += inval_ns
                op_invals += 1
            else:
                mem_ns += miss_ns
                op_misses += 1
            # Optimistic write-write conflict: another thread's write to
            # this line completed after our operation began -> the
            # version check fails and the op retries (§III-E).  Cache
            # coherence also serializes the RFOs: our write cannot
            # complete before the previous owner's write has, plus a
            # line transfer — this queueing is what caps structures that
            # funnel every insert through one hot line (LIPP+'s root
            # statistics counter).
            if lw is not None and lw[0] != tid and lw[1] > start:
                op_conflict = True
                until = lw[1] + inval_ns
                if until > serialize_until:
                    serialize_until = until
                    serialize_line = line

        if measured:
            hits += op_hits
            misses += op_misses
            invals += op_invals

        base_ns = model.compute_ns(trace) + mem_ns
        if op_conflict:
            if measured:
                conflicts += 1
            base_ns += base_ns * model.retry_fraction

        end = start + base_ns
        wait_ns = 0.0
        if serialize_until > end:
            wait_ns = serialize_until - end
            end = serialize_until
            base_ns = end - start
        # Writes become visible (and contested) at op completion time.
        for line in trace.writes:
            last_write[line] = (tid, end)

        if timeline is not None:
            label = getattr(full, "op_label", None)
            timeline.op(
                tid,
                f"op.{label}" if label else "op",
                start,
                end - start,
                hits=op_hits,
                misses=op_misses,
                invals=op_invals,
            )
            if wait_ns > 0.0:
                timeline.lock_wait(tid, end - wait_ns, wait_ns, serialize_line)
            if op_conflict:
                timeline.conflict(tid, end)
            if trace.injected_faults:
                timeline.fault(tid, start, trace.injected_faults)

        if measured:
            latencies[op_idx - warmup] = base_ns
        else:
            warmup_boundary = max(warmup_boundary, end)
        clocks[tid] = end

        bg = full.background_view()
        if bg is not None:
            bg_ns = model.compute_ns(bg) + (len(bg.reads) + len(bg.writes)) * (
                miss_ns * 0.5
            )
            # Charge to the least-loaded background thread, but never
            # earlier than the moment the work was handed off.
            bi = min(range(len(bg_clocks)), key=bg_clocks.__getitem__)
            bg_start = max(bg_clocks[bi], end)
            bg_clocks[bi] = bg_start + bg_ns
            total_bg_ns += bg_ns
            if timeline is not None:
                timeline.background(bi, n_threads, bg_start, bg_ns)

        if cursors[tid] < len(queues[tid]):
            heapq.heappush(heap, (end, tid))

    makespan = max(clocks) if traces else 0.0
    if config.background_threads > 0:
        makespan = max([makespan] + bg_clocks)
    measured_span = max(makespan - warmup_boundary, 0.0) if warmup else makespan

    # DRAM bandwidth saturation: if aggregate miss traffic exceeds the cap,
    # the whole execution stretches proportionally.
    factor = 1.0
    if measured_span > 0:
        demand = (misses + invals) * CACHE_LINE_BYTES / (measured_span * 1e-9)
        factor = max(1.0, demand / model.dram_bandwidth_bytes_per_s)
        if factor > 1.0:
            measured_span *= factor
            latencies = latencies * factor

    if timeline is not None:
        timeline.other["bandwidth_factor"] = factor
        timeline.other["threads"] = n_threads
        timeline.other["total_ops"] = len(traces)

    return SimResult(
        threads=n_threads,
        total_ops=n_measured,
        makespan_ns=measured_span,
        latencies_ns=latencies,
        cache_hits=hits,
        cache_misses=misses,
        invalidation_misses=invals,
        conflicts=conflicts,
        bandwidth_factor=factor,
        background_ns=total_bg_ns,
    )
