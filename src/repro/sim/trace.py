"""Cost tracing: modeled memory and per-operation event recording.

Every data structure in this repository is written as if it were the C++
structure from its paper: it *allocates* modeled memory in 64-byte cache
lines through a :class:`MemoryMap`, and its operations record which lines
they read and write, how many model computations and key comparisons they
perform, and so on, into an ambient :class:`CostTrace`.

Two things are derived from this instrumentation:

1. **Memory accounting** (paper Fig. 8a): the live modeled bytes of each
   index — i.e. what the C implementation would occupy — independent of
   Python object overhead.
2. **Performance simulation** (Figs. 7-9, Table I): the simulator replays
   recorded traces on virtual threads and charges time per event using
   :class:`repro.sim.cost_model.CostModel`.

Tracing is *ambient*: structures call :func:`current_tracer` so their
public APIs stay clean.  With no :func:`tracer` activation live in any
thread, it returns after one module-global int test, before any
thread-local access.  Use::

    with tracer() as t:
        index.search(key)
    t.cache_line_reads  # -> list of touched line ids
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

CACHE_LINE_BYTES = 64


def line_count(nbytes: int) -> int:
    """Cache lines an allocation of ``nbytes`` covers (at least one)."""
    return max(1, (nbytes + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES)


class LineSpan:
    """A contiguous modeled allocation, addressable by byte offset.

    A span covers ``ceil(nbytes / 64)`` cache lines.  ``line(offset)``
    maps a byte offset inside the allocation to a globally unique cache
    line id, which is what traces record.
    """

    __slots__ = ("base", "nbytes", "nlines", "tag", "_memory", "_freed")

    def __init__(self, base: int, nbytes: int, tag: str, memory: "MemoryMap"):
        self.base = base
        self.nbytes = nbytes
        self.nlines = line_count(nbytes)
        self.tag = tag
        self._memory = memory
        self._freed = False

    def line(self, byte_offset: int = 0) -> int:
        """Cache line id containing ``byte_offset`` within this span."""
        return self.base + (byte_offset // CACHE_LINE_BYTES)

    def lines(self) -> range:
        """All cache line ids covered by this span."""
        return range(self.base, self.base + self.nlines)

    def free(self) -> None:
        """Release the modeled allocation (idempotent)."""
        if not self._freed:
            self._freed = True
            self._memory.release(self.nbytes, self.tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LineSpan(base={self.base}, nbytes={self.nbytes}, tag={self.tag!r})"


class MemoryMap:
    """Registry of modeled allocations.

    Hands out non-overlapping cache-line id ranges and keeps per-tag live
    byte counts, which back the memory-overhead experiment (Fig. 8a).
    """

    def __init__(self) -> None:
        self._next_line = 1
        self._live_bytes: dict[str, int] = {}
        self._total_allocs = 0
        self._lock = threading.Lock()

    def reserve(self, nbytes: int, tag: str = "untagged") -> int:
        """Account ``nbytes`` of modeled memory under ``tag``; returns the
        first of the :func:`line_count` cache line ids it covers.  The
        caller owns them until it calls :meth:`release` with the same
        size and tag, exactly once."""
        if nbytes < 0:
            raise ValueError(f"allocation size must be non-negative, got {nbytes}")
        return self.reserve_run(1, nbytes, line_count(nbytes), tag)

    def reserve_run(self, count: int, nbytes: int, nlines: int, tag: str = "untagged") -> int:
        """Account ``count`` allocations at once, as ``count`` calls of
        :meth:`reserve` would: ``nbytes`` in total under ``tag`` over
        ``nlines`` consecutive cache line ids, of which it returns the
        first.  The caller hands the lines out in turn, each allocation
        the :func:`line_count` of its own size, and releases each one
        with :meth:`release` as if :meth:`reserve` had made it."""
        with self._lock:
            base = self._next_line
            self._next_line += nlines
            self._live_bytes[tag] = self._live_bytes.get(tag, 0) + nbytes
            self._total_allocs += count
        return base

    def release(self, nbytes: int, tag: str = "untagged") -> None:
        """Return ``nbytes`` that :meth:`reserve` accounted under ``tag``."""
        with self._lock:
            self._live_bytes[tag] -= nbytes

    def alloc(self, nbytes: int, tag: str = "untagged") -> LineSpan:
        """Allocate ``nbytes`` of modeled memory under ``tag`` as a
        :class:`LineSpan`, whose :meth:`LineSpan.free` releases it once."""
        return LineSpan(self.reserve(nbytes, tag), nbytes, tag, self)

    def live_bytes(self, tag: str | None = None) -> int:
        """Live modeled bytes, for one tag or in total."""
        with self._lock:
            if tag is not None:
                return self._live_bytes.get(tag, 0)
            return sum(self._live_bytes.values())

    def live_bytes_by_tag(self) -> dict[str, int]:
        """Snapshot of live bytes per allocation tag."""
        with self._lock:
            return {t: b for t, b in self._live_bytes.items() if b}

    @property
    def total_allocations(self) -> int:
        return self._total_allocs


_GLOBAL_MEMORY = MemoryMap()


def global_memory() -> MemoryMap:
    """The process-wide modeled memory map used by default."""
    return _GLOBAL_MEMORY


@dataclass
class CostTrace:
    """Events recorded by one index operation.

    Scalar counters capture CPU work; the read/write line lists capture
    memory behaviour.  ``background_split`` marks the point where the
    operation handed work to a background thread (XIndex-style compaction):
    events recorded after :meth:`begin_background` belong to the background
    portion and are charged to background virtual threads by the simulator.
    """

    model_calcs: int = 0
    comparisons: int = 0
    branches: int = 0
    atomic_rmw: int = 0
    slots_shifted: int = 0
    nodes_visited: int = 0
    secondary_steps: int = 0
    retries: int = 0
    fallbacks: int = 0
    injected_faults: int = 0
    reads: list[int] = field(default_factory=list)
    writes: list[int] = field(default_factory=list)
    background_split: tuple[int, int] | None = None
    _bg_scalars: dict[str, int] | None = None
    #: Optional label ("read"/"insert"/"scan"/...) attached by the
    #: harness; the timeline exporter uses it to name op slices.
    op_label: str | None = None

    # -- memory events ---------------------------------------------------
    def read_line(self, line: int) -> None:
        """Record a read of one modeled cache line."""
        self.reads.append(line)

    def write_line(self, line: int) -> None:
        """Record a write of one modeled cache line."""
        self.writes.append(line)

    # -- background work -------------------------------------------------
    def begin_background(self) -> None:
        """Mark that subsequent events belong to background threads."""
        if self.background_split is None:
            self.background_split = (len(self.reads), len(self.writes))
            self._bg_scalars = self.scalars()

    def foreground_view(self) -> "CostTrace":
        """The portion of this trace executed on the calling thread."""
        if self.background_split is None:
            return self
        nr, nw = self.background_split
        fg = CostTrace(reads=self.reads[:nr], writes=self.writes[:nw])
        assert self._bg_scalars is not None
        for name, value in self._bg_scalars.items():
            setattr(fg, name, value)
        return fg

    def background_view(self) -> "CostTrace | None":
        """The portion handed off to background threads, if any."""
        if self.background_split is None:
            return None
        nr, nw = self.background_split
        bg = CostTrace(reads=self.reads[nr:], writes=self.writes[nw:])
        assert self._bg_scalars is not None
        for name, value in self._bg_scalars.items():
            setattr(bg, name, getattr(self, name) - value)
        return bg

    # -- introspection ----------------------------------------------------
    _SCALAR_FIELDS = (
        "model_calcs",
        "comparisons",
        "branches",
        "atomic_rmw",
        "slots_shifted",
        "nodes_visited",
        "secondary_steps",
        "retries",
        "fallbacks",
        "injected_faults",
    )

    def scalars(self) -> dict[str, int]:
        """All scalar counters as a dict."""
        return {name: getattr(self, name) for name in self._SCALAR_FIELDS}


class _NullTrace:
    """No-op sink used when tracing is inactive.

    Mirrors the recording surface of :class:`CostTrace` so structure code
    never needs an ``if tracer is not None`` guard around multi-call
    sequences — but :func:`current_tracer` returns ``None`` when off, so
    single-call sites can skip work entirely.

    The scalar counters are real writable attributes: protocol code does
    ``active_tracer().retries += 1`` unconditionally, so retries are
    counted whenever a :class:`CostTrace` is active and silently absorbed
    here when one is not.  The accumulated values are never read.
    """

    __slots__ = CostTrace._SCALAR_FIELDS

    def __init__(self) -> None:
        for name in CostTrace._SCALAR_FIELDS:
            setattr(self, name, 0)

    def read_line(self, line: int) -> None:
        pass

    def write_line(self, line: int) -> None:
        pass

    def begin_background(self) -> None:
        pass


NULL_TRACE = _NullTrace()

_tls = threading.local()
#: Count of live ``tracer()`` activations across all threads, the
#: :func:`repro.obs.spans.current_profile` pattern: with none live the
#: lookups below skip the thread-local access.  Updated under
#: ``_n_active_lock`` because a lost update would leave it at 0 while a
#: trace is live and silently untrace that trace's operations.
_n_active = 0
_n_active_lock = threading.Lock()


def current_tracer() -> CostTrace | None:
    """The active :class:`CostTrace` for this thread, or ``None``."""
    if not _n_active:
        return None
    return getattr(_tls, "trace", None)


def active_tracer():
    """The active tracer, or a shared no-op sink when tracing is off."""
    if not _n_active:
        return NULL_TRACE
    return getattr(_tls, "trace", None) or NULL_TRACE


@contextmanager
def tracer(trace: CostTrace | None = None):
    """Activate cost tracing for the current thread.

    Yields the active :class:`CostTrace`.  Nested use stacks properly
    (inner traces shadow outer ones).
    """
    global _n_active
    trace = trace if trace is not None else CostTrace()
    prev = getattr(_tls, "trace", None)
    _tls.trace = trace
    with _n_active_lock:
        _n_active += 1
    try:
        yield trace
    finally:
        with _n_active_lock:
            _n_active -= 1
        _tls.trace = prev
