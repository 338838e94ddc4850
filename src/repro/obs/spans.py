"""Hierarchical span tracer composing with the ambient :class:`CostTrace`.

The paper's analysis figures are *attribution* claims: which layer
(learned model vs. GPL slots vs. fast-pointer buffer vs. ART conflict
path vs. retraining) an operation spends its modeled time in.  The span
tracer answers them by bucketing the events the ambient
:class:`repro.sim.trace.CostTrace` already records — scalar counters and
cache-line touches — under named spans opened by structure code.

Design constraints, in order:

1. **Near-zero overhead when off.**  Structure hot paths fetch the
   active profile once per operation (:func:`current_profile`, a module
   counter check before any TLS access — the :func:`repro.chaos.point`
   pattern) and guard each span site with a plain ``if prof is not
   None``.  With no profile installed anywhere, the whole apparatus is
   one function call per operation.
2. **Exact attribution.**  Spans are *self-time* buckets: at every span
   boundary (enter or exit) the events recorded since the previous
   boundary are charged to the span that was open.  Summing every
   bucket of a profile therefore reproduces the total trace exactly —
   no event is double-counted and none is lost, which is what lets the
   harness assert that per-layer totals sum to the experiment's total
   modeled cost.
3. **Composition, not duplication.**  Spans never record events of
   their own; they only partition what the ambient tracer records.  A
   profile active without a tracer still counts span entries and wall
   time, but attributes no modeled events.

Usage::

    with profiled() as prof:
        with tracer():
            index.get(key)
    prof.breakdown(CostModel())   # per-layer modeled-ns rows

Structure code (hot path idiom, mirroring ``current_tracer``)::

    prof = current_profile()
    if prof is not None:
        prof.enter("alt.model_probe")
    ...  # straight-line work
    if prof is not None:
        prof.exit()

Span names must be registered in :mod:`repro.obs.taxonomy`; the
``check_spans`` tier-1 tool rejects unregistered literals.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs import recorder as obs_recorder
from repro.sim.trace import CostTrace, current_tracer

_FIELDS = CostTrace._SCALAR_FIELDS
_NFIELDS = len(_FIELDS)
_ZEROS = (0,) * _NFIELDS

_tls = threading.local()
#: Count of live ``profiled()`` activations across all threads.  Hot
#: paths read this before touching thread-local state, so the fully
#: disabled case costs one global load and an int test.  Updated under
#: ``_n_active_lock``: a lost update could leave it at 0 while a profile
#: is live, silently dropping that profile's spans.
_n_active = 0
_n_active_lock = threading.Lock()


class SpanStats:
    """Accumulated self-time bucket of one span name."""

    __slots__ = ("count", "wall_ns", "reads", "writes", "scalars")

    def __init__(self) -> None:
        self.count = 0
        self.wall_ns = 0
        self.reads = 0
        self.writes = 0
        self.scalars = [0] * _NFIELDS

    def scalar_dict(self) -> dict[str, int]:
        return dict(zip(_FIELDS, self.scalars))

    def as_trace(self) -> CostTrace:
        """The bucket as a :class:`CostTrace` (line lists elided) so it
        can be priced by :meth:`repro.sim.cost_model.CostModel.compute_ns`."""
        t = CostTrace()
        for name, value in zip(_FIELDS, self.scalars):
            setattr(t, name, value)
        return t

    def modeled_ns(self, cost_model, miss_ratio: float = 0.35) -> float:
        """Modeled nanoseconds of this bucket under ``cost_model``.

        Line touches are priced at a flat ``miss_ratio`` (the
        :meth:`~repro.sim.cost_model.CostModel.sequential_ns`
        convention) because buckets keep touch *counts*, not line ids.
        """
        touches = self.reads + self.writes
        misses = touches * miss_ratio
        return (
            cost_model.compute_ns(self.as_trace())
            + misses * cost_model.cache_miss_ns
            + (touches - misses) * cost_model.cache_hit_ns
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "wall_ns": self.wall_ns,
            "reads": self.reads,
            "writes": self.writes,
            "scalars": self.scalar_dict(),
        }


class _SpanCtx:
    """Context-manager handle over a profile's span stack.

    Remembers the stack depth at entry and unwinds back to it on exit,
    so an exception that escapes between inner ``enter``/``exit`` pairs
    (a crash injection, a retry-budget error) cannot leave the profile
    stack dangling across operations.
    """

    __slots__ = ("_profile", "_name", "_depth")

    def __init__(self, profile: "SpanProfile", name: str):
        self._profile = profile
        self._name = name

    def __enter__(self) -> "_SpanCtx":
        self._depth = len(self._profile._stack)
        self._profile.enter(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        profile = self._profile
        while len(profile._stack) > self._depth:
            profile.exit()
        return False


class _NullSpan:
    """Shared no-op context manager returned when profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanProfile:
    """Per-thread accumulator of span self-times.

    One profile serves one tracing thread (the same scoping rule as
    :func:`repro.sim.trace.tracer`); activate with :func:`profiled`.
    """

    __slots__ = ("totals", "_stack", "_mark", "_mark_trace")

    def __init__(self) -> None:
        #: span name -> accumulated :class:`SpanStats`
        self.totals: dict[str, SpanStats] = {}
        self._stack: list[str] = []
        self._mark: tuple | None = None
        self._mark_trace = None

    # -- recording -------------------------------------------------------
    def _boundary(self, charge_to: str | None) -> None:
        """Close the current attribution segment.

        Charges everything recorded since the previous boundary to
        ``charge_to`` (or drops it when no span was open), then re-marks
        against the *current* ambient tracer — which may have changed
        between operations.
        """
        now = time.perf_counter_ns()
        t = current_tracer()
        if charge_to is not None:
            st = self.totals.get(charge_to)
            if st is None:
                st = self.totals[charge_to] = SpanStats()
            mark = self._mark
            if mark is not None:
                st.wall_ns += now - mark[0]
                if t is not None and t is self._mark_trace:
                    st.reads += len(t.reads) - mark[1]
                    st.writes += len(t.writes) - mark[2]
                    ms = mark[3]
                    sc = st.scalars
                    for i, field in enumerate(_FIELDS):
                        sc[i] += getattr(t, field) - ms[i]
        if t is not None:
            self._mark = (
                now,
                len(t.reads),
                len(t.writes),
                tuple(getattr(t, f) for f in _FIELDS),
            )
        else:
            self._mark = (now, 0, 0, _ZEROS)
        self._mark_trace = t

    def enter(self, name: str) -> None:
        """Open a span; events now accrue to ``name`` until the next
        boundary."""
        rec = obs_recorder._active
        if rec is not None:
            rec.record("span", name)
        stack = self._stack
        self._boundary(stack[-1] if stack else None)
        stack.append(name)
        st = self.totals.get(name)
        if st is None:
            st = self.totals[name] = SpanStats()
        st.count += 1

    def exit(self) -> None:
        """Close the innermost span, charging its tail segment."""
        stack = self._stack
        if not stack:
            return
        self._boundary(stack.pop())

    def span(self, name: str) -> _SpanCtx:
        """Exception-safe context manager form (operation-level spans)."""
        return _SpanCtx(self, name)

    # -- reporting -------------------------------------------------------
    def total_modeled_ns(self, cost_model, miss_ratio: float = 0.35) -> float:
        return sum(
            st.modeled_ns(cost_model, miss_ratio) for st in self.totals.values()
        )

    def breakdown(self, cost_model, miss_ratio: float = 0.35) -> list[dict]:
        """Per-span rows sorted by modeled cost share, largest first."""
        total = self.total_modeled_ns(cost_model, miss_ratio)
        rows = []
        for name, st in self.totals.items():
            ns = st.modeled_ns(cost_model, miss_ratio)
            rows.append(
                {
                    "span": name,
                    "count": st.count,
                    "modeled_ms": ns / 1e6,
                    "share": ns / total if total else 0.0,
                    "reads": st.reads,
                    "writes": st.writes,
                }
            )
        rows.sort(key=lambda r: -r["modeled_ms"])
        return rows

    def as_dict(self, cost_model=None, miss_ratio: float = 0.35) -> dict:
        """JSON-friendly dump; includes ``modeled_ns`` when a cost model
        is supplied."""
        out = {}
        for name, st in self.totals.items():
            d = st.as_dict()
            if cost_model is not None:
                d["modeled_ns"] = st.modeled_ns(cost_model, miss_ratio)
            out[name] = d
        return out


# -- ambient activation ----------------------------------------------------
def current_profile() -> SpanProfile | None:
    """The active :class:`SpanProfile` for this thread, or ``None``.

    The common fully-disabled case returns after one module-global int
    test, before any thread-local access.
    """
    if not _n_active:
        return None
    return getattr(_tls, "profile", None)


def span(name: str):
    """Convenience span for operation-level call sites.

    Returns a context manager: the active profile's exception-safe span
    when profiling is on, a shared no-op singleton (no allocation) when
    off.  Hot per-event sites should use the ``current_profile()`` +
    ``enter``/``exit`` idiom instead.
    """
    if not _n_active:
        return NULL_SPAN
    prof = getattr(_tls, "profile", None)
    if prof is None:
        return NULL_SPAN
    return _SpanCtx(prof, name)


@contextmanager
def profiled(profile: SpanProfile | None = None):
    """Activate span profiling for the current thread.

    Yields the active :class:`SpanProfile`.  Nesting stacks (the inner
    profile shadows the outer one), mirroring :func:`repro.sim.trace.tracer`.
    """
    global _n_active
    profile = profile if profile is not None else SpanProfile()
    prev = getattr(_tls, "profile", None)
    _tls.profile = profile
    with _n_active_lock:
        _n_active += 1
    try:
        yield profile
    finally:
        with _n_active_lock:
            _n_active -= 1
        _tls.profile = prev
