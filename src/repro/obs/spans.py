"""Hierarchical span tracer composing with the ambient :class:`CostTrace`.

The paper's analysis figures are *attribution* claims: which layer
(learned model vs. GPL slots vs. fast-pointer buffer vs. ART conflict
path vs. retraining) an operation spends its modeled time in.  The span
tracer answers them by bucketing the events the ambient
:class:`repro.sim.trace.CostTrace` already records — scalar counters and
cache-line touches — under named spans, one per layer.

Design constraints, in order:

1. **Zero overhead when off.**  The structures carry no span code.
   :data:`repro.obs.taxonomy.SPAN_TARGETS` names the entry points whose
   code is each layer; :func:`profiled` wraps them in self-time shims on
   the first activation (across all threads) and puts the original
   attributes back on the last.  With no profile active the index runs
   its own, unwrapped functions.
2. **Exact attribution.**  Spans are *self-time* buckets: at every span
   boundary (enter or exit) the events recorded since the previous
   boundary are charged to the span that was open.  Summing every
   bucket of a profile therefore reproduces the total trace exactly —
   no event is double-counted and none is lost, which is what lets the
   harness assert that per-layer totals sum to the experiment's total
   modeled cost.  A target called inside another target's call is
   charged to its own span.
3. **Composition, not duplication.**  Spans never record events of
   their own; they only partition what the ambient tracer records.  A
   profile active without a tracer still counts span entries and wall
   time, but attributes no modeled events.

Usage::

    with profiled() as prof:
        with tracer():
            with prof.span("op.read"):
                index.get(key)
    prof.breakdown(CostModel())   # per-layer modeled-ns rows

Only operation envelopes (the harness's ``op.*``) are opened explicitly,
with :meth:`SpanProfile.span` or ``enter``/``exit``.  Span names must be
registered in :mod:`repro.obs.taxonomy`; the ``check_spans`` tier-1 tool
checks the table and rejects unregistered literals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager

from repro.obs import recorder as obs_recorder
from repro.obs.taxonomy import SPAN_TARGETS
from repro.sim.trace import CostTrace, current_tracer

_FIELDS = CostTrace._SCALAR_FIELDS
_NFIELDS = len(_FIELDS)
_ZEROS = (0,) * _NFIELDS

_tls = threading.local()
#: Count of live ``profiled()`` activations across all threads.  Updated
#: under ``_n_active_lock``, which also orders the shim installation on
#: the first activation and the restore on the last: a lost update could
#: leave the shims off while a profile is live, or on after the last.
_n_active = 0
_n_active_lock = threading.Lock()
#: ``(owner, attribute, original)`` of every installed shim.
_installed: list[tuple[object, str, object]] = []


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
    off.
    """
    if not _n_active:
        return NULL_SPAN
    prof = getattr(_tls, "profile", None)
    if prof is None:
        return NULL_SPAN
    return _SpanCtx(prof, name)


def span_targets():
    """Yield ``(span, owner, attribute)`` for every :data:`SPAN_TARGETS`
    entry, with the owner class or module imported."""
    for name, targets in SPAN_TARGETS.items():
        for module, owner, attr in targets:
            obj = importlib.import_module(module)
            yield name, getattr(obj, owner) if owner else obj, attr


def _shim(name: str, fn):
    """``fn`` charged to span ``name`` in the calling thread's profile,
    through the exception-safe :class:`_SpanCtx`."""
    if inspect.isgeneratorfunction(fn):
        return _generator_shim(name, fn)

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        prof = getattr(_tls, "profile", None)
        if prof is None:
            return fn(*args, **kwargs)
        with _SpanCtx(prof, name):
            return fn(*args, **kwargs)

    return shim


def _generator_shim(name: str, fn):
    """A generator target's shim: the generator's work runs between its
    yields, whenever its consumer resumes it, so each resume is charged
    to span ``name`` (and counts as one entry), and the consumer's code
    between two resumes is not."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:  # bounded: ends when ``gen`` does
                prof = getattr(_tls, "profile", None)
                try:
                    if prof is None:
                        item = next(gen)
                    else:
                        with _SpanCtx(prof, name):
                            item = next(gen)
                except StopIteration:
                    return
                yield item
        finally:
            gen.close()

    return shim


def _restore() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def _install() -> None:
    try:
        for name, owner, attr in span_targets():
            original = vars(owner)[attr]
            _installed.append((owner, attr, original))
            setattr(owner, attr, _shim(name, original))
    except BaseException:
        _restore()
        raise


@contextmanager
def profiled(profile: SpanProfile | None = None):
    """Activate span profiling for the current thread.

    Yields the active :class:`SpanProfile`.  Nesting stacks (the inner
    profile shadows the outer one), mirroring :func:`repro.sim.trace.tracer`.
    The first activation in the process installs the span shims and the
    last one restores the original attributes.
    """
    global _n_active
    profile = profile if profile is not None else SpanProfile()
    with _n_active_lock:
        if not _n_active:
            _install()
        _n_active += 1
    prev = getattr(_tls, "profile", None)
    _tls.profile = profile
    try:
        yield profile
    finally:
        _tls.profile = prev
        with _n_active_lock:
            _n_active -= 1
            if not _n_active:
                _restore()
