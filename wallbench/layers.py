"""Per-layer call tracing from outside the program.

:class:`LayerTracer` replaces the public entry points of each ``repro``
module with a timing shim for the duration of a ``with`` block and puts
the original attributes back on exit.  Each shim counts calls and
accumulates *self* time: the wall time inside the call minus the time
spent in shimmed calls nested inside it.  Self times therefore sum,
exactly, to the wall time of the outermost shimmed calls; the caller
adds the remainder between its own per-operation timer and those
outermost calls as an explicit ``unattributed`` entry.

The tracer never enters :func:`repro.sim.trace.tracer`: under a cost
tracer the batch fast paths fall back to their scalar loops, and the
traced run must execute the same code as the untraced one.

Calls are recorded into the current *phase* (``setup``, ``measure``,
...), so set-up work is reported apart from the measured phase.
"""

from __future__ import annotations

import functools
import importlib
import time

# (metric name, module, owner attribute path, function attribute).  The
# owner is a class, or the module itself for module-level functions; the
# module-level ones are patched where the caller looks them up.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("alt_index.get", "repro.core.alt_index", "ALTIndex", "get"),
    ("alt_index.insert", "repro.core.alt_index", "ALTIndex", "insert"),
    ("alt_index.remove", "repro.core.alt_index", "ALTIndex", "remove"),
    ("alt_index.scan", "repro.core.alt_index", "ALTIndex", "scan"),
    ("alt_index.batch_get", "repro.core.alt_index", "ALTIndex", "batch_get"),
    ("alt_index.batch_insert", "repro.core.alt_index", "ALTIndex", "batch_insert"),
    ("alt_index.batch_remove", "repro.core.alt_index", "ALTIndex", "batch_remove"),
    ("learned_layer.route", "repro.core.learned_layer", "LearnedLayer", "route"),
    ("learned_layer.probe_live", "repro.core.learned_layer", "LearnedLayer", "probe_live"),
    ("learned_layer.slot_of", "repro.core.learned_layer", "GPLModel", "slot_of"),
    ("learned_layer.read_slot", "repro.core.learned_layer", "GPLModel", "read_slot"),
    ("learned_layer.write_slot", "repro.core.learned_layer", "GPLModel", "write_slot"),
    ("learned_layer.clear_slot", "repro.core.learned_layer", "GPLModel", "clear_slot"),
    ("learned_layer.bulk_build", "repro.core.learned_layer", "LearnedLayer", "bulk_build"),
    ("learned_layer.gpl_partition", "repro.core.learned_layer", "", "gpl_partition"),
    ("fast_pointer.entry", "repro.core.fast_pointer", "FastPointerBuffer", "entry"),
    ("fast_pointer.register", "repro.core.fast_pointer", "FastPointerBuffer", "register"),
    ("fast_pointer.build_for_layer", "repro.core.fast_pointer", "FastPointerBuffer", "build_for_layer"),
    ("art.search", "repro.art.tree", "AdaptiveRadixTree", "search"),
    ("art.insert", "repro.art.tree", "AdaptiveRadixTree", "insert"),
    ("art.remove", "repro.art.tree", "AdaptiveRadixTree", "remove"),
    ("art.scan", "repro.art.tree", "AdaptiveRadixTree", "scan"),
    ("art.items", "repro.art.tree", "AdaptiveRadixTree", "items"),
    ("art.bulk_insert", "repro.art.tree", "AdaptiveRadixTree", "bulk_insert"),
    ("art.bulk_remove", "repro.art.tree", "AdaptiveRadixTree", "bulk_remove"),
    ("retrain.maybe_start_expansion", "repro.core.alt_index", "", "maybe_start_expansion"),
    ("retrain.finish_expansion", "repro.core.alt_index", "", "finish_expansion"),
    ("retrain.absorb", "repro.core.retrain", "ExpansionBuffer", "absorb"),
    ("retrain.lookup", "repro.core.retrain", "ExpansionBuffer", "lookup"),
    ("epoch.retire", "repro.concurrency.epoch", "EpochManager", "retire"),
    ("health.tick", "repro.obs.health", "", "tick"),
    ("shard.batch_get", "repro.shard.sharded", "ShardedALTIndex", "batch_get"),
    ("shard.scatter", "repro.shard.sharded", "ShardedALTIndex", "scatter"),
    ("shard.route_batch", "repro.shard.partitioner", "RangePartitioner", "route_batch"),
)

# Set-up work is reported under ``setup.<fn>`` from the ``setup`` phase.
SETUP_REPORT: dict[str, str] = {
    "setup.bulk_build": "learned_layer.bulk_build",
    "setup.gpl_partition": "learned_layer.gpl_partition",
    "setup.build_for_layer": "fast_pointer.build_for_layer",
    "setup.art_insert": "art.insert",
}

# Functions only set-up calls; the measured phase does not report them.
SETUP_ONLY = frozenset(SETUP_REPORT.values()) - {"art.insert"}

NAMES = tuple(t[0] for t in TARGETS)


def resolve(module: str, owner: str):
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


class Phase:
    """Per-function ``[calls, self_ns]`` cells plus outermost wall time."""

    __slots__ = ("cells", "top_ns")

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {name: [0, 0] for name in NAMES}
        self.top_ns = 0

    def self_ns_total(self) -> int:
        return sum(cell[1] for cell in self.cells.values())


class LayerTracer:
    """``with LayerTracer() as t: t.phase("measure"); ...``"""

    def __init__(self) -> None:
        self.phases: dict[str, Phase] = {}
        self._current = self.phase("idle")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def phase(self, name: str) -> Phase:
        """Record subsequent calls into phase ``name`` (created on first use)."""
        ph = self.phases.get(name)
        if ph is None:
            ph = self.phases[name] = Phase()
        self._current = ph
        return ph

    # -- install / restore ------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for name, module, owner, attr in TARGETS:
                self._patch(name, resolve(module, owner), attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, name: str, owner, attr: str) -> None:
        # The raw class-dict entry keeps classmethods intact on restore.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            shim = classmethod(self._shim(name, original.__func__))
        else:
            shim = self._shim(name, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, shim)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _shim(self, name: str, fn):
        stack = self._stack
        perf = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                ph = tracer._current
                cell = ph.cells[name]
                cell[0] += 1
                cell[1] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    ph.top_ns += dt

        return shim


def current_attrs() -> dict[str, object]:
    """The raw attribute each target name resolves to right now."""
    out = {}
    for name, module, owner, attr in TARGETS:
        obj = resolve(module, owner)
        out[name] = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    return out


def report(tracer: LayerTracer, measured_ns: int) -> dict[str, float]:
    """``<fn>.calls`` / ``<fn>.self_ms`` for the measured phase and
    ``setup.<fn>`` for set-up, plus the unattributed remainder: the
    measured-phase time outside every shimmed call, so that the self
    times and the remainder sum to ``measured_ns``."""
    out: dict[str, float] = {}
    measure = tracer.phases.get("measure") or Phase()
    for name in NAMES:
        if name in SETUP_ONLY:
            continue
        calls, self_ns = measure.cells[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_ns / 1e6
    setup = tracer.phases.get("setup") or Phase()
    for label, name in SETUP_REPORT.items():
        calls, self_ns = setup.cells[name]
        out[f"{label}.calls"] = calls
        out[f"{label}.self_ms"] = self_ns / 1e6
    out["trace.measured_ms"] = measured_ns / 1e6
    out["trace.unattributed_ms"] = (measured_ns - measure.top_ns) / 1e6
    return out
