"""The flattened learned index layer of ALT-index (§III-B).

The layer is a single sorted array of GPL models — no model hierarchy.
Locating a model is one binary search over the models' first keys (the
"upper model"); locating a slot inside a model is one linear-function
evaluation.  There are no in-model secondary searches: every resident key
sits exactly at its predicted slot, and anything that cannot (bulk-load
collisions, insert conflicts) lives in the ART-OPT layer instead.

A :class:`GPLModel` is a gapped slot array:

- ``slot(key) = floor(GAP · slope · (key - first_key))`` — the model's
  mid-slope stretched by the gap factor :data:`GAP` so bulk loading
  leaves free slots for future inserts (the paper's "array gaps scheme");
- a bitmap marks occupied slots so probes skip empty ones cheaply;
- each slot has a seqlock-style version for the §III-E odd/even
  write protocol;
- a slot is EMPTY (bitmap clear), FULL, or a TOMBSTONE (bitmap set,
  key cleared — Algorithm 2 represents this as ``key == 0``); tombstones
  are left by removals and by expansion evictions, and are refilled by
  the write-back path of Algorithm 2 lines 10-13.

Modeled layout per model: 64-byte header, 16 B per slot (key+value),
1 bit per slot of bitmap, 4 B per slot of versions — this is what the
memory-overhead experiment (Fig. 8a) accounts.

Physically, a :class:`LearnedLayer` stores every model's slot *state*,
resident *key* and *value* in three layer-wide NumPy arrays (the
"arena": ``np_state``, ``np_keys``, ``np_values``), and each model holds
views into them at its offset in the published geometry.  The value
arena is the only copy of a slot's value, so a batch probe resolves
every learned-layer hit with one gather.  The per-model ``keys`` list
is the seqlocked key the scalar read validates; ``np_keys`` repeats it
for the batch probe.

The arena keeps a free *tail* of ``1 / _TAIL_FRACTION`` of its live
slots.  A model swapped in by an expansion (or appended) is copied into
the next free tail range, in O(model); the range of the model it
replaces becomes dead space.  Only when the tail has no room does the
next batch probe *compact* the layer: it copies every live model, in
model order, into a fresh arena with a new tail.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import math
import threading
from itertools import chain
from operator import itemgetter
from typing import Iterator

import numpy as np

from repro import chaos
from repro.concurrency.retry import DEFAULT_RETRY, acquire_writer_lock
from repro.concurrency.version_lock import SlotVersionArray
from repro.core.errors import KeysNotSortedError
from repro.core.gpl import Segment, gpl_partition
from repro.sim.trace import MemoryMap, active_tracer, current_tracer, global_memory

_HEADER_BYTES = 64
_SLOT_BYTES = 16
_VERSION_BYTES = 4

#: Gap factor: a bulk-built model leaves about one free slot per key.
GAP = 2.0

EMPTY = 0
FULL = 1
TOMBSTONE = 2

#: (LearnedLayer attribute, GPLModel attribute, fill of a free slot) of
#: each slot array the layer-wide arena holds, in the order a
#: compaction copies them.
_ARENA = (
    ("np_keys", "np_keys", 0),
    ("np_state", "np_state", EMPTY),
    ("np_values", "values", None),
)

#: The arena reserves a free tail of 1/_TAIL_FRACTION of its live slots
#: for models swapped in or appended, so a swap copies one model, not
#: the layer.  A compaction runs only once the tail is used up, so its
#: O(n) copy pays for about n/16 slots of swapped-in models, as the ART
#: overlay's fold pays for n/16 changed keys.
_TAIL_FRACTION = 16


def model_bytes(n_slots: int) -> int:
    """Modeled allocation size of a GPL model with ``n_slots`` slots.

    The per-slot version word lives in the slot itself (tag bits of the
    value pointer, as C implementations of seqlock slots do), so a slot
    is 16 bytes and only the bitmap adds overhead.
    """
    return _HEADER_BYTES + n_slots * _SLOT_BYTES + (n_slots + 7) // 8


def place_sorted(models: list, keys, values, counts, offsets, arena) -> tuple:
    """Place sorted ``keys`` at their predicted slots of the consecutive
    ``models`` with array ops; returns the conflicts as ``(uint64 keys,
    object values)`` arrays.

    ``models[m]`` takes the next ``counts[m]`` keys, and its slots start
    at ``offsets[m]`` of the ``(np_keys, np_state, values)`` ``arena``
    arrays; its ``keys`` list, ``build_size`` and ``last_key`` are set
    here.  Collisions are adjacent (the slot function is monotone), so
    the first key of each equal-slot run wins and the rest are the
    ART-OPT layer's conflict data.  Values keep their element objects (a
    numeric array's as its NumPy scalars).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if not (isinstance(values, np.ndarray) and values.dtype == object):
        values = np.fromiter(values, dtype=object, count=len(values))
    if len(keys) == 0:
        return keys, values
    first = np.array([m.first_key for m in models], dtype=np.uint64)
    slopes = np.array([m.slope_eff for m in models], dtype=np.float64)
    last_slot = np.array([m.n_slots - 1 for m in models], dtype=np.int64)
    # Exact integer subtraction first: keys can exceed 2^53 and the
    # placement must agree bit-for-bit with slot_of()'s arithmetic.
    rel = (keys - np.repeat(first, counts)).astype(np.float64)
    slots = (np.repeat(slopes, counts) * rel).astype(np.int64)
    np.clip(slots, 0, np.repeat(last_slot, counts), out=slots)
    slots += np.repeat(offsets, counts)
    win = np.ones(len(keys), dtype=bool)
    win[1:] = slots[1:] != slots[:-1]
    placed, won = slots[win], keys[win]
    np_keys, np_state, np_values = arena
    np_keys[placed] = won
    np_state[placed] = FULL
    np_values[placed] = values[win]
    key_slots = np.full(len(np_keys), None, dtype=object)
    key_slots[placed] = won.astype(object)  # Python ints
    ends = np.cumsum(counts)
    built = np.add.reduceat(win, ends - counts).tolist()
    for m, lo, n, last in zip(models, np.asarray(offsets).tolist(), built, keys[ends - 1].tolist()):
        m.keys = key_slots[lo : lo + m.n_slots].tolist()
        m.build_size = n
        m.last_key = last
    return keys[~win], values[~win]


class GPLModel:
    """One gapped, error-free linear model of the learned layer."""

    __slots__ = (
        "first_key",
        "last_key",
        "slope_eff",
        "n_slots",
        "keys",
        "values",
        "versions",
        "span",
        "fast_index",
        "build_size",
        "insert_count",
        "expansion",
        "writer_lock",
        "np_keys",
        "np_state",
        "_memory",
        "_tag",
    )

    def __init__(
        self,
        first_key: int,
        slope_eff: float,
        n_slots: int,
        memory: MemoryMap,
        tag: str,
        arena: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.first_key = first_key
        self.last_key = first_key
        self.slope_eff = slope_eff
        self.n_slots = n_slots
        # The seqlocked key of each slot (None when EMPTY or TOMBSTONE).
        self.keys: list[int | None] = [None] * n_slots
        # Slot arrays written by every slot write: ``np_keys`` (the key
        # again, 0 when absent), ``np_state`` (the slot bitmap, which
        # the scalar read consults to tell EMPTY from TOMBSTONE) and
        # ``values``, an object array that is the only copy of each
        # slot's value.  A model of a LearnedLayer holds *views* into
        # the layer-wide arena (LearnedLayer.np_keys/np_state/np_values),
        # so LearnedLayer.probe_live and ALTIndex.batch_get read every
        # model with one gather.
        if arena is None:
            arena = (
                np.zeros(n_slots, dtype=np.uint64),
                np.zeros(n_slots, dtype=np.uint8),
                np.full(n_slots, None, dtype=object),
            )
        self.np_keys, self.np_state, self.values = arena  # state starts EMPTY
        self.versions = SlotVersionArray(n_slots)
        self.span = memory.alloc(model_bytes(n_slots), tag)
        self.fast_index = -1
        self.build_size = 0
        self.insert_count = 0
        self.expansion = None  # ExpansionBuffer during retraining (§III-F)
        # Serializes scalar writers of this model (ALTIndex._lock_model);
        # an expansion buffer inherits it, so it outlives the swap.
        self.writer_lock = threading.Lock()
        self._memory = memory
        self._tag = tag

    # -- geometry ---------------------------------------------------------
    def slot_of(self, key: int) -> int:
        """Predicted slot, clamped into the array."""
        s = int(self.slope_eff * (key - self.first_key))
        if s < 0:
            return 0
        if s >= self.n_slots:
            return self.n_slots - 1
        return s

    # -- tracing helpers ---------------------------------------------------
    def _slot_line(self, slot: int) -> int:
        return self.span.line(_HEADER_BYTES + slot * _SLOT_BYTES)

    def _bitmap_line(self, slot: int) -> int:
        return self.span.line(_HEADER_BYTES + self.n_slots * _SLOT_BYTES + slot // 8)

    def _trace_read(self, slot: int) -> None:
        t = current_tracer()
        if t is not None:
            t.model_calcs += 1
            t.reads.append(self._bitmap_line(slot))
            t.reads.append(self._slot_line(slot))

    def _trace_write(self, slot: int) -> None:
        t = current_tracer()
        if t is not None:
            t.writes.append(self._slot_line(slot))
            t.writes.append(self._bitmap_line(slot))

    # -- slot access (§III-E seqlock protocol) ------------------------------
    def read_slot(self, slot: int) -> tuple[int, int | None, object]:
        """Optimistically read a slot; returns (state, key, value).

        The validate-retry loop is bounded; a slot held latched past the
        budget (a writer that died mid-latch) raises
        :class:`repro.concurrency.retry.StuckWriterError` from
        ``read_begin`` — see :meth:`recover_slot`.
        """
        self._trace_read(slot)
        state = None
        while True:
            v = self.versions.read_begin(slot)
            chaos.point("gpl.read_fields")
            key = self.keys[slot]
            value = self.values[slot]
            empty = key is None and self.np_state[slot] == EMPTY
            if self.versions.read_validate(slot, v):
                break
            if state is None:
                state = DEFAULT_RETRY.begin("gpl.read_slot")
            state.step(slot=slot)
        if key is None:
            return (EMPTY if empty else TOMBSTONE), None, None
        return FULL, key, value

    def write_slot(self, slot: int, key: int | None, value) -> None:
        """Latch the slot version odd, publish, flip even."""
        chaos.point("gpl.slot_cas")
        self.versions.write_begin(slot)
        self.keys[slot] = key
        chaos.point("gpl.slot_fields")  # mid-write: key visible, value stale
        self.values[slot] = value
        self.np_keys[slot] = key
        self.np_state[slot] = FULL
        self.versions.write_end(slot)
        self._trace_write(slot)

    def clear_slot(self, slot: int, tombstone: bool = True) -> None:
        """Remove a slot's payload, leaving a tombstone by default."""
        chaos.point("gpl.slot_cas")
        self.versions.write_begin(slot)
        self.keys[slot] = None
        chaos.point("gpl.slot_fields")
        # Key and state before the value: a batch reader that gathers the
        # value before re-reading the key then never pairs the cleared
        # value with the old key (ALTIndex.batch_get).
        self.np_keys[slot] = 0
        self.np_state[slot] = TOMBSTONE if tombstone else EMPTY
        self.values[slot] = None
        self.versions.write_end(slot)
        self._trace_write(slot)

    def recover_slot(self, slot: int) -> tuple[int, object] | None:
        """Recover a slot whose writer died holding the latch (§III-E).

        Breaks the odd-version latch, salvages whatever pair the slot
        holds, then tombstones it: the fields may be *torn* (the writer
        died between field writes), so the learned layer must never
        serve them directly.  The salvaged pair — if any — is returned
        for repatriation into the ART-OPT conflict layer, where an
        upsert is idempotent; a later lookup write-back (Algorithm 2
        lines 10-13) migrates it home again.

        Returns the salvaged ``(key, value)`` or ``None``.  No-op
        (returns ``None``) when the slot is not actually latched.
        """
        if not self.versions.force_recover(slot):
            return None
        key = self.keys[slot]
        value = self.values[slot]
        # The state is the publish bit: a writer that died mid-write has
        # written the key but not yet the state of a never-used slot.
        published = self.np_state[slot] != EMPTY
        self.clear_slot(slot, tombstone=True)
        if published and key is not None:
            return key, value
        return None

    # -- bulk loading -------------------------------------------------------
    def place_bulk(self, keys: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
        """Place sorted keys at their predicted slots of this empty model:
        :func:`place_sorted` for one model."""
        arena = (self.np_keys, self.np_state, self.values)
        return place_sorted([self], keys, values, [len(keys)], [0], arena)

    # -- introspection -------------------------------------------------------
    def occupancy(self) -> int:
        """Number of live keys resident in this model."""
        return int(np.count_nonzero(self.np_state == FULL))

    def iter_slots(
        self, lo_slot: int = 0, lo: int = 0, hi: int = 2**64 - 1
    ) -> Iterator[tuple[int, object]]:
        """Live (key, value) pairs with ``lo <= key <= hi`` from slot
        ``lo_slot`` on, in slot (== key) order.

        Each live slot is read under its seqlock: a slot whose key is
        set has its version read, then its value and key again, then its
        version again.  A slot a writer holds (odd) or changed meanwhile
        is re-read with :meth:`read_slot`, so no pair is torn (say, a
        new key with the EMPTY slot's ``None`` value); an empty slot
        costs no version read.  Scans touch each slot line once (4 slots
        per 64-byte line).
        """
        t = current_tracer()
        keys, versions = self.keys, self.versions._versions
        for s in range(lo_slot, self.n_slots):
            if t is not None and s % 4 == 0:
                t.reads.append(self._slot_line(s))
            k = keys[s]
            if k is not None:
                v = versions[s]
                # self.values, not a local: a compaction rebinds the view.
                value = self.values[s]
                if v & 1 or keys[s] is not k or versions[s] != v:
                    _, k, value = self.read_slot(s)
                    if k is None:
                        continue
                if k > hi:
                    return
                if k >= lo:
                    yield k, value

    def free(self) -> None:
        self.span.free()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GPLModel(first={self.first_key}, slots={self.n_slots}, "
            f"built={self.build_size})"
        )


class LearnedLayer:
    """Sorted flat array of GPL models plus the binary-searched upper model."""

    def __init__(self, memory: MemoryMap | None = None, tag: str = "alt/learned"):
        self._memory = memory or global_memory()
        self._tag = tag
        self.models: list[GPLModel] = []
        self._first_keys = np.empty(0, dtype=np.uint64)
        # List mirror of _first_keys for the untraced scalar route:
        # bisect over Python ints beats a scalar np.searchsorted call.
        self._first_key_list: list[int] = []
        self._upper_span = None
        self._version = 0
        # The layer-wide slot arena; every live model's
        # np_keys/np_state/values is a view at its geometry offset, and
        # [_tail, len) is free.
        self.np_keys = np.empty(0, dtype=np.uint64)
        self.np_state = np.empty(0, dtype=np.uint8)
        self.np_values = np.empty(0, dtype=object)
        self._tail = 0
        # Serializes tail placement and geometry publication; taken
        # after a model writer lock, never before one.
        self._tail_lock = threading.Lock()
        # The published (version, first_keys, slopes, last_slot, offsets)
        # of the live models, or None while a model waits for compaction.
        empty = np.empty(0, dtype=np.float64)
        self._geo: tuple | None = (0, self._first_keys, empty, empty, np.empty(0, dtype=np.int64))

    # -- construction -------------------------------------------------------
    @classmethod
    def bulk_build(
        cls,
        keys: np.ndarray,
        values,
        epsilon: float,
        memory: MemoryMap | None = None,
        tag: str = "alt/learned",
    ) -> tuple["LearnedLayer", np.ndarray, np.ndarray]:
        """GPL-partition sorted keys into models and place every key with
        one :func:`place_sorted` pass over the layer-wide arena.  Returns
        ``(layer, conflict keys, conflict values)``: the keys that lost
        their slot to a smaller key, as a uint64 and an object array."""
        keys = np.asarray(keys, dtype=np.uint64)
        layer = cls(memory, tag)
        if len(keys) == 0:
            layer._rebuild_upper()
            layer._version += 1
            return layer, *place_sorted([], keys, values, [], [], ())
        segments = gpl_partition(keys, epsilon)
        # Every model's geometry first, so the layer-wide arena is
        # allocated once and each model is built on its views of it.
        geos = [layer._model_geometry(seg, keys[seg.start : seg.end]) for seg in segments]
        slopes = np.array([g[0] for g in geos], dtype=np.float64)
        n_slots = np.array([g[1] for g in geos], dtype=np.int64)
        offsets = np.cumsum(n_slots) - n_slots
        live = int(n_slots.sum())
        total = live + live // _TAIL_FRACTION
        layer.np_keys = np.zeros(total, dtype=np.uint64)
        layer.np_state = np.zeros(total, dtype=np.uint8)
        layer.np_values = np.full(total, None, dtype=object)
        layer._tail = live
        arena = (layer.np_keys, layer.np_state, layer.np_values)
        for seg, (slope, ns), lo in zip(segments, geos, offsets.tolist()):
            view = tuple(a[lo : lo + ns] for a in arena)
            layer.models.append(GPLModel(seg.first_key, slope, ns, layer._memory, layer._tag, view))
        counts = np.array([seg.length for seg in segments], dtype=np.int64)
        conflicts = place_sorted(layer.models, keys, values, counts, offsets, arena)
        layer._rebuild_upper()
        layer._version += 1
        layer._geo = (
            layer._version, layer._first_keys, slopes, (n_slots - 1).astype(np.float64), offsets
        )
        return layer, *conflicts

    def _model_geometry(self, seg: Segment, seg_keys: np.ndarray) -> tuple[float, int]:
        """``(slope_eff, n_slots)`` of the model built over ``seg_keys``."""
        if len(seg_keys) == 1:
            return 1.0, 2
        slope_eff = seg.slope * GAP
        span_keys = float(int(seg_keys[-1]) - int(seg_keys[0]))
        return slope_eff, max(int(slope_eff * span_keys) + 2, len(seg_keys))

    def _rebuild_upper(self) -> None:
        self._first_key_list = [m.first_key for m in self.models]
        self._first_keys = np.array(self._first_key_list, dtype=np.uint64)
        if self._upper_span is not None:
            self._upper_span.free()
        self._upper_span = self._memory.alloc(max(len(self.models) * 8, 8), self._tag)

    def append_overflow_model(self, first_key: int, slope_eff: float, n_slots: int) -> GPLModel:
        """New rightmost model for out-of-range inserts (§III-F), placed
        at the arena tail like a swapped-in model."""
        if self.models and first_key <= self.models[-1].first_key:
            raise KeysNotSortedError("overflow model must extend the key range")
        model = GPLModel(first_key, slope_eff, max(n_slots, 2), self._memory, self._tag)
        with self._tail_lock:
            offset = self._place(model)
            self.models.append(model)
            self._rebuild_upper()
            self._publish(len(self.models) - 1, model, offset)
        return model

    def replace_model(self, index: int, new_model: GPLModel) -> None:
        """Swap in an expanded model (same first_key, new geometry).

        The caller holds the model's writer lock, so no slot of
        ``new_model`` changes while it is copied into the arena tail.
        The geometry with the new model's offset is published before
        the version moves, so a reader that sees the new version never
        pairs it with the old geometry.  With no room in the tail the
        geometry is withdrawn instead and the next probe compacts.
        """
        old = self.models[index]
        new_model.fast_index = old.fast_index
        with self._tail_lock:
            offset = self._place(new_model)
            self.models[index] = new_model
            self._publish(index, new_model, offset)
        old.free()

    def _place(self, model: GPLModel) -> int | None:
        """Copy ``model``'s slot arrays into the next free tail range and
        rebind its views there; returns the range's offset, or None when
        the tail has no room or a compaction is pending.  The caller
        holds the tail lock, and ``model`` has no concurrent writer."""
        lo = self._tail
        hi = lo + model.n_slots
        if self._geo is None or hi > len(self.np_keys):
            return None
        for layer_attr, model_attr, _ in _ARENA:
            arena = getattr(self, layer_attr)
            arena[lo:hi] = getattr(model, model_attr)
            setattr(model, model_attr, arena[lo:hi])
        self._tail = hi
        return lo

    def _publish(self, index: int, model: GPLModel, offset: int | None) -> None:
        """Publish the geometry with ``model`` at ``index`` and arena
        ``offset`` (None withdraws it until a compaction), then bump the
        version.  The published arrays are never mutated: each is copied
        (and grown by one on an append).  The caller holds the tail lock."""
        geo = None
        if offset is not None:
            _, _, slopes, last_slot, offsets = self._geo
            n = len(self.models)
            slopes, last_slot, offsets = (np.resize(a, n) for a in (slopes, last_slot, offsets))
            slopes[index] = model.slope_eff
            last_slot[index] = model.n_slots - 1
            offsets[index] = offset
            geo = (self._version + 1, self._first_keys, slopes, last_slot, offsets)
        self._geo = geo
        self._version += 1

    @property
    def version(self) -> int:
        """Structural version, bumped by every model swap or append; a
        ``probe_live`` result locates live slots while it is unchanged."""
        return self._version

    # -- batch probing (vectorized Algorithm 2, lines 2-4) ---------------------
    def _geometry(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The published per-model ``(version, first_keys, slopes,
        last_slot, offsets)`` arrays (``last_slot`` as float64, the clamp
        of the float prediction).

        Slot writes never change model geometry, and a swap or append
        with room in the arena tail publishes the next geometry itself.
        Otherwise the geometry is withdrawn and this call *compacts* the
        layer first (:meth:`_compact`).
        """
        geo = self._geo
        while geo is None:  # bounded: retried only after a concurrent append
            with self._locked_models() as models, self._tail_lock:
                if self._geo is None and len(models) == len(self.models):
                    self._compact(models)
                geo = self._geo
        return geo

    def _compact(self, models: list[GPLModel]) -> None:
        """Copy every live model, in model order, into a fresh arena with
        a new free tail, and publish the geometry.

        The caller holds every model's writer lock, so no scalar write
        lands in an array already copied, and the tail lock, so no
        append places a model meanwhile.  The arrays are copied one at a
        time, so at most one old arena array is alive beside the new
        one.  The new arena is never shorter than the old, so a reader
        still holding an older geometry gathers in bounds (models only
        grow, so the live slots alone nearly always see to that).
        """
        n_slots = np.array([m.n_slots for m in models], dtype=np.int64)
        slopes = np.array([m.slope_eff for m in models], dtype=np.float64)
        offsets = np.cumsum(n_slots) - n_slots
        offsets_l = offsets.tolist()
        live = int(n_slots.sum())
        total = max(live + live // _TAIL_FRACTION, len(self.np_keys))
        for layer_attr, model_attr, fill in _ARENA:
            arena = np.empty(total, dtype=getattr(self, layer_attr).dtype)
            np.concatenate([getattr(m, model_attr) for m in models], out=arena[:live])
            arena[live:] = fill
            setattr(self, layer_attr, arena)
            for m, lo in zip(models, offsets_l):
                setattr(m, model_attr, arena[lo : lo + m.n_slots])
        self._tail = live
        self._geo = (
            self._version, self._first_keys, slopes, (n_slots - 1).astype(np.float64), offsets
        )

    @contextlib.contextmanager
    def _locked_models(self) -> Iterator[list[GPLModel]]:
        """Hold every live model's writer lock, taken in model order.

        Scalar writers hold at most one model lock, so the fixed order
        cannot deadlock.  A model swapped out while the locks were being
        taken changes the structural version: release all and retry.
        """
        while True:  # bounded: each retry follows a finished expansion swap
            version, models = self._version, list(self.models)
            for m in models:
                acquire_writer_lock(m.writer_lock, "gpl.fold_lock")
            if self._version == version:
                break
            for m in models:
                m.writer_lock.release()
        try:
            yield models
        finally:
            for m in models:
                m.writer_lock.release()

    def probe_live(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Algorithm-2 probe against the *live* slot arena.

        Routes the whole key batch (``np.searchsorted`` over model
        first-keys), predicts slots (``floor(slope * (key - first_key))``
        vectorized) and reads bitmap state — Algorithm 2 lines 2-4 for
        every key at once, bit-identical to per-key ``route`` +
        ``slot_of`` + ``read_slot`` on a quiescent layer.  State and
        resident keys come from one gather over the layer-wide
        ``np_state``/``np_keys`` at the flat slot (the model's geometry
        offset plus its slot) — O(batch), with no copy of the layer to
        rebuild after a slot write or a swap that fits the tail.

        The gathered columns are not one consistent snapshot of a slot a
        writer is changing; ``ALTIndex.batch_get`` re-reads the keys
        after its value gather, and ``batch_insert`` assumes no
        concurrent writer.  A compaction is safe against scalar
        writers, which it excludes with their writer locks.

        Returns ``(model_idx, slot, flat_slot, state, resident_key)``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        _, fks, slopes, last_slot, offsets = self._geometry()
        # Searching the first keys past model 0 yields the clamped
        # route() index directly: keys left of model 0 land on it.
        midx = np.searchsorted(fks[1:], keys, side="right")
        # Exact uint64 subtraction, as slot_of() does; keys left of
        # model 0 are raised to its first key and so clamp to slot 0.
        rel = np.maximum(keys, fks[0]) - fks[midx]
        # Clamp in float before the cast, so a prediction past int64
        # still lands on the last slot as slot_of()'s does.
        slots = np.minimum(slopes[midx] * rel, last_slot[midx]).astype(np.int64)
        flat = offsets[midx] + slots
        return midx, slots, flat, self.np_state[flat], self.np_keys[flat]

    # -- routing (the "upper model") -----------------------------------------
    def route(self, key: int) -> tuple[int, GPLModel]:
        """Binary-search the model covering ``key`` (Algorithm 2 line 2)."""
        n = len(self.models)
        if n == 0:
            raise LookupError("empty learned layer")
        t = current_tracer()
        if t is None:
            i = bisect.bisect_right(self._first_key_list, key) - 1
            return (0, self.models[0]) if i < 0 else (i, self.models[i])
        # Traced: walk the real probe sequence so the simulator sees the
        # true touch pattern of the upper-model array.
        lo, hi = 0, n
        fk = self._first_keys
        span = self._upper_span
        while lo < hi:
            mid = (lo + hi) // 2
            t.comparisons += 1
            t.reads.append(span.line(mid * 8))
            if int(fk[mid]) <= key:
                lo = mid + 1
            else:
                hi = mid
        i = lo - 1
        return (0, self.models[0]) if i < 0 else (i, self.models[i])

    def next_first_key(self, index: int) -> int | None:
        """First key of the model after ``index`` (fast pointer pairing)."""
        if index + 1 < len(self.models):
            return self.models[index + 1].first_key
        return None

    # -- introspection --------------------------------------------------------
    @property
    def model_count(self) -> int:
        return len(self.models)

    def occupancy(self) -> int:
        """Live keys in the layer, including active expansion buffers."""
        total = 0
        for m in self.models:
            total += m.occupancy()
            if m.expansion is not None:
                total += m.expansion.buffer.occupancy()
        return total

    def total_slots(self) -> int:
        total = 0
        for m in self.models:
            total += m.n_slots
            if m.expansion is not None:
                total += m.expansion.buffer.n_slots
        return total

    def items(self, lo: int, hi: int) -> Iterator[tuple[int, object]]:
        """Sorted live pairs with lo <= key <= hi across all models.

        Models under expansion contribute both their remaining slots and
        their temporal buffer (the two are disjoint: evicted slots are
        tombstoned).
        """
        # Chained in C, so a pair costs one step of its model's
        # iter_slots and no step of a generator around it.
        return chain.from_iterable(self._model_items(lo, hi))

    def _model_items(self, lo: int, hi: int) -> Iterator[Iterator[tuple[int, object]]]:
        """One iterator per model in range for :meth:`items`.  Each
        stops past ``hi``; the model after it then starts past ``hi``
        and ends the models."""
        if not self.models:
            return
        start = max(bisect.bisect_right(self._first_key_list, lo) - 1, 0)
        for m in self.models[start:]:
            if m.first_key > hi:
                return
            lo_slot = m.slot_of(lo) if lo >= m.first_key else 0
            if m.expansion is None:
                yield m.iter_slots(lo_slot, lo, hi)
            else:
                buf = m.expansion.buffer
                buf_lo = buf.slot_of(lo) if lo >= buf.first_key else 0
                yield heapq.merge(
                    m.iter_slots(lo_slot, lo, hi),
                    buf.iter_slots(buf_lo, lo, hi),
                    key=itemgetter(0),
                )
