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
views into them at its offset in the published geometry.  The arena is
the only copy of a slot: a batch probe resolves every learned-layer hit
with one gather, and scalar reads index memoryviews of the model's
views (half the cost of NumPy scalar indexing).

A slot write, under its odd version, fills the key, then the value,
then the state (the publish bit); a clear writes the key and state,
then the value.  A batch probe, which reads no version, takes a slot
as a hit when it read the key, then the state FULL, before its value
gather and the key again after it, and :meth:`GPLModel.recover_slot`
salvages only a FULL slot.  Scalar reads and scans validate the
version; an idle slot's key is nonzero only when it is FULL, so they
read the state only for key 0 (which predicts slot 0 alone).

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
import threading
from operator import itemgetter
from typing import Iterator

import numpy as np

from repro import chaos
from repro.concurrency.retry import DEFAULT_RETRY, acquire_writer_lock
from repro.concurrency.version_lock import SlotVersionArray
from repro.core.errors import KeysNotSortedError
from repro.core.gpl import Segment, gpl_partition
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_HEADER_BYTES = 64
_SLOT_BYTES = 16

#: Gap factor: a bulk-built model leaves about one free slot per key.
GAP = 2.0

EMPTY = 0
FULL = 1
TOMBSTONE = 2

#: (LearnedLayer attribute, fill of a free slot) of each arena array, in
#: GPLModel.slot_arrays order.
_ARENA = (("np_keys", 0), ("np_state", EMPTY), ("np_values", None))

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
    arrays; its ``build_size`` is set here.
    Collisions are adjacent (the slot function is monotone), so
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
    ends = np.cumsum(counts)
    built = np.add.reduceat(win, ends - counts).tolist()
    for m, n in zip(models, built):
        m.build_size = n
    return keys[~win], values[~win]


class GPLModel:
    """One gapped, error-free linear model of the learned layer."""

    __slots__ = (
        "first_key",
        "slope_eff",
        "n_slots",
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
        "keys_mv",
        "state_mv",
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
        self.slope_eff = slope_eff
        self.n_slots = n_slots
        if arena is None:
            arena = (
                np.zeros(n_slots, dtype=np.uint64),
                np.zeros(n_slots, dtype=np.uint8),
                np.full(n_slots, None, dtype=object),
            )
        self.bind(*arena)  # state starts EMPTY
        self.versions = SlotVersionArray(n_slots)
        self.span = memory.alloc(model_bytes(n_slots), tag)
        self.fast_index = -1
        self.build_size = 0
        self.insert_count = 0
        self.expansion = None  # ExpansionBuffer during retraining (§III-F)
        # Serializes scalar writers of this model (ALTIndex._lock_model);
        # an expansion buffer inherits it, so it outlives the swap.
        self.writer_lock = threading.Lock()

    def bind(self, np_keys: np.ndarray, np_state: np.ndarray, values: np.ndarray) -> None:
        """Point the model at its slot arrays (in a LearnedLayer, views of
        its arena) and at ``keys_mv``/``state_mv``, memoryviews of the key
        and state arrays that scalar reads index."""
        self.np_keys, self.np_state, self.values = np_keys, np_state, values
        self.keys_mv, self.state_mv = memoryview(np_keys), memoryview(np_state)

    @property
    def slot_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(np_keys, np_state, values)``, the arguments of :meth:`bind`."""
        return self.np_keys, self.np_state, self.values

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
        retry = None
        while True:
            v = self.versions.read_begin(slot)
            chaos.point("gpl.read_fields")
            # Through self: a compaction rebinds the views.
            key = self.keys_mv[slot]
            value = self.values[slot]
            # An idle slot's key is nonzero only when it is FULL.
            state = FULL if key else self.state_mv[slot]
            if self.versions.read_validate(slot, v):
                break
            if retry is None:
                retry = DEFAULT_RETRY.begin("gpl.read_slot")
            retry.step(slot=slot)
        return (FULL, key, value) if state == FULL else (state, None, None)

    def write_slot(self, slot: int, key: int, value) -> None:
        """Latch the slot version odd, publish, flip even."""
        chaos.point("gpl.slot_cas")
        self.versions.write_begin(slot)
        self.np_keys[slot] = key
        chaos.point("gpl.slot_fields")  # mid-write: key visible, value stale
        self.values[slot] = value
        self.np_state[slot] = FULL  # the publish bit, last
        self.versions.write_end(slot)
        self._trace_write(slot)

    def clear_slot(self, slot: int) -> None:
        """Remove a slot's payload, leaving a tombstone."""
        chaos.point("gpl.slot_cas")
        self.versions.write_begin(slot)
        chaos.point("gpl.slot_fields")  # a writer dying here leaves the pair whole
        # Key and state before the value: a batch reader that gathers the
        # value before re-reading the key then never pairs the cleared
        # value with the old key (ALTIndex.batch_get).
        self.np_keys[slot] = 0
        self.np_state[slot] = TOMBSTONE
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
        # A writer that died mid-fill left the state (written last) EMPTY
        # or TOMBSTONE; a FULL slot holds its key and old or new value.
        state = self.state_mv[slot]
        key = self.keys_mv[slot]
        value = self.values[slot]
        self.clear_slot(slot)
        return (key, value) if state == FULL else None

    # -- bulk loading -------------------------------------------------------
    def place_bulk(self, keys: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
        """Place sorted keys at their predicted slots of this empty model:
        :func:`place_sorted` for one model."""
        return place_sorted([self], keys, values, [len(keys)], [0], self.slot_arrays)

    # -- introspection -------------------------------------------------------
    def occupancy(self) -> int:
        """Number of live keys resident in this model."""
        return int(np.count_nonzero(self.np_state == FULL))

    def iter_slots(self, lo: int = 0, hi: int = 2**64 - 1) -> Iterator[tuple[int, object]]:
        """Live (key, value) pairs with ``lo <= key <= hi``, in slot
        (== key) order: :func:`_live_pairs` for this model alone."""
        return _live_pairs((self,), lo, hi, buffers=False)

    def free(self) -> None:
        self.span.free()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GPLModel(first={self.first_key}, slots={self.n_slots}, "
            f"built={self.build_size})"
        )


def _live_pairs(models, lo: int, hi: int, buffers: bool) -> Iterator[tuple[int, object]]:
    """Live (key, value) pairs with ``lo <= key <= hi`` of consecutive
    ``models`` from ``lo``'s predicted slot on, in key order: the
    seqlocked slot loop of every scan.  With ``buffers``, a model under
    expansion is merged with its temporal buffer (the two are disjoint:
    evicted slots are tombstoned).

    A slot costs a version and a key read (an idle slot's key is nonzero
    only when FULL, and only slot 0 can hold key 0); one with a key, its
    value and the version again.  :meth:`GPLModel.read_slot` re-reads a
    slot a writer holds or changed, waiting it out, so no pair is torn.
    The key and value views are reloaded from the model after each
    pair, so a scan resumed after a compaction reads the new copies (the
    old ones hold every pair written before it; a scan is no snapshot).
    Scans touch each slot line once (4 slots per 64-byte line).
    """
    t = current_tracer()
    for m in models:
        if m.first_key > hi:
            return
        if buffers and m.expansion is not None:
            buf = m.expansion.buffer
            yield from heapq.merge(
                _live_pairs((m,), lo, hi, False),
                _live_pairs((buf,), lo, hi, False),
                key=itemgetter(0),
            )
            continue
        versions = m.versions._versions
        keys, values = m.keys_mv, m.values
        for s in range(m.slot_of(lo) if lo >= m.first_key else 0, m.n_slots):
            if t is not None and s % 4 == 0:
                t.reads.append(m._slot_line(s))
            v = versions[s]
            k = keys[s]
            if not k and (s or m.state_mv[s] != FULL):  # key 0 predicts slot 0
                continue
            value = values[s]
            if v & 1 or versions[s] != v:
                _, k, value = m.read_slot(s)
                keys, values = m.keys_mv, m.values
                if k is None:
                    continue
            if k > hi:
                return
            if k >= lo:
                yield k, value
                keys, values = m.keys_mv, m.values


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
        arenas = [getattr(self, attr) for attr, _ in _ARENA]
        for arena, view in zip(arenas, model.slot_arrays):
            arena[lo:hi] = view
        model.bind(*(arena[lo:hi] for arena in arenas))
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
        time, each model rebound to a copy (memoryviews too) before the
        next, so at most one old arena array is alive beside the new
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
        for i, (attr, fill) in enumerate(_ARENA):
            arena = np.empty(total, dtype=getattr(self, attr).dtype)
            np.concatenate([m.slot_arrays[i] for m in models], out=arena[:live])
            arena[live:] = fill
            setattr(self, attr, arena)
            for m, lo in zip(models, offsets_l):
                views = list(m.slot_arrays)
                views[i] = arena[lo : lo + m.n_slots]
                m.bind(*views)
        self._tail = live
        self._geo = (
            self._version, self._first_keys, slopes, (n_slots - 1).astype(np.float64), offsets
        )

    @contextlib.contextmanager
    def writer_locks(self, models: list[GPLModel], version: int, site: str) -> Iterator[bool]:
        """Hold the writer locks of ``models``, taken in model order;
        yields whether the structural version is still ``version`` (no
        model swapped or appended since the caller read it).

        Scalar writers hold at most one model lock, and every multi-model
        holder (the arena compaction, the batch writers) takes its locks
        here, in model order, so no two holders can deadlock.
        """
        held = []
        try:
            for m in models:
                acquire_writer_lock(m.writer_lock, site)
                held.append(m)
            yield self._version == version
        finally:
            for m in held:
                m.writer_lock.release()

    @contextlib.contextmanager
    def _locked_models(self) -> Iterator[list[GPLModel]]:
        """Hold every live model's writer lock (:meth:`writer_locks`).  A
        model swapped out while the locks were being taken changes the
        structural version: release all and retry."""
        while True:  # bounded: each retry follows a finished expansion swap
            version, models = self._version, list(self.models)
            with self.writer_locks(models, version, "gpl.fold_lock") as live:
                if live:
                    yield models
                    return

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
        writer is changing: keys are gathered before states, so a key
        with a FULL state read after it has its value in place, and
        ``ALTIndex.batch_get`` re-reads the keys after its value gather;
        the batch writers re-read state and keys under the touched
        models' writer locks (:meth:`writer_locks`).  A compaction is
        safe against scalar writers, which it excludes with their writer
        locks, and may run here: take no writer lock before calling.

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
        resident = self.np_keys[flat]
        return midx, slots, flat, self.np_state[flat], resident

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
        """Sorted live pairs with lo <= key <= hi across all models,
        including the temporal buffers of models under expansion."""
        start = max(bisect.bisect_right(self._first_key_list, lo) - 1, 0)
        return _live_pairs(self.models[start:], lo, hi, buffers=True)
