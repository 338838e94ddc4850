"""FINEdex (Li et al., VLDB 2021): LPA models + per-slot level bins.

Structure:

- the key space is partitioned by the Learning Probe Algorithm
  (:func:`repro.core.segmentation.lpa_partition`) into linearly-modelled
  training arrays; lookups predict a position and run an ε-bounded
  secondary binary search (the prediction-error cost of Table I);
- every training record can sprout a **level bin** — a small sorted bin
  that recursively sprouts child bins when full.  Inserts touch only
  their bin (fine write granularity, the property that gives FINEdex
  better tail latency than XIndex in Fig. 7) at the price of allocating
  many small bins (the space cost of Fig. 8a).
"""

from __future__ import annotations

import bisect
import threading
from typing import Sequence

import numpy as np

from repro.baselines.rmi import _LinearModel
from repro.common import BatchIndex, OrderedIndex, SortedView, as_value_array, unique_tag
from repro.core.segmentation import lpa_partition
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_ENTRY_BYTES = 16
_BIN_CAPACITY = 8
_BIN_HEADER_BYTES = 64

#: Removed separator marker: once a bin has sprouted children its keys
#: act as routing separators and cannot be physically deleted.
_TOMBSTONE = object()


class _LevelBin:
    """A sorted bin of up to ``_BIN_CAPACITY`` entries with child bins."""

    __slots__ = ("keys", "values", "children", "span", "lock")

    def __init__(self, memory: MemoryMap, tag: str):
        self.keys: list[int] = []
        self.values: list = []
        self.children: list["_LevelBin"] | None = None
        self.span = memory.alloc(
            _BIN_HEADER_BYTES + _BIN_CAPACITY * _ENTRY_BYTES, tag
        )
        self.lock = threading.Lock()

    def find(self, key: int):
        """(found, value) searching this bin and its children."""
        t = current_tracer()
        if t is not None:
            t.nodes_visited += 1  # bins are pointer-chased from the slot
            t.reads.append(self.span.line(0))
            t.comparisons += max(len(self.keys).bit_length(), 1)
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            v = self.values[i]
            if v is _TOMBSTONE:
                return False, None
            return True, v
        if self.children is not None:
            return self.children[i].find(key)
        return False, None

    def insert(self, key: int, value, memory: MemoryMap, tag: str) -> bool:
        """Insert; splits into child bins when full.  True if new."""
        t = current_tracer()
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            revived = self.values[i] is _TOMBSTONE
            self.values[i] = value
            if t is not None:
                t.writes.append(self.span.line(0))
            return revived
        if self.children is not None:
            return self.children[i].insert(key, value, memory, tag)
        if len(self.keys) < _BIN_CAPACITY:
            with self.lock:
                self.keys.insert(i, key)
                self.values.insert(i, value)
            if t is not None:
                t.writes.append(self.span.line(_BIN_HEADER_BYTES + (i * _ENTRY_BYTES) % (_BIN_CAPACITY * _ENTRY_BYTES)))
            return True
        # Sprout a level of child bins; resident keys become separators.
        with self.lock:
            if self.children is None:
                self.children = [
                    _LevelBin(memory, tag) for _ in range(len(self.keys) + 1)
                ]
        if t is not None:
            t.writes.append(self.span.line(0))
        i = bisect.bisect_left(self.keys, key)
        return self.children[i].insert(key, value, memory, tag)

    def remove(self, key: int) -> bool:
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            t = current_tracer()
            if t is not None:
                t.writes.append(self.span.line(0))
            with self.lock:
                if self.children is not None:
                    # Separators route children: tombstone, don't delete.
                    if self.values[i] is _TOMBSTONE:
                        return False
                    self.values[i] = _TOMBSTONE
                    return True
                del self.keys[i]
                del self.values[i]
            return True
        if self.children is not None:
            return self.children[i].remove(key)
        return False

    def items(self):
        """Sorted live (key, value) pairs including children."""
        if self.children is None:
            yield from zip(self.keys, self.values)
            return
        for i, child in enumerate(self.children):
            yield from child.items()
            if i < len(self.keys) and self.values[i] is not _TOMBSTONE:
                yield self.keys[i], self.values[i]

    def bin_count(self) -> int:
        count = 1
        if self.children is not None:
            count += sum(c.bin_count() for c in self.children)
        return count


class _FineModel:
    """One LPA-trained model: sorted training array + per-slot bins."""

    __slots__ = ("first_key", "keys", "values", "deleted", "model", "bins", "span")

    def __init__(self, keys: np.ndarray, values: list, memory: MemoryMap, tag: str):
        self.first_key = int(keys[0]) if len(keys) else 0
        self.keys = keys
        self.values = values
        self.deleted: set[int] = set()
        xs = keys.astype(np.float64)
        ys = np.arange(len(keys), dtype=np.float64)
        self.model = _LinearModel.fit(xs, ys)
        self.bins: dict[int, _LevelBin] = {}
        self.span = memory.alloc(_ENTRY_BYTES * max(len(keys), 1) + 64, tag)

    def rank(self, key: int) -> int:
        """Rank via prediction + ε-bounded secondary search (traced)."""
        n = len(self.keys)
        if n == 0:
            return 0
        pos = min(max(self.model.predict(float(key)), 0), n - 1)
        err = self.model.max_error
        lo = max(pos - err, 0)
        hi = min(pos + err + 1, n)
        keys = self.keys
        k64 = np.uint64(key)
        if lo > 0 and keys[lo - 1] > k64:
            lo = 0
        if hi < n and keys[hi] <= k64:
            hi = n
        t = current_tracer()
        if t is not None:
            t.model_calcs += 1
        while lo < hi:
            mid = (lo + hi) // 2
            if t is not None:
                t.secondary_steps += 1
                t.comparisons += 1
                t.reads.append(self.span.line(64 + mid * _ENTRY_BYTES))
            if keys[mid] <= k64:
                lo = mid + 1
            else:
                hi = mid
        return lo

class FINEdex(OrderedIndex):
    """Concurrent FINEdex over LPA models with level-bin inserts."""

    NAME = "FINEdex"

    def __init__(
        self,
        *,
        error_bound: int = 32,
        memory: MemoryMap | None = None,
        tag: str | None = None,
    ):
        self.error_bound = error_bound
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("finedex")
        self._models: list[_FineModel] = []
        self._first_keys = np.empty(0, dtype=np.uint64)
        self._upper_span = None
        self._size = 0
        self._size_lock = threading.Lock()
        # Training arrays are immutable after bulk_load (runtime inserts
        # go to level bins, removals to the per-model deleted sets), so
        # the view is built once and never invalidated.
        self._view = SortedView(
            lambda: ((m, m.keys, np.arange(len(m.keys))) for m in self._models)
        )

    @classmethod
    def bulk_load(
        cls, keys: np.ndarray, values: Sequence | None = None, **options
    ) -> "FINEdex":
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        index = cls(**options)
        segments = lpa_partition(keys, index.error_bound)
        for seg in segments:
            chunk = keys[seg.start : seg.end]
            index._models.append(
                _FineModel(
                    chunk,
                    list(values[seg.start : seg.end]),
                    index._memory,
                    index.mem_tag,
                )
            )
        if not index._models:
            index._models.append(
                _FineModel(np.empty(0, dtype=np.uint64), [], index._memory, index.mem_tag)
            )
        index._first_keys = np.array(
            [m.first_key for m in index._models], dtype=np.uint64
        )
        index._upper_span = index._memory.alloc(
            max(len(index._models) * 8, 8), index.mem_tag
        )
        index._size = len(keys)
        return index

    def _model_for(self, key: int) -> _FineModel:
        t = current_tracer()
        i = int(np.searchsorted(self._first_keys, np.uint64(key), side="right")) - 1
        if t is not None:
            steps = max(len(self._models).bit_length(), 1)
            t.comparisons += steps
            for probe in range(steps):
                t.reads.append(self._upper_span.line(((i + probe) * 8) % self._upper_span.nbytes))
        return self._models[max(i, 0)]

    # -- operations ---------------------------------------------------------
    def get(self, key: int):
        model = self._model_for(key)
        r = model.rank(key)
        if r > 0 and int(model.keys[r - 1]) == key:
            if key in model.deleted:
                return None
            return model.values[r - 1]
        slot = max(r - 1, 0)
        b = model.bins.get(slot)
        if b is None:
            return None
        found, value = b.find(key)
        return value if found else None

    def batch_get(self, keys) -> list:
        """Vectorized lookup: one ``searchsorted`` over the sorted view of
        the training arrays routes and ranks the whole batch; only
        bin-resident keys fall back to the per-key level-bin chase.
        Delegates to the scalar loop under an active tracer (trace
        equivalence).
        """
        if current_tracer() is not None:
            return BatchIndex.batch_get(self, keys)
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        out: list = [None] * n
        keys_l = keys.tolist()
        hit_i, models, slots = self._view.find(keys)
        for i, m, s in zip(hit_i.tolist(), models, slots):
            if keys_l[i] not in m.deleted:
                out[i] = m.values[s]
        miss = np.ones(n, dtype=bool)
        miss[hit_i] = False
        miss_i = np.flatnonzero(miss)
        if len(miss_i):
            # A missing key's bin hangs off the largest training key below
            # it, in that key's model (models partition the sorted key
            # space); keys below every training key use model 0's bin 0.
            vkeys, owners, vslots = self._view.arrays()
            below = (np.searchsorted(vkeys, keys[miss_i]) - 1).tolist()
            for i, b in zip(miss_i.tolist(), below):
                m, s = (owners[b], int(vslots[b])) if b >= 0 else (self._models[0], 0)
                bin_ = m.bins.get(s)
                if bin_ is not None:
                    found, value = bin_.find(keys_l[i])
                    if found:
                        out[i] = value
        return out

    def insert(self, key: int, value) -> bool:
        model = self._model_for(key)
        r = model.rank(key)
        if r > 0 and int(model.keys[r - 1]) == key:
            new = key in model.deleted
            model.deleted.discard(key)
            model.values[r - 1] = value
            t = current_tracer()
            if t is not None:
                t.writes.append(model.span.line(64 + (r - 1) * _ENTRY_BYTES))
            if new:
                self._bump(1)
            return new
        slot = max(r - 1, 0)
        b = model.bins.get(slot)
        if b is None:
            b = model.bins.setdefault(slot, _LevelBin(self._memory, self.mem_tag))
        new = b.insert(key, value, self._memory, self.mem_tag)
        if new:
            self._bump(1)
        return new

    def remove(self, key: int) -> bool:
        model = self._model_for(key)
        r = model.rank(key)
        if r > 0 and int(model.keys[r - 1]) == key:
            if key in model.deleted:
                return False
            model.deleted.add(key)
            self._bump(-1)
            return True
        b = model.bins.get(max(r - 1, 0))
        if b is not None and b.remove(key):
            self._bump(-1)
            return True
        return False

    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        i = max(
            int(np.searchsorted(self._first_keys, np.uint64(lo), side="right")) - 1, 0
        )
        out: list[tuple[int, object]] = []
        if count <= 0:
            return out
        first = True
        for model in self._models[i:]:
            # Start the first model at the rank of lo (traced, like any
            # FINEdex position search); later models start at 0.
            start = max(model.rank(lo) - 1, 0) if first and len(model.keys) else 0
            first = False
            for k, v in self._model_items(model, start):
                if k < lo:
                    continue
                out.append((k, v))
                if len(out) >= count:
                    return out
        return out

    def _model_items(self, model: _FineModel, start: int = 0):
        """Sorted live pairs of one model.

        Bin ``j`` holds keys strictly between training keys ``j`` and
        ``j+1`` — except bin 0, which also catches keys below the first
        training key (rank 0 clamps to slot 0), so its sub-``keys[0]``
        items are emitted first.
        """
        n = len(model.keys)
        if n == 0:
            b = model.bins.get(0)
            if b is not None:
                yield from b.items()
            return
        t = current_tracer()
        first = int(model.keys[0])
        if start == 0:
            head = model.bins.get(0)
            if head is not None:
                for bk, bv in head.items():
                    if bk < first:
                        yield bk, bv
        for j in range(start, n):
            k = int(model.keys[j])
            if t is not None and j % 4 == 0:
                t.reads.append(model.span.line(64 + (j * _ENTRY_BYTES) % max(model.span.nbytes - 64, 1)))
            if k not in model.deleted:
                yield k, model.values[j]
            b = model.bins.get(j)
            if b is not None:
                for bk, bv in b.items():
                    if bk > k:
                        yield bk, bv

    def _bump(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def __len__(self) -> int:
        return self._size

    def stats(self) -> dict:
        return {
            "model_count": len(self._models),
            "bins": sum(
                b.bin_count() for m in self._models for b in m.bins.values()
            ),
            "max_model_error": max(
                (m.model.max_error for m in self._models), default=0
            ),
            "memory_bytes": self.memory_bytes(),
        }
