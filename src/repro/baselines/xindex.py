"""XIndex (Tang et al., PPoPP 2020): RMI root + per-group delta buffers.

Structure:

- a static two-stage RMI routes a key to a *group* (the paper's leaf
  node) via the sorted array of group pivots;
- each group holds a sorted, linearly-modelled data array; lookups
  predict a position and run an error-bounded secondary binary search —
  the prediction-error cost Table I attributes to XIndex;
- inserts go to the group's **delta buffer** (a masstree in the original;
  modeled at masstree node cost per entry here) under the group's lock;
- when a buffer exceeds its threshold, the group is *compacted*: buffer
  and array are merged and the group model refit.  Compaction is handed
  to background threads (``trace.begin_background()``), which is why
  XIndex stays stable under hot-write workloads (Fig. 8b) while paying
  memory for buffers (Fig. 8a).
"""

from __future__ import annotations

import bisect
import threading
from typing import Sequence

import numpy as np

from repro.baselines.rmi import TwoStageRMI, _LinearModel
from repro.common import BatchIndex, OrderedIndex, SortedView, as_value_array, unique_tag
from repro.concurrency.version_lock import OptimisticLock, RestartException
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_ENTRY_BYTES = 16
_BUFFER_ENTRY_BYTES = 48  # masstree node amortization
_GROUP_HEADER_BYTES = 64


class _Group:
    """One XIndex leaf: modelled sorted array + delta buffer."""

    __slots__ = (
        "pivot",
        "keys",
        "values",
        "deleted",
        "model",
        "buf_keys",
        "buf_values",
        "lock",
        "span",
        "buf_span",
        "memory",
        "tag",
        "compactions",
    )

    def __init__(self, keys: np.ndarray, values: list, memory: MemoryMap, tag: str):
        self.pivot = int(keys[0]) if len(keys) else 0
        self.memory = memory
        self.tag = tag
        self.lock = OptimisticLock()
        self.buf_keys: list[int] = []
        self.buf_values: list = []
        self.deleted: set[int] = set()
        # XIndex pre-allocates every group's delta buffer at creation —
        # the space cost §II-C3 and Fig. 8a charge against it.
        self.buf_span = memory.alloc(_BUFFER_ENTRY_BYTES * 64, tag)
        self.span = None
        self.compactions = 0
        self._set_data(keys, values)

    def _set_data(self, keys: np.ndarray, values: list) -> None:
        self.keys = keys
        self.values = values
        xs = keys.astype(np.float64)
        ys = np.arange(len(keys), dtype=np.float64)
        self.model = _LinearModel.fit(xs, ys)
        if self.span is not None:
            self.span.free()
        self.span = self.memory.alloc(
            _GROUP_HEADER_BYTES + _ENTRY_BYTES * max(len(keys), 1), self.tag
        )

    # -- data-array search (prediction + ε-bounded secondary search) -----
    def find_in_array(self, key: int) -> int:
        n = len(self.keys)
        if n == 0:
            return -1
        pos = min(max(self.model.predict(float(key)), 0), n - 1)
        err = self.model.max_error
        lo = max(pos - err, 0)
        hi = min(pos + err + 1, n)
        t = current_tracer()
        if t is not None:
            t.model_calcs += 1
        keys = self.keys
        k64 = np.uint64(key)
        while lo < hi:
            mid = (lo + hi) // 2
            if t is not None:
                t.secondary_steps += 1
                t.comparisons += 1
                t.reads.append(self.span.line(_GROUP_HEADER_BYTES + mid * _ENTRY_BYTES))
            if keys[mid] < k64:
                lo = mid + 1
            else:
                hi = mid
        if lo < n and keys[lo] == k64:
            return lo
        return -1

    def find_in_buffer(self, key: int) -> int:
        """Delta-buffer lookup, costed as the masstree descent it is."""
        t = current_tracer()
        i = bisect.bisect_left(self.buf_keys, key)
        if t is not None and self.buf_keys:
            steps = max(len(self.buf_keys).bit_length(), 1)
            t.comparisons += steps
            t.nodes_visited += 2  # masstree: dependent node hops
            if self.buf_span is not None:
                span_entries = self.buf_span.nbytes // _BUFFER_ENTRY_BYTES
                for probe in range(min(steps, 3)):
                    t.reads.append(
                        self.buf_span.line(
                            ((i + probe * 7) % max(span_entries, 1))
                            * _BUFFER_ENTRY_BYTES
                        )
                    )
        if i < len(self.buf_keys) and self.buf_keys[i] == key:
            return i
        return -1

    def buffer_insert(self, key: int, value) -> bool:
        """Sorted insert into the delta buffer; True if key was new."""
        i = bisect.bisect_left(self.buf_keys, key)
        t = current_tracer()
        if t is not None:
            t.nodes_visited += 2  # masstree descent to the insert point
            t.writes.append(self.span.line(0))  # group header / lock word
            if self.buf_span is not None:
                t.writes.append(self.buf_span.line((i * _BUFFER_ENTRY_BYTES) % self.buf_span.nbytes))
                t.reads.append(self.buf_span.line(((i * 3) % max(self.buf_span.nbytes // _BUFFER_ENTRY_BYTES, 1)) * _BUFFER_ENTRY_BYTES % self.buf_span.nbytes))
        if i < len(self.buf_keys) and self.buf_keys[i] == key:
            self.buf_values[i] = value
            return False
        self.buf_keys.insert(i, key)
        self.buf_values.insert(i, value)
        if len(self.buf_keys) * _BUFFER_ENTRY_BYTES > self.buf_span.nbytes:
            self.buf_span.free()
            self.buf_span = self.memory.alloc(
                self.buf_span.nbytes * 2, self.tag
            )
        return True

    def compact(self) -> None:
        """Merge buffer into the data array and refit (background work)."""
        t = current_tracer()
        if t is not None:
            t.begin_background()
            for i in range(0, len(self.keys) + len(self.buf_keys), 4):
                t.reads.append(self.span.line(_GROUP_HEADER_BYTES + (i * _ENTRY_BYTES) % max(self.span.nbytes - _GROUP_HEADER_BYTES, 1)))
        merged_keys: list[int] = []
        merged_vals: list = []
        ia = ib = 0
        arr = self.keys
        while ia < len(arr) and ib < len(self.buf_keys):
            ka = int(arr[ia])
            kb = self.buf_keys[ib]
            if ka == kb:
                merged_keys.append(kb)
                merged_vals.append(self.buf_values[ib])
                ia += 1
                ib += 1
            elif ka < kb:
                merged_keys.append(ka)
                merged_vals.append(self.values[ia])
                ia += 1
            else:
                merged_keys.append(kb)
                merged_vals.append(self.buf_values[ib])
                ib += 1
        while ia < len(arr):
            merged_keys.append(int(arr[ia]))
            merged_vals.append(self.values[ia])
            ia += 1
        merged_keys.extend(self.buf_keys[ib:])
        merged_vals.extend(self.buf_values[ib:])
        if self.deleted:
            pairs = [
                (k, v) for k, v in zip(merged_keys, merged_vals) if k not in self.deleted
            ]
            merged_keys = [k for k, _ in pairs]
            merged_vals = [v for _, v in pairs]
            self.deleted.clear()
        self.buf_keys = []
        self.buf_values = []
        # The buffer's masstree stays allocated for future inserts —
        # the pre-allocation space cost Fig. 8a charges to XIndex.
        self._set_data(np.array(merged_keys, dtype=np.uint64), merged_vals)
        self.compactions += 1

    def live_items(self):
        """Sorted live (key, value) pairs: array merged with buffer."""
        ia = ib = 0
        arr, buf = self.keys, self.buf_keys
        while ia < len(arr) and ib < len(buf):
            ka, kb = int(arr[ia]), buf[ib]
            if ka == kb:
                if kb not in self.deleted:
                    yield kb, self.buf_values[ib]
                ia += 1
                ib += 1
            elif ka < kb:
                if ka not in self.deleted:
                    yield ka, self.values[ia]
                ia += 1
            else:
                if kb not in self.deleted:
                    yield kb, self.buf_values[ib]
                ib += 1
        while ia < len(arr):
            ka = int(arr[ia])
            if ka not in self.deleted:
                yield ka, self.values[ia]
            ia += 1
        while ib < len(buf):
            if buf[ib] not in self.deleted:
                yield buf[ib], self.buf_values[ib]
            ib += 1


class XIndex(OrderedIndex):
    """Concurrent XIndex with RMI root and per-group delta buffers."""

    NAME = "XIndex"

    def __init__(
        self,
        *,
        group_size: int = 64,
        buffer_threshold: int = 32,
        memory: MemoryMap | None = None,
        tag: str | None = None,
    ):
        self.group_size = group_size
        self.buffer_threshold = buffer_threshold
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("xindex")
        self._groups: list[_Group] = []
        self._root: TwoStageRMI | None = None
        self._pivots = np.empty(0, dtype=np.uint64)
        self._size = 0
        self._size_lock = threading.Lock()
        # The batch fast path's view, invalidated when a buffer entry
        # appears/disappears or a group compacts (value updates and
        # deleted-set changes are read live).
        self._view = SortedView(self._group_parts)

    @classmethod
    def bulk_load(
        cls, keys: np.ndarray, values: Sequence | None = None, **options
    ) -> "XIndex":
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        index = cls(**options)
        g = index.group_size
        for start in range(0, len(keys), g):
            chunk = keys[start : start + g]
            index._groups.append(
                _Group(chunk, list(values[start : start + g]), index._memory, index.mem_tag)
            )
        if not index._groups:
            index._groups.append(
                _Group(np.empty(0, dtype=np.uint64), [], index._memory, index.mem_tag)
            )
        index._rebuild_root()
        index._size = len(keys)
        return index

    def _rebuild_root(self) -> None:
        self._pivots = np.array([g.pivot for g in self._groups], dtype=np.uint64)
        self._root = TwoStageRMI(
            self._pivots,
            max(len(self._groups) // 64, 1),
            self._memory,
            f"{self.mem_tag}/root",
        )

    def _group_for(self, key: int) -> _Group:
        rank = self._root.position_for(key)
        return self._groups[max(rank - 1, 0)]

    # -- operations ------------------------------------------------------
    def get(self, key: int):
        while True:
            try:
                group = self._group_for(key)
                version = group.lock.read_lock_or_restart()
                i = group.find_in_array(key)
                if i >= 0:
                    if key in group.deleted:
                        group.lock.read_unlock_or_restart(version)
                        return None
                    value = group.values[i]
                    group.lock.read_unlock_or_restart(version)
                    return value
                j = group.find_in_buffer(key)
                value = group.buf_values[j] if j >= 0 else None
                group.lock.read_unlock_or_restart(version)
                return value
            except RestartException:
                continue

    def _group_parts(self):
        """One sorted part per group: its data array merged with its
        delta buffer, buffer position ``b`` encoded as slot ``-(b + 1)``.
        Groups partition the key space in order, so sorting within each
        group is enough for the whole view to be sorted."""
        for g in self._groups:
            slots = np.arange(len(g.keys), dtype=np.int64)
            if not g.buf_keys:
                yield g, g.keys, slots
                continue
            keys = np.concatenate([g.keys, np.array(g.buf_keys, dtype=np.uint64)])
            slots = np.concatenate([slots, -np.arange(1, len(g.buf_keys) + 1)])
            order = np.argsort(keys)
            yield g, keys[order], slots[order]

    def batch_get(self, keys) -> list:
        """Vectorized lookup: one ``searchsorted`` over the sorted view of
        group arrays and delta buffers resolves the whole batch (the
        RMI's ``position_for`` group locate is subsumed — a key is only
        ever stored in the group it routes to).  Delegates to the scalar
        loop under an active tracer (trace equivalence).
        """
        if current_tracer() is not None:
            return BatchIndex.batch_get(self, keys)
        keys = np.asarray(keys, dtype=np.uint64)
        out: list = [None] * len(keys)
        hit_i, groups, slots = self._view.find(keys)
        keys_l = keys.tolist()
        for i, g, s in zip(hit_i.tolist(), groups, slots):
            if s < 0:
                out[i] = g.buf_values[-s - 1]
            elif keys_l[i] not in g.deleted:
                out[i] = g.values[s]
        return out

    def insert(self, key: int, value) -> bool:
        while True:
            group = self._group_for(key)
            try:
                group.lock.write_lock_or_restart()
            except RestartException:
                continue
            try:
                i = group.find_in_array(key)
                if i >= 0 and key not in group.deleted:
                    group.values[i] = value
                    return False
                if i >= 0:
                    group.deleted.discard(key)
                    group.values[i] = value
                    self._bump(1)
                    return True
                new = group.buffer_insert(key, value)
                if new:
                    self._view.invalidate()
                if len(group.buf_keys) >= self.buffer_threshold:
                    group.compact()
                    self._view.invalidate()
                if new:
                    self._bump(1)
                return new
            finally:
                group.lock.write_unlock()

    def remove(self, key: int) -> bool:
        while True:
            group = self._group_for(key)
            try:
                group.lock.write_lock_or_restart()
            except RestartException:
                continue
            try:
                i = group.find_in_array(key)
                if i >= 0 and key not in group.deleted:
                    group.deleted.add(key)
                    self._bump(-1)
                    return True
                j = group.find_in_buffer(key)
                if j >= 0:
                    del group.buf_keys[j]
                    del group.buf_values[j]
                    self._view.invalidate()
                    self._bump(-1)
                    return True
                return False
            finally:
                group.lock.write_unlock()

    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        rank = self._root.position_for(lo)
        gi = max(rank - 1, 0)
        out: list[tuple[int, object]] = []
        if count <= 0:
            return out
        t = current_tracer()
        for group in self._groups[gi:]:
            for n_seen, (k, v) in enumerate(group.live_items()):
                if t is not None and n_seen % 4 == 0:
                    t.reads.append(
                        group.span.line(
                            _GROUP_HEADER_BYTES
                            + (n_seen * _ENTRY_BYTES)
                            % max(group.span.nbytes - _GROUP_HEADER_BYTES, 1)
                        )
                    )
                if k < lo:
                    continue
                out.append((k, v))
                if len(out) >= count:
                    return out
        return out

    def _bump(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def __len__(self) -> int:
        return self._size

    def stats(self) -> dict:
        return {
            "groups": len(self._groups),
            "model_count": len(self._groups),
            "buffered": sum(len(g.buf_keys) for g in self._groups),
            "compactions": sum(g.compactions for g in self._groups),
            "max_group_error": max((g.model.max_error for g in self._groups), default=0),
            "memory_bytes": self.memory_bytes(),
        }
