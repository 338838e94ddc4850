"""ALEX+ (Ding et al., SIGMOD 2020; concurrent variant of Wongkham et al.,
VLDB 2022): gapped data nodes, exponential search, data shifting, splits.

Data nodes are *gapped arrays*: keys are spread at build density ~0.7 so
most inserts land in a nearby gap.  Lookups predict a slot with the
node's linear model and correct it with exponential search (ALEX's
secondary search).  Inserting into an occupied slot shifts entries
toward the nearest gap — the **data-shifting** cost that gives ALEX+ its
high tail latency on hard datasets (Table I, Fig. 7): every shifted slot
is a traced cache-line write.  A node whose density exceeds the split
threshold splits in two under the directory lock (the structure-
modification collisions the paper blames for ALEX+'s osm throughput).

Following the flattened evaluation scale here, the model-node hierarchy
is collapsed into one directory of data nodes routed by binary search;
node-internal behaviour (the part the paper measures) is faithful.
Gap slots duplicate their left neighbour's key (as in ALEX) so the slot
array stays sorted and exponential/binary search works directly on it.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.baselines.rmi import _LinearModel
from repro.common import OrderedIndex, as_value_array, unique_tag
from repro.concurrency.version_lock import OptimisticLock, RestartException
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_SLOT_BYTES = 16
_HEADER_BYTES = 64
_BUILD_DENSITY = 0.7
_SPLIT_DENSITY = 0.8
_MIN_SLOTS = 16
_MAX_NODE_KEYS = 512


class _DataNode:
    """One gapped-array leaf of ALEX."""

    __slots__ = (
        "slots",
        "vals",
        "occ",
        "model",
        "n_slots",
        "num_keys",
        "lock",
        "span",
        "first_key",
    )

    def __init__(self, keys: list[int], vals: list, memory: MemoryMap, tag: str):
        n = len(keys)
        self.n_slots = max(int(n / _BUILD_DENSITY) + 1, _MIN_SLOTS)
        self.slots: list[int] = [0] * self.n_slots
        self.vals: list = [None] * self.n_slots
        self.occ: list[bool] = [False] * self.n_slots
        self.num_keys = n
        self.first_key = keys[0] if n else 0
        self.lock = OptimisticLock()
        self.span = memory.alloc(
            _HEADER_BYTES + self.n_slots * _SLOT_BYTES, tag
        )
        # ALEX data nodes are density-homogeneous (the fanout tree picks
        # boundaries so the node model matches local density), which
        # makes model-based placement nearly collision-free.  The
        # equivalent here: spread keys at even rank spacing — every key
        # has a gap within ~2 slots, so shifts stay short — and fit the
        # node's search model to those positions; exponential search
        # then pays the node's local CDF non-linearity, exactly ALEX's
        # behaviour (cheap on near-linear data, expensive on osm).
        positions = [i * self.n_slots // max(n, 1) for i in range(n)]
        for i, key in enumerate(keys):
            s = positions[i]
            self.slots[s] = key
            self.vals[s] = vals[i]
            self.occ[s] = True
        # Gap slots copy their left neighbour (leading gaps copy the
        # first key) so the array is sorted end to end.
        carry = self.first_key
        for s in range(self.n_slots):
            if self.occ[s]:
                carry = self.slots[s]
            else:
                self.slots[s] = carry
        if n:
            self.model = _LinearModel.fit(
                np.array(keys, dtype=np.float64),
                np.array(positions, dtype=np.float64),
            )
        else:
            self.model = _LinearModel(0.0, 0.0, 0.0, 0)

    # -- search ------------------------------------------------------------
    def _slot_line(self, s: int) -> int:
        return self.span.line(_HEADER_BYTES + s * _SLOT_BYTES)

    def lower_bound(self, key: int) -> int:
        """Leftmost slot with value >= key, rolled onto an occupied slot
        when an equal run starts with gap copies.  Exponential search
        around the model prediction, every probe traced."""
        n = self.n_slots
        pred = min(max(self.model.predict(float(key)), 0), n - 1)
        t = current_tracer()
        if t is not None:
            t.model_calcs += 1
            t.reads.append(self._slot_line(pred))
        slots = self.slots
        if slots[pred] >= key:
            # Expand left until slots[lo] < key or lo == 0.
            radius = 1
            lo = pred
            while lo > 0 and slots[lo] >= key:
                lo = max(pred - radius, 0)
                radius *= 2
                if t is not None:
                    t.secondary_steps += 1
                    t.reads.append(self._slot_line(lo))
            hi = pred
        else:
            radius = 1
            hi = pred
            while hi < n - 1 and slots[hi] < key:
                hi = min(pred + radius, n - 1)
                radius *= 2
                if t is not None:
                    t.secondary_steps += 1
                    t.reads.append(self._slot_line(hi))
            lo = pred
            if slots[hi] < key:
                return n  # key beyond every slot
        while lo < hi:
            mid = (lo + hi) // 2
            if t is not None:
                t.secondary_steps += 1
                t.comparisons += 1
                t.reads.append(self._slot_line(mid))
            if slots[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        s = lo
        while s < n and slots[s] == key and not self.occ[s]:
            s += 1
            if t is not None:
                t.reads.append(self._slot_line(s if s < n else n - 1))
        return s

    def get(self, key: int):
        s = self.lower_bound(key)
        if s < self.n_slots and self.occ[s] and self.slots[s] == key:
            return self.vals[s]
        return None

    # -- insert with data shifting ------------------------------------------
    def insert(self, key: int, value) -> tuple[bool, bool]:
        """(newly_inserted, needs_split).  Caller holds the node lock."""
        t = current_tracer()
        s = self.lower_bound(key)
        n = self.n_slots
        if s < n and self.occ[s] and self.slots[s] == key:
            self.vals[s] = value
            if t is not None:
                t.writes.append(self._slot_line(s))
            return False, False
        if self.num_keys >= int(n * _SPLIT_DENSITY) or self.num_keys >= _MAX_NODE_KEYS:
            return True, True  # split first, then retry

        # Find the nearest gap on each side of the insertion point.
        gl = s - 1
        while gl >= 0 and self.occ[gl]:
            gl -= 1
        gr = s
        while gr < n and self.occ[gr]:
            gr += 1
        if gl < 0 and gr >= n:
            return True, True  # no gap reachable: force a split
        use_left = gl >= 0 and (gr >= n or (s - 1 - gl) <= (gr - s))

        if use_left:
            # Shift (gl, s-1] one slot left; place at s-1.
            for i in range(gl, s - 1):
                self.slots[i] = self.slots[i + 1]
                self.vals[i] = self.vals[i + 1]
                self.occ[i] = self.occ[i + 1]
                if t is not None:
                    t.slots_shifted += 1
                    t.writes.append(self._slot_line(i))
            target = s - 1
        else:
            # Shift [s, gr) one slot right; place at s.
            for i in range(gr, s, -1):
                self.slots[i] = self.slots[i - 1]
                self.vals[i] = self.vals[i - 1]
                self.occ[i] = self.occ[i - 1]
                if t is not None:
                    t.slots_shifted += 1
                    t.writes.append(self._slot_line(i))
            target = s
        self.slots[target] = key
        self.vals[target] = value
        self.occ[target] = True
        self.num_keys += 1
        if t is not None:
            t.writes.append(self._slot_line(target))
            t.writes.append(self.span.line(0))  # header: count + lock word
        return True, False

    def remove(self, key: int) -> bool:
        s = self.lower_bound(key)
        if s < self.n_slots and self.occ[s] and self.slots[s] == key:
            self.occ[s] = False  # key value stays behind as a gap copy
            self.vals[s] = None
            self.num_keys -= 1
            t = current_tracer()
            if t is not None:
                t.writes.append(self._slot_line(s))
            return True
        return False

    def items(self):
        for s in range(self.n_slots):
            if self.occ[s]:
                yield self.slots[s], self.vals[s]

    def split(self, memory: MemoryMap, tag: str) -> tuple["_DataNode", "_DataNode"]:
        pairs = list(self.items())
        mid = len(pairs) // 2
        left = _DataNode([k for k, _ in pairs[:mid]], [v for _, v in pairs[:mid]], memory, tag)
        right = _DataNode([k for k, _ in pairs[mid:]], [v for _, v in pairs[mid:]], memory, tag)
        return left, right

    def free(self) -> None:
        self.span.free()


class AlexIndex(OrderedIndex):
    """ALEX+ with a flattened directory of gapped data nodes."""

    NAME = "ALEX+"

    def __init__(self, *, memory: MemoryMap | None = None, tag: str | None = None):
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("alex")
        # The directory: data nodes in key order and their first keys,
        # published together as one tuple (never mutated in place) so a
        # reader that loads it once routes against a consistent pair.
        self._dir: tuple[list[_DataNode], np.ndarray] = (
            [], np.empty(0, dtype=np.uint64)
        )
        self._dir_lock = OptimisticLock()
        self._dir_span = None
        self._size = 0
        self._size_lock = threading.Lock()
        self.splits = 0

    @classmethod
    def bulk_load(
        cls, keys: np.ndarray, values: Sequence | None = None, **options
    ) -> "AlexIndex":
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        index = cls(**options)
        step = _MAX_NODE_KEYS // 2
        nodes = []
        for start in range(0, len(keys), step):
            chunk = [int(k) for k in keys[start : start + step]]
            vals = list(values[start : start + step])
            nodes.append(_DataNode(chunk, vals, index._memory, index.mem_tag))
        if not nodes:
            nodes.append(_DataNode([], [], index._memory, index.mem_tag))
        index._publish(nodes)
        index._size = len(keys)
        return index

    def _publish(self, nodes: list[_DataNode]) -> None:
        """Install a new directory over ``nodes`` (a fresh list)."""
        if self._dir_span is not None:
            self._dir_span.free()
        self._dir_span = self._memory.alloc(
            max(len(nodes) * 8, 8), f"{self.mem_tag}/dir"
        )
        self._dir = (nodes, np.array([n.first_key for n in nodes], dtype=np.uint64))

    def _node_for(self, key: int) -> _DataNode:
        t = current_tracer()
        nodes, first_keys = self._dir
        i = int(np.searchsorted(first_keys, np.uint64(key), side="right")) - 1
        i = max(i, 0)
        if t is not None:
            steps = max(len(nodes).bit_length(), 1)
            t.model_calcs += 1
            t.comparisons += steps
            for probe in range(min(steps, 4)):
                t.reads.append(self._dir_span.line(((i >> probe) * 8) % self._dir_span.nbytes))
        return nodes[i]

    # -- operations ------------------------------------------------------------
    def get(self, key: int):
        while True:
            try:
                node = self._node_for(key)
                version = node.lock.read_lock_or_restart()
                value = node.get(key)
                node.lock.read_unlock_or_restart(version)
                return value
            except RestartException:
                continue

    def insert(self, key: int, value) -> bool:
        while True:
            node = self._node_for(key)
            try:
                node.lock.write_lock_or_restart()
            except RestartException:
                continue
            try:
                new, needs_split = node.insert(key, value)
            finally:
                node.lock.write_unlock()
            if not needs_split:
                if new:
                    self._bump(1)
                return new
            self._split_node(node)

    def _split_node(self, node: _DataNode) -> None:
        """Split under the directory lock (SMO collision point)."""
        try:
            self._dir_lock.write_lock_or_restart()
        except RestartException:
            return  # another thread is splitting; retry the insert
        try:
            try:
                node.lock.write_lock_or_restart()
            except RestartException:
                return
            nodes = self._dir[0]
            try:
                i = nodes.index(node)
            except ValueError:
                node.lock.write_unlock()
                return  # already replaced
            left, right = node.split(self._memory, self.mem_tag)
            self._publish(nodes[:i] + [left, right] + nodes[i + 1 :])
            self.splits += 1
            t = current_tracer()
            if t is not None:
                t.writes.append(self._dir_span.line(0))
            node.lock.write_unlock_obsolete()
            node.free()
        finally:
            self._dir_lock.write_unlock()

    def remove(self, key: int) -> bool:
        while True:
            node = self._node_for(key)
            try:
                node.lock.write_lock_or_restart()
            except RestartException:
                continue
            try:
                removed = node.remove(key)
            finally:
                node.lock.write_unlock()
            if removed:
                self._bump(-1)
            return removed

    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        nodes, first_keys = self._dir
        i = max(int(np.searchsorted(first_keys, np.uint64(lo), side="right")) - 1, 0)
        out: list[tuple[int, object]] = []
        if count <= 0:
            return out
        t = current_tracer()
        first = True
        for node in nodes[i:]:
            # First node: jump to lo's slot; gapped arrays scan densely.
            start = node.lower_bound(lo) if first else 0
            first = False
            for s in range(start, node.n_slots):
                if t is not None and s % 4 == 0:
                    t.reads.append(node._slot_line(s))
                if not node.occ[s]:
                    continue
                k = node.slots[s]
                if k < lo:
                    continue
                out.append((k, node.vals[s]))
                if len(out) >= count:
                    return out
        return out

    def _bump(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def __len__(self) -> int:
        return self._size

    def stats(self) -> dict:
        nodes = self._dir[0]
        return {
            "data_nodes": len(nodes),
            "model_count": len(nodes),
            "splits": self.splits,
            "avg_density": (
                sum(n.num_keys for n in nodes) / max(sum(n.n_slots for n in nodes), 1)
            ),
            "memory_bytes": self.memory_bytes(),
        }
