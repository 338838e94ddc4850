"""LIPP+ (Wu et al., VLDB 2021; concurrent variant of Wongkham et al.).

LIPP stores every key at its *precise* model-predicted position — no
secondary search at all.  When two keys predict the same slot, the slot
becomes a pointer to a child node built over just the conflicting keys
(recursively), so lookups are a pure pointer chase.

The concurrent variant's weakness, reproduced here, is its **statistics
maintenance**: every insert increments ``num_inserts`` (and on conflict
``num_conflicts``) in the header of *every node on the descent path* —
including the root.  Those counter updates are traced as writes to the
node header cache lines, so under the simulator all 32 virtual threads
keep invalidating each other's copy of the root header, which is exactly
the cache-invalidation bottleneck Table I and §II-B attribute to LIPP+.

Subtree rebuilds (the FMCD readjustment) trigger when a node has
absorbed as many inserts as its build size; rebuild work is charged to
the foreground thread (LIPP+ has no background threads — Fig. 8b).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.common import OrderedIndex, as_value_array, unique_tag
from repro.concurrency.version_lock import OptimisticLock, RestartException
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_ENTRY_BYTES = 24  # key + value/pointer + type/version byte, padded
_HEADER_BYTES = 64
_GAP_FACTOR = 2.0
_MIN_NODE = 4
_REBUILD_MIN = 64


class _LippNode:
    """A LIPP node: linear model + entry array (EMPTY / DATA / CHILD)."""

    __slots__ = (
        "slope",
        "base",
        "size",
        "entries",
        "span",
        "lock",
        "num_inserts",
        "num_conflicts",
        "build_size",
    )

    def __init__(self, keys: list[int], vals: list, memory: MemoryMap, tag: str):
        n = len(keys)
        self.size = max(int(n * _GAP_FACTOR), _MIN_NODE)
        self.entries: list = [None] * self.size
        self.lock = OptimisticLock()
        self.num_inserts = 0
        self.num_conflicts = 0
        self.build_size = n
        self.span = memory.alloc(
            _HEADER_BYTES + self.size * _ENTRY_BYTES, tag
        )
        # FMCD-style ramp anchored at the first key (first -> slot 0,
        # last -> slot size-1); relative arithmetic avoids float64
        # cancellation on 2^62-scale keys.
        self.base = keys[0] if n else 0
        if n >= 2 and keys[-1] != keys[0]:
            self.slope = (self.size - 1) / (keys[-1] - keys[0])
        else:
            self.slope = 0.0
        # Group keys by predicted slot; conflict groups become children.
        i = 0
        while i < n:
            s = self.predict(keys[i])
            j = i + 1
            while j < n and self.predict(keys[j]) == s:
                j += 1
            if j - i == 1:
                self.entries[s] = (keys[i], vals[i])
            else:
                self.entries[s] = _LippNode(keys[i:j], vals[i:j], memory, tag)
                self.num_conflicts += j - i
            i = j

    def predict(self, key: int) -> int:
        s = int(self.slope * (key - self.base))
        if s < 0:
            return 0
        if s >= self.size:
            return self.size - 1
        return s

    def entry_line(self, slot: int) -> int:
        return self.span.line(_HEADER_BYTES + slot * _ENTRY_BYTES)

    def items(self):
        for e in self.entries:
            if e is None:
                continue
            if isinstance(e, _LippNode):
                yield from e.items()
            else:
                yield e

    def count_nodes(self) -> int:
        return 1 + sum(
            e.count_nodes() for e in self.entries if isinstance(e, _LippNode)
        )

    def total_slots(self) -> int:
        return self.size + sum(
            e.total_slots() for e in self.entries if isinstance(e, _LippNode)
        )

    def free_recursive(self) -> None:
        self.span.free()
        for e in self.entries:
            if isinstance(e, _LippNode):
                e.free_recursive()


class LippIndex(OrderedIndex):
    """Concurrent LIPP with per-node statistics counters."""

    NAME = "LIPP+"

    def __init__(self, *, memory: MemoryMap | None = None, tag: str | None = None):
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("lipp")
        self._root: _LippNode | None = None
        self._size = 0
        self._size_lock = threading.Lock()
        self.rebuilds = 0

    @classmethod
    def bulk_load(
        cls, keys: np.ndarray, values: Sequence | None = None, **options
    ) -> "LippIndex":
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        index = cls(**options)
        index._root = _LippNode(
            [int(k) for k in keys], list(values), index._memory, index.mem_tag
        )
        index._size = len(keys)
        return index

    # -- operations -----------------------------------------------------
    def get(self, key: int):
        node = self._root
        t = current_tracer()
        while node is not None:
            s = node.predict(key)
            if t is not None:
                t.model_calcs += 1
                t.nodes_visited += 1
                t.reads.append(node.span.line(0))
                t.reads.append(node.entry_line(s))
            e = node.entries[s]
            if e is None:
                return None
            if isinstance(e, _LippNode):
                node = e
                continue
            return e[1] if e[0] == key else None
        return None

    def insert(self, key: int, value) -> bool:
        while True:
            try:
                return self._insert(key, value)
            except RestartException:
                continue

    def _insert(self, key: int, value) -> bool:
        node = self._root
        t = current_tracer()
        path: list[_LippNode] = []
        while True:
            path.append(node)
            # Statistics maintenance: header counter write on EVERY node
            # of the descent path (the LIPP+ scalability bottleneck).
            node.num_inserts += 1
            if t is not None:
                t.atomic_rmw += 1
                t.writes.append(node.span.line(0))
            s = node.predict(key)
            e = node.entries[s]
            if e is None:
                node.lock.write_lock_or_restart()
                if node.entries[s] is not None:
                    node.lock.write_unlock()
                    raise RestartException
                node.entries[s] = (key, value)
                node.lock.write_unlock()
                if t is not None:
                    t.writes.append(node.entry_line(s))
                self._bump(1)
                self._maybe_rebuild(path)
                return True
            if isinstance(e, _LippNode):
                if t is not None:
                    t.nodes_visited += 1
                    t.reads.append(node.entry_line(s))
                node = e
                continue
            if e[0] == key:
                node.lock.write_lock_or_restart()
                node.entries[s] = (key, value)
                node.lock.write_unlock()
                if t is not None:
                    t.writes.append(node.entry_line(s))
                return False
            # DATA conflict: segregate both keys into a new child node
            # (40.7% of LIPP insert cost per §II-B).
            node.lock.write_lock_or_restart()
            if node.entries[s] is not e:
                node.lock.write_unlock()
                raise RestartException
            pair = sorted([e, (key, value)])
            child = _LippNode(
                [p[0] for p in pair],
                [p[1] for p in pair],
                self._memory,
                self.mem_tag,
            )
            node.entries[s] = child
            node.num_conflicts += 1
            node.lock.write_unlock()
            if t is not None:
                t.writes.append(node.entry_line(s))
            self._bump(1)
            self._maybe_rebuild(path)
            return True

    def _maybe_rebuild(self, path: list[_LippNode]) -> None:
        """FMCD readjustment: rebuild the deepest crowded subtree."""
        for i in range(len(path) - 1, -1, -1):
            node = path[i]
            if (
                node.build_size >= _REBUILD_MIN
                and node.num_inserts > node.build_size
            ):
                self._rebuild_at(path, i, node)
                return

    def _rebuild_at(self, path: list[_LippNode], i: int, node: _LippNode) -> None:
        try:
            node.lock.write_lock_or_restart()
        except RestartException:
            return
        try:
            pairs = sorted(node.items())
            rebuilt = _LippNode(
                [k for k, _ in pairs],
                [v for _, v in pairs],
                self._memory,
                self.mem_tag,
            )
            if i == 0:
                old = self._root
                self._root = rebuilt
                old.span.free()
            else:
                parent = path[i - 1]
                s = parent.predict(pairs[0][0])
                if parent.entries[s] is node:
                    parent.entries[s] = rebuilt
                    node.span.free()
            self.rebuilds += 1
            t = current_tracer()
            if t is not None:
                # Rebuild reads and rewrites the whole subtree.
                for j in range(0, len(pairs), 2):
                    t.reads.append(rebuilt.entry_line((j * 2) % rebuilt.size))
                    t.writes.append(rebuilt.entry_line((j * 2 + 1) % rebuilt.size))
        finally:
            node.lock.write_unlock()

    def remove(self, key: int) -> bool:
        node = self._root
        t = current_tracer()
        while node is not None:
            s = node.predict(key)
            e = node.entries[s]
            if e is None:
                return False
            if isinstance(e, _LippNode):
                node = e
                continue
            if e[0] != key:
                return False
            try:
                node.lock.write_lock_or_restart()
            except RestartException:
                continue
            node.entries[s] = None
            node.lock.write_unlock()
            if t is not None:
                t.writes.append(node.entry_line(s))
            self._bump(-1)
            return True
        return False

    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        out: list[tuple[int, object]] = []
        if count > 0:
            self._scan(self._root, lo, count, out)
        return out

    def _scan(self, node: _LippNode, lo: int, count: int, out: list) -> None:
        # The model is monotone: no slot before predict(lo) can hold a
        # key >= lo, so the scan starts there.
        t = current_tracer()
        for s in range(node.predict(lo), node.size):
            if len(out) >= count:
                return
            e = node.entries[s]
            if t is not None and s % 2 == 0:
                t.reads.append(node.entry_line(s))
            if e is None:
                continue
            if isinstance(e, _LippNode):
                if t is not None:
                    t.nodes_visited += 1
                self._scan(e, lo, count, out)
            elif e[0] >= lo:
                out.append(e)

    def _bump(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def __len__(self) -> int:
        return self._size

    def stats(self) -> dict:
        root = self._root
        return {
            "nodes": root.count_nodes() if root else 0,
            "model_count": root.count_nodes() if root else 0,
            "total_slots": root.total_slots() if root else 0,
            "rebuilds": self.rebuilds,
            "memory_bytes": self.memory_bytes(),
        }
