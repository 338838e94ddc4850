"""A B+-tree reference baseline.

Not part of the paper's competitor set (its Table I compares against a
B-tree only implicitly, via the learned-index literature's 1.5-3×
claims), but useful as a sanity baseline for tests and the ablation
benches: a learned index that cannot beat a B+-tree at lookups is
mis-implemented.

Order-64 nodes, top-down traversal with per-node versioned locks, linked
leaves for scans.  Node memory is modeled at 16 bytes per entry plus a
64-byte header.
"""

from __future__ import annotations

import bisect
import threading
from typing import Sequence

import numpy as np

from repro.common import OrderedIndex, as_value_array, unique_tag
from repro.concurrency.version_lock import OptimisticLock
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_ORDER = 64
_HEADER_BYTES = 64
_ENTRY_BYTES = 16


class _BNode:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf", "span", "lock")

    def __init__(self, is_leaf: bool, memory: MemoryMap, tag: str):
        self.keys: list[int] = []
        self.children: list["_BNode"] = []
        self.values: list = []
        self.next_leaf: "_BNode | None" = None
        self.is_leaf = is_leaf
        self.span = memory.alloc(_HEADER_BYTES + _ORDER * _ENTRY_BYTES, tag)
        self.lock = OptimisticLock()

    def trace_visit(self) -> None:
        t = current_tracer()
        if t is not None:
            t.nodes_visited += 1
            t.comparisons += max(len(self.keys).bit_length(), 1)
            t.reads.append(self.span.line(0))
            t.reads.append(self.span.line(_HEADER_BYTES))


class BPlusTreeIndex(OrderedIndex):
    """An order-64 B+-tree with linked leaves."""

    NAME = "B+tree"

    def __init__(self, *, memory: MemoryMap | None = None, tag: str | None = None):
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("btree")
        self._root = _BNode(True, self._memory, self.mem_tag)
        self._size = 0
        self._lock = threading.RLock()

    @classmethod
    def bulk_load(
        cls, keys: np.ndarray, values: Sequence | None = None, **options
    ) -> "BPlusTreeIndex":
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        index = cls(**options)
        # Bottom-up build: pack leaves at ~80% fill, then stack parents.
        fill = int(_ORDER * 0.8)
        leaves: list[_BNode] = []
        for start in range(0, len(keys), fill):
            leaf = _BNode(True, index._memory, index.mem_tag)
            leaf.keys = [int(k) for k in keys[start : start + fill]]
            leaf.values = list(values[start : start + fill])
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        level: list[_BNode] = leaves or [index._root]
        mins: list[int] = [leaf.keys[0] for leaf in leaves] if leaves else [0]
        while len(level) > 1:
            parents: list[_BNode] = []
            parent_mins: list[int] = []
            for start in range(0, len(level), fill):
                group = level[start : start + fill]
                parent = _BNode(False, index._memory, index.mem_tag)
                parent.children = group
                # Separators are subtree minima, not inner-node keys[0].
                parent.keys = mins[start + 1 : start + len(group)]
                parents.append(parent)
                parent_mins.append(mins[start])
            level = parents
            mins = parent_mins
        index._root = level[0]
        index._size = len(keys)
        return index

    def _leaf_for(self, key: int) -> _BNode:
        node = self._root
        while not node.is_leaf:
            node.trace_visit()
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        node.trace_visit()
        return node

    def get(self, key: int):
        leaf = self._leaf_for(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.values[i]
        return None

    def insert(self, key: int, value) -> bool:
        with self._lock:
            new = self._insert_rec(self._root, key, value)
            if new is False:
                return False
            if new is not True:  # (separator, right) — root split
                sep, right = new
                root = _BNode(False, self._memory, self.mem_tag)
                root.keys = [sep]
                root.children = [self._root, right]
                self._root = root
            self._size += 1
            return True

    def _insert_rec(self, node: _BNode, key: int, value):
        """True=new, False=updated, (sep, right)=split propagation."""
        t = current_tracer()
        if node.is_leaf:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i] = value
                return False
            node.keys.insert(i, key)
            node.values.insert(i, value)
            if t is not None:
                t.writes.append(node.span.line(_HEADER_BYTES + (i * _ENTRY_BYTES) % (_ORDER * _ENTRY_BYTES)))
                t.slots_shifted += len(node.keys) - i
            if len(node.keys) > _ORDER:
                return self._split_leaf(node)
            return True
        i = bisect.bisect_right(node.keys, key)
        result = self._insert_rec(node.children[i], key, value)
        if result is True or result is False:
            return result
        sep, right = result
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if t is not None:
            t.writes.append(node.span.line(0))
        if len(node.keys) > _ORDER:
            return self._split_inner(node)
        return True

    def _split_leaf(self, node: _BNode):
        mid = len(node.keys) // 2
        right = _BNode(True, self._memory, self.mem_tag)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_inner(self, node: _BNode):
        mid = len(node.keys) // 2
        right = _BNode(False, self._memory, self.mem_tag)
        sep = node.keys[mid]
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    def remove(self, key: int) -> bool:
        with self._lock:
            leaf = self._leaf_for(key)
            i = bisect.bisect_left(leaf.keys, key)
            if i < len(leaf.keys) and leaf.keys[i] == key:
                del leaf.keys[i]
                del leaf.values[i]
                self._size -= 1
                return True
            return False

    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        leaf = self._leaf_for(lo)
        out: list[tuple[int, object]] = []
        i = bisect.bisect_left(leaf.keys, lo)
        t = current_tracer()
        while leaf is not None and len(out) < count:
            if t is not None:
                t.reads.append(leaf.span.line(_HEADER_BYTES))
            while i < len(leaf.keys) and len(out) < count:
                out.append((leaf.keys[i], leaf.values[i]))
                i += 1
            leaf = leaf.next_leaf
            i = 0
        return out

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        h = 1
        node = self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    def stats(self) -> dict:
        return {"height": self.height(), "memory_bytes": self.memory_bytes()}
