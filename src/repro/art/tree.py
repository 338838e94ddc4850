"""Concurrent Adaptive Radix Tree with optimistic lock coupling.

Implements the full ART of Leis et al. (ICDE 2013) — adaptive node types,
pessimistic path compression, lazy leaf expansion — synchronized with the
optimistic-lock-coupling protocol of "The ART of practical synchronization"
(DaMoN 2016), which the paper uses for its ART-OPT layer (§III-E).

Additions required by ALT-index:

- every node carries ``match_level`` (§III-C2): the number of key bytes
  already consumed above the node, so a lookup entering mid-tree through a
  fast pointer knows where to resume comparing;
- ``search_from(node, key)`` / ``insert_from(node, key, value)`` start the
  descent at an intermediate node;
- structure-modification callbacks: whenever a node object is replaced
  (growth, shrink, path-compression merge) or acquires a new parent
  (prefix extraction), registered listeners get ``(old_node, new_node)``
  so fast pointers can be repaired (§III-C3 scenarios ① and ②);
- ``common_ancestor(k1, k2)`` finds the deepest node shared by two keys'
  lookup footprints, used to build fast pointers;
- ``sorted_view()`` hands batch readers a sorted numpy view of the whole
  tree, patched from a change delta instead of re-walked after writes.

Writers acquire node write locks via non-blocking upgrade and restart on
failure, so the protocol is deadlock-free; readers never write shared
state.  A writer frees the node it replaces at once: CPython refcounting
keeps the object alive while a reader still holds it, and ``free()`` only
returns the node's modeled span to the memory map.  All operations
record cache-line touches and node visits into the ambient cost trace.

Restarts are *bounded* (Leis et al. assume this; we enforce it): every
public operation runs its restart loop through a
:class:`repro.concurrency.retry.BoundedRetry` policy.  After
``fallback_after`` optimistic restarts the operation degrades gracefully
to pessimism — it serializes through the tree's fallback lock so at most
one aggressive retrier runs at a time, breaking writer-writer livelock;
fallbacks are counted in :attr:`repro.sim.trace.CostTrace.fallbacks`.
Chaos interleaving points (:func:`repro.chaos.point`) mark each descent
step and lock transition for deterministic schedule exploration.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import islice
from typing import Callable, Iterator, Optional

import numpy as np

from repro import chaos
from repro.art.nodes import (
    KEY_BYTES,
    Leaf,
    Node,
    Node4,
    Node16,
    Node48,
    Node256,
    common_prefix_len,
    encode_key,
)
from repro.common import sorted_hits
from repro.concurrency.epoch import EpochManager
from repro.concurrency.retry import (
    DEFAULT_RETRY,
    BoundedRetry,
    RetryState,
    acquire_cooperative,
)
from repro.concurrency.version_lock import OptimisticLock, RestartException
from repro.sim.trace import MemoryMap, active_tracer, global_memory

_HEADER = 16

ReplaceListener = Callable[[object, object], None]

# Delta marker for a key removed since the last sorted view.
_REMOVED = object()


class AdaptiveRadixTree:
    """A concurrent ART over unsigned 64-bit integer keys.

    Parameters
    ----------
    memory:
        Modeled memory map for node allocations (defaults to the global
        map).
    tag:
        Allocation tag, letting multiple indexes account memory separately.
    """

    def __init__(
        self,
        memory: MemoryMap | None = None,
        tag: str = "art",
        retry: BoundedRetry | None = None,
    ):
        self._memory = memory or global_memory()
        self._tag = tag
        self._root: object | None = None
        self._root_lock = OptimisticLock()
        self._size = 0
        self._size_lock = threading.Lock()
        # sorted_view() state: the last view handed out, the changes
        # since (key -> value or _REMOVED; None while no view is kept)
        # and the delta size past which both are dropped.
        self._view: tuple[np.ndarray, np.ndarray] | None = None
        self._delta: dict[int, object] | None = None
        self._delta_cap = 0
        self._delta_lock = threading.Lock()  # record vs swap/drop
        self._view_lock = threading.Lock()  # one view builder at a time
        self._replace_listeners: list[ReplaceListener] = []
        # Nothing retires into this manager (replaced nodes are freed at
        # once), so pending() stays 0; it is kept only because the
        # wall-clock benchmark reads ``art.epoch.pending()``.
        self.epoch = EpochManager()
        self._retry = retry or DEFAULT_RETRY
        # Pessimistic degradation: operations whose optimistic restarts
        # exceed the policy's fallback threshold serialize through this
        # lock (acquired cooperatively — see retry.acquire_cooperative).
        self._fallback_lock = threading.Lock()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def root(self):
        return self._root

    def add_replace_listener(self, listener: ReplaceListener) -> None:
        """Register ``listener(old_node, new_node)`` for SMO notifications."""
        self._replace_listeners.append(listener)

    def _with_restarts(self, site: str, attempt: Callable[[], object]):
        """Run ``attempt`` under the bounded-restart protocol.

        Optimistic restarts retry through :class:`BoundedRetry`; past the
        policy's fallback threshold the operation serializes through the
        tree's pessimistic fallback lock (graceful degradation instead of
        livelock), and budget exhaustion raises
        :class:`repro.concurrency.retry.RetryBudgetExceeded`.
        """
        state = self._retry.begin(site)
        while not state.should_fallback:
            try:
                return attempt()
            except RestartException:
                state.step()
        return self._run_pessimistic(state, attempt)

    def _run_pessimistic(self, state: RetryState, attempt: Callable[[], object]):
        state.count_fallback()
        chaos.point("art.fallback")
        acquire_cooperative(self._fallback_lock, state)
        try:
            while True:
                try:
                    return attempt()
                except RestartException:
                    # Still optimistic inside (a non-fallback writer can
                    # interleave), but aggressive retriers are serialized,
                    # so some operation always completes.
                    state.step()
        finally:
            self._fallback_lock.release()

    def search(self, key: int, from_node=None):
        """Return the value for ``key`` or ``None``; restarts transparently."""
        return self._with_restarts("art.search", lambda: self._search(key, from_node))

    def insert(self, key: int, value, from_node=None, upsert: bool = False) -> bool:
        """Insert ``key``.

        Returns True if the key was newly inserted.  With ``upsert`` the
        value is replaced when the key exists (still returning False).
        """
        new = self._with_restarts(
            "art.insert", lambda: self._insert(key, value, from_node, upsert)
        )
        if (new or upsert) and self._delta is not None:
            self._record(((key, value),))
        return new

    def remove(self, key: int) -> bool:
        """Delete ``key``; returns True if it was present."""
        removed = self._with_restarts("art.remove", lambda: self._remove(key))
        if removed and self._delta is not None:
            self._record(((key, _REMOVED),))
        return removed

    def bulk_insert(self, keys, values, upsert: bool = False) -> list[bool]:
        """Insert many **pre-sorted** keys in one pass.

        Sorted input keeps successive descents on warm paths — adjacent
        keys share their root-ward prefix.  Per-key semantics (restart
        protocol, upsert behaviour, returned flags) are exactly those of
        :meth:`insert`.
        """
        out: list[bool] = []
        for key, value in zip(keys, values):
            out.append(
                self._with_restarts(
                    "art.insert",
                    lambda k=key, v=value: self._insert(k, v, None, upsert),
                )
            )
        if self._delta is not None:
            self._record(
                (k, v) for k, v, new in zip(keys, values, out) if new or upsert
            )
        return out

    def build_sorted(self, keys, values) -> None:
        """Fill this **empty, not-yet-shared** tree from strictly
        increasing keys in one recursive pass.

        The result is the tree the per-key :meth:`insert` loop would
        leave, node for node: the common prefix of a run's first and
        last key is its node's prefix, the runs of equal byte after it
        are the children, and the node type is the smallest that fits.
        No other thread can reach the tree yet, so building the nodes
        takes no locks, restarts or chaos points and records no view
        delta; only publishing the root takes the root lock.  Raises
        ``ValueError`` on a non-empty tree or on keys that are not
        strictly increasing.
        """
        keys = np.asarray(keys, dtype=np.uint64).tolist()
        values = list(values)
        if len(values) != len(keys):
            raise ValueError("values must align with keys")
        if self._root is not None:
            raise ValueError("build_sorted needs an empty tree")
        if any(a >= b for a, b in zip(keys, islice(keys, 1, None))):
            raise ValueError("build_sorted needs strictly increasing keys")
        root = self._build_run(keys, values, 0, len(keys), 0) if keys else None
        self._root_lock.write_lock_or_restart()
        self._root = root
        self._size = len(keys)
        self._root_lock.write_unlock()
        with self._delta_lock:  # a view of the empty tree is stale now
            self._view = self._delta = None

    def _build_run(self, keys: list, values: list, lo: int, hi: int, depth: int):
        """Subtree over ``keys[lo:hi]``, which share their first ``depth``
        bytes; its parent and pbyte are left for the caller to set."""
        first = keys[lo]
        if hi - lo == 1:
            return Leaf(first, values[lo], self._memory, self._tag)
        # First byte where the run's extremes (and so some pair) differ.
        split = (64 - (first ^ keys[hi - 1]).bit_length()) >> 3
        shift = 56 - 8 * split
        runs = []
        i = lo
        while i < hi:
            high = keys[i] >> shift
            j = bisect_left(keys, (high + 1) << shift, i + 1, hi)
            runs.append((high & 0xFF, i, j))
            i = j
        n = len(runs)
        cls = Node4 if n <= 4 else Node16 if n <= 16 else Node48 if n <= 48 else Node256
        node = cls(encode_key(first)[depth:split], depth, self._memory, self._tag)
        for byte, i, j in runs:
            child = self._build_run(keys, values, i, j, split + 1)
            node.add_child(byte, child)
            child.parent = node
            child.pbyte = byte
        return node

    def bulk_remove(self, keys) -> list[bool]:
        """Delete many **pre-sorted** keys in one pass; per-key flags
        match :meth:`remove`."""
        out: list[bool] = []
        for key in keys:
            out.append(self._with_restarts("art.remove", lambda k=key: self._remove(k)))
        if self._delta is not None:
            self._record((k, _REMOVED) for k, gone in zip(keys, out) if gone)
        return out

    # ------------------------------------------------------------------
    # sorted view (batch readers)
    # ------------------------------------------------------------------
    def sorted_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole tree as sorted ``(uint64 keys, object values)`` arrays.

        The first call walks the tree.  Later calls patch the previous
        view from the delta the four public mutators record while a view
        is kept, so a view after Δ changes costs O(Δ log Δ) plus O(n)
        array copies in C instead of an O(n) Python walk.  A delta that grows
        past the view's key count drops both; the next call walks again.

        Ordering invariant, which keeps a concurrent writer's change from
        being lost: a writer records *after* its tree write, and a reader
        marks a fresh delta *before* walking or patching.  A writer that
        saw no delta therefore finished its write before the walk began;
        one that saw a delta records under ``_delta_lock`` either before
        the reader's swap (patched now) or after it (patched next time).
        Re-applying a change the walk already saw is harmless: entries
        are upserts and removals.  Returned arrays are read-only and a
        view once handed out is never mutated.
        """
        with self._view_lock:
            with self._delta_lock:
                view, delta = self._view, self._delta  # a view implies a delta
                if view is not None and not delta:
                    return view
                self._delta = {}
                self._delta_cap = len(view[0]) if view is not None else self._size
            if view is None:
                view = self._walk_view()
            else:
                view = _patch_view(view, delta)
            with self._delta_lock:
                if self._delta is not None:  # not dropped meanwhile
                    self._view = view
                    self._delta_cap = len(view[0])
            return view

    def _record(self, changes) -> None:
        """Add ``(key, value | _REMOVED)`` changes to the view delta."""
        with self._delta_lock:
            delta = self._delta
            if delta is None:
                return
            for key, value in changes:
                delta[int(key)] = value
            if len(delta) > self._delta_cap:
                self._view = self._delta = None

    def _walk_view(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = self.items()
        keys = np.fromiter((k for k, _ in pairs), dtype=np.uint64, count=len(pairs))
        values = np.fromiter((v for _, v in pairs), dtype=object, count=len(pairs))
        return _frozen(keys, values)

    def items(self, lo: int = 0, hi: int = 2**64 - 1) -> list[tuple[int, object]]:
        """Sorted (key, value) pairs with lo <= key <= hi."""

        def attempt() -> list[tuple[int, object]]:
            out: list[tuple[int, object]] = []
            self._collect(self._root, lo, hi, out)
            return out

        return self._with_restarts("art.items", attempt)

    def scan(self, lo: int, limit: int) -> list[tuple[int, object]]:
        """Up to ``limit`` sorted (key, value) pairs with key >= lo.

        Bounded in-order traversal: subtrees entirely below ``lo`` are
        pruned byte-by-byte, and the walk stops once ``limit`` pairs are
        collected (short-scan workload, Fig. 8c).
        """

        def attempt() -> list[tuple[int, object]]:
            out: list[tuple[int, object]] = []
            self._scan(self._root, encode_key(lo), 0, True, limit, out)
            return out

        return self._with_restarts("art.scan", attempt)

    def _scan(
        self, node, lo_bytes: bytes, depth: int, tight: bool, limit: int, out: list
    ) -> None:
        if node is None or len(out) >= limit:
            return
        trace = active_tracer()
        if isinstance(node, Leaf):
            trace.read_span(node.span)
            if not tight or node.kbytes >= lo_bytes:
                out.append((node.key, node.value))
            return
        version = node.lock.read_lock_or_restart()
        if node.match_level != depth:  # moved down: see _search
            raise RestartException
        trace.read_span(node.span)
        p = node.prefix
        if tight and p:
            ref = lo_bytes[depth : depth + len(p)]
            if p > ref:
                tight = False
            elif p < ref:
                node.lock.check_or_restart(version)
                return
        depth += len(p)
        bound = start = lo_bytes[depth] if tight else 0
        while True:  # bounded: start advances past every listed child
            # A child subtree holds a leaf, so ``limit - len(out)``
            # children fill the scan, and one more covers a tight first
            # child whose keys all lie below ``lo``.  A subtree left
            # empty by a skipped merge holds none, so list on while the
            # listing comes back full.
            want = limit - len(out) + 1
            children = list(islice(node.iter_children(start), want))
            node.lock.check_or_restart(version)
            for byte, child in children:
                if len(out) >= limit:
                    return
                self._scan(child, lo_bytes, depth + 1, tight and byte == bound, limit, out)
            if len(children) < want or len(out) >= limit:
                return
            start = children[-1][0] + 1

    def min_item(self) -> tuple[int, object] | None:
        """Smallest (key, value) pair, or None when empty."""
        node = self._root
        while node is not None and not isinstance(node, Leaf):
            node = next(iter(node.iter_children()))[1]
        if node is None:
            return None
        return node.key, node.value

    def lookup_path_length(self, key: int, from_node=None) -> int:
        """Number of inner nodes visited to locate ``key`` (Fig. 10a)."""
        depth = from_node.match_level if isinstance(from_node, Node) else 0
        node = self._root if from_node is None else from_node
        kb = encode_key(key)
        visited = 0
        while node is not None and not isinstance(node, Leaf):
            visited += 1
            p = node.prefix
            if p and kb[depth : depth + len(p)] != p:
                break
            depth += len(p)
            node = node.find_child(kb[depth])
            depth += 1
        return visited

    def common_ancestor(self, k1: int, k2: int):
        """Deepest node on both keys' lookup paths (fast pointer target).

        Returns the root when the keys diverge immediately, or ``None``
        for an empty tree.  §III-C1 step ②.
        """
        node = self._root
        if node is None or isinstance(node, Leaf):
            return None
        b1, b2 = encode_key(k1), encode_key(k2)
        depth = 0
        while True:  # bounded: descends >=1 key byte per iteration
            p = node.prefix
            if p:
                if b1[depth : depth + len(p)] != p or b2[depth : depth + len(p)] != p:
                    return node
                depth += len(p)
            c1 = node.find_child(b1[depth])
            c2 = node.find_child(b2[depth])
            if b1[depth] != b2[depth] or c1 is None or c1 is not c2:
                return node
            if isinstance(c1, Leaf):
                return node
            node = c1
            depth += 1

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _search(self, key: int, from_node):
        kb = encode_key(key)
        trace = active_tracer()
        if isinstance(from_node, Node) and not from_node.lock.is_obsolete:
            node = from_node
            depth = node.match_level
        else:
            # No shortcut, a stale (obsolete) one, or a bare Leaf — which
            # may have split or been upserted since: start at the root.
            rv = self._root_lock.read_lock_or_restart()
            node = self._root
            self._root_lock.read_unlock_or_restart(rv)
            depth = 0
        while True:  # bounded: descent; conflicts raise RestartException
            if node is None:
                return None
            if isinstance(node, Leaf):
                trace.read_span(node.span)
                return node.value if node.kbytes == kb else None
            chaos.point("art.descend")
            version = node.lock.read_lock_or_restart()
            if node.match_level != depth:
                # The parent's version is validated before the child's is
                # read, so a prefix extraction can push this node a level
                # down in between; its match_level (read under the
                # version validated below) then betrays the stale depth.
                raise RestartException
            trace.read_span(node.span)
            trace.nodes_visited += 1
            p = node.prefix
            if p and kb[depth : depth + len(p)] != p:
                node.lock.read_unlock_or_restart(version)
                return None
            depth += len(p)
            child = node.find_child(kb[depth])
            trace.read_line(node.child_line(kb[depth]))
            node.lock.read_unlock_or_restart(version)
            node = child
            depth += 1

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def _notify_replace(self, old, new) -> None:
        for listener in self._replace_listeners:
            listener(old, new)

    def _bump_size(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def _lock_parent_of(self, node):
        """Write-lock the edge above ``node``; returns an unlock closure
        and a ``replace(new_child)`` closure.  Restarts if the edge moved.
        """
        parent = getattr(node, "parent", None)
        if parent is None:
            # node hangs off the tree root pointer
            rv = self._root_lock.read_lock_or_restart()
            if self._root is not node:
                raise RestartException
            self._root_lock.upgrade_to_write_lock_or_restart(rv)
            if self._root is not node:
                self._root_lock.write_unlock()
                raise RestartException

            def replace(new_child):
                self._root = new_child
                if isinstance(new_child, (Node, Leaf)):
                    new_child.parent = None

            return self._root_lock.write_unlock, replace

        pv = parent.lock.read_lock_or_restart()
        byte = node.pbyte
        if parent.find_child(byte) is not node:
            raise RestartException
        parent.lock.upgrade_to_write_lock_or_restart(pv)
        if parent.find_child(byte) is not node:
            parent.lock.write_unlock()
            raise RestartException
        trace = active_tracer()
        trace.write_span(parent.span)

        def replace(new_child):
            parent.replace_child(byte, new_child)
            new_child.parent = parent
            new_child.pbyte = byte

        return parent.lock.write_unlock, replace

    def _insert(self, key: int, value, from_node, upsert: bool) -> bool:
        kb = encode_key(key)
        trace = active_tracer()

        if (
            from_node is not None
            and isinstance(from_node, Node)
            and not from_node.lock.is_obsolete
        ):
            node = from_node
            depth = node.match_level
        else:
            rv = self._root_lock.read_lock_or_restart()
            node = self._root
            if node is None:
                self._root_lock.upgrade_to_write_lock_or_restart(rv)
                if self._root is not None:
                    self._root_lock.write_unlock()
                    raise RestartException
                leaf = Leaf(key, value, self._memory, self._tag)
                leaf.parent = None
                self._root = leaf
                self._root_lock.write_unlock()
                self._bump_size(1)
                return True
            self._root_lock.read_unlock_or_restart(rv)
            depth = 0

        parent = None  # inner node the descent reached ``node`` through
        while True:  # bounded: descent; conflicts raise RestartException
            if isinstance(node, Leaf):
                return self._insert_at_leaf(node, parent, key, kb, value, depth, upsert)
            chaos.point("art.descend")
            version = node.lock.read_lock_or_restart()
            if node.match_level != depth:  # moved down: see _search
                raise RestartException
            trace.read_span(node.span)
            trace.nodes_visited += 1
            p = node.prefix
            cpl = common_prefix_len(p, kb[depth : depth + len(p)]) if p else 0
            if p and cpl < len(p):
                return self._prefix_extract(node, version, key, kb, value, depth, cpl)
            depth += len(p)
            byte = kb[depth]
            child = node.find_child(byte)
            node.lock.check_or_restart(version)
            if child is None:
                return self._add_leaf(node, version, byte, key, value, depth)
            parent = node
            node = child
            depth += 1

    def _insert_at_leaf(
        self, leaf: Leaf, parent, key: int, kb: bytes, value, depth: int, upsert: bool
    ) -> bool:
        trace = active_tracer()
        trace.read_span(leaf.span)
        unlock, replace = self._lock_parent_of(leaf)
        try:
            if leaf.parent is not parent:
                # A concurrent split or growth moved the leaf since the
                # descent, so ``depth`` no longer matches its position.
                raise RestartException
            if leaf.key == key:
                if upsert:
                    new_leaf = Leaf(key, value, self._memory, self._tag)
                    replace(new_leaf)
                    trace.write_span(new_leaf.span)
                    leaf.free()
                return False
            cpl = common_prefix_len(leaf.kbytes, kb, depth)
            new4 = Node4(kb[depth : depth + cpl], depth, self._memory, self._tag)
            old_byte = leaf.kbytes[depth + cpl]
            new_byte = kb[depth + cpl]
            new_leaf = Leaf(key, value, self._memory, self._tag)
            trace.write_span(new_leaf.span)
            new4.add_child(old_byte, leaf)
            new4.add_child(new_byte, new_leaf)
            leaf.parent = new4
            leaf.pbyte = old_byte
            new_leaf.parent = new4
            new_leaf.pbyte = new_byte
            replace(new4)
            trace.write_span(new4.span)
            self._bump_size(1)
            return True
        finally:
            unlock()

    def _prefix_extract(
        self, node: Node, version: int, key: int, kb: bytes, value, depth: int, cpl: int
    ) -> bool:
        """§III-C3 scenario ①: split the compressed prefix of ``node``.

        Creates a new Node4 parent holding the shared prefix slice; the
        old node keeps the remainder.  Listeners are notified with
        ``(node, new_parent)`` so fast pointers move up to the new parent.
        """
        trace = active_tracer()
        unlock, replace = self._lock_parent_of(node)
        try:
            node.lock.upgrade_to_write_lock_or_restart(version)
            p = node.prefix
            new_parent = Node4(p[:cpl], depth, self._memory, self._tag)
            node_byte = p[cpl]
            node.prefix = p[cpl + 1 :]
            node.match_level = depth + cpl + 1
            new_leaf = Leaf(key, value, self._memory, self._tag)
            trace.write_span(new_leaf.span)
            leaf_byte = kb[depth + cpl]
            new_parent.add_child(node_byte, node)
            new_parent.add_child(leaf_byte, new_leaf)
            node.parent = new_parent
            node.pbyte = node_byte
            new_leaf.parent = new_parent
            new_leaf.pbyte = leaf_byte
            replace(new_parent)
            trace.write_span(new_parent.span)
            trace.write_span(node.span)
            node.lock.write_unlock()
            self._notify_replace(node, new_parent)
            self._bump_size(1)
            return True
        finally:
            unlock()

    def _add_leaf(
        self, node: Node, version: int, byte: int, key: int, value, depth: int
    ) -> bool:
        trace = active_tracer()
        if not node.is_full():
            node.lock.upgrade_to_write_lock_or_restart(version)
            if node.find_child(byte) is not None:
                node.lock.write_unlock()
                raise RestartException
            leaf = Leaf(key, value, self._memory, self._tag)
            node.add_child(byte, leaf)
            leaf.parent = node
            leaf.pbyte = byte
            trace.write_span(node.span, _HEADER)
            trace.write_span(leaf.span)
            node.lock.write_unlock()
            self._bump_size(1)
            return True

        # §III-C3 scenario ②: node expansion replaces the node object.
        unlock, replace = self._lock_parent_of(node)
        try:
            node.lock.upgrade_to_write_lock_or_restart(version)
            grown = node.grow(self._memory, self._tag)
            leaf = Leaf(key, value, self._memory, self._tag)
            trace.write_span(leaf.span)
            grown.add_child(byte, leaf)
            leaf.parent = grown
            leaf.pbyte = byte
            for cbyte, child in grown.iter_children():
                child.parent = grown
                child.pbyte = cbyte
            replace(grown)
            trace.write_span(grown.span)
            node.lock.write_unlock_obsolete()
            node.free()
            self._notify_replace(node, grown)
            self._bump_size(1)
            return True
        finally:
            unlock()

    # ------------------------------------------------------------------
    # remove
    # ------------------------------------------------------------------
    def _remove(self, key: int) -> bool:
        kb = encode_key(key)
        trace = active_tracer()
        rv = self._root_lock.read_lock_or_restart()
        node = self._root
        if node is None:
            return False
        if isinstance(node, Leaf):
            if node.key != key:
                return False
            self._root_lock.upgrade_to_write_lock_or_restart(rv)
            if self._root is not node:
                self._root_lock.write_unlock()
                raise RestartException
            self._root = None
            self._root_lock.write_unlock()
            node.free()
            self._bump_size(-1)
            return True
        self._root_lock.read_unlock_or_restart(rv)

        depth = 0
        while True:  # bounded: descent; conflicts raise RestartException
            chaos.point("art.descend")
            version = node.lock.read_lock_or_restart()
            if node.match_level != depth:  # moved down: see _search
                raise RestartException
            trace.read_span(node.span)
            p = node.prefix
            if p and kb[depth : depth + len(p)] != p:
                node.lock.read_unlock_or_restart(version)
                return False
            depth += len(p)
            byte = kb[depth]
            child = node.find_child(byte)
            node.lock.check_or_restart(version)
            if child is None:
                return False
            if isinstance(child, Leaf):
                if child.key != key:
                    return False
                return self._remove_leaf(node, version, byte, child)
            node = child
            depth += 1

    def _remove_leaf(self, node: Node, version: int, byte: int, leaf: Leaf) -> bool:
        trace = active_tracer()
        node.lock.upgrade_to_write_lock_or_restart(version)
        node.remove_child(byte)
        trace.write_span(node.span, _HEADER)
        leaf.free()
        self._bump_size(-1)

        if isinstance(node, Node4) and node.count == 1 and node.parent is not None:
            # Path-compression merge: replace node with its only child.
            try:
                unlock, replace = self._lock_parent_of(node)
            except RestartException:
                node.lock.write_unlock()
                return True  # deletion already done; merge is best-effort
            try:
                cbyte, child = node.only_child
                if isinstance(child, Node):
                    # Re-prefix the child under its own write lock, so a
                    # reader inside it restarts instead of pairing the
                    # new prefix with the old match_level.
                    try:
                        child.lock.write_lock_or_restart()
                    except RestartException:
                        node.lock.write_unlock()
                        return True  # child busy; skip the merge
                    child.prefix = node.prefix + bytes([cbyte]) + child.prefix
                    chaos.point("art.merge")
                    child.match_level = node.match_level
                    child.lock.write_unlock()
                replace(child)
                node.lock.write_unlock_obsolete()
                node.free()
                self._notify_replace(node, child)
            finally:
                unlock()
            return True

        shrink_at = getattr(node, "SHRINK_AT", None)
        if shrink_at is not None and node.count < shrink_at and node.parent is not None:
            try:
                unlock, replace = self._lock_parent_of(node)
            except RestartException:
                node.lock.write_unlock()
                return True
            try:
                shrunk = node.shrink(self._memory, self._tag)
                for cb, child in shrunk.iter_children():
                    child.parent = shrunk
                    child.pbyte = cb
                replace(shrunk)
                node.lock.write_unlock_obsolete()
                node.free()
                self._notify_replace(node, shrunk)
            finally:
                unlock()
            return True

        node.lock.write_unlock()
        return True

    # ------------------------------------------------------------------
    # range scan
    # ------------------------------------------------------------------
    def _collect(self, node, lo: int, hi: int, out: list) -> None:
        if node is None:
            return
        if isinstance(node, Leaf):
            if lo <= node.key <= hi:
                out.append((node.key, node.value))
            return
        version = node.lock.read_lock_or_restart()
        children = [c for _, c in node.iter_children()]
        node.lock.check_or_restart(version)
        trace = active_tracer()
        trace.read_span(node.span)
        for child in children:
            self._collect(child, lo, hi, out)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def node_counts(self) -> dict[str, int]:
        """Count of live nodes per type (diagnostics/memory tests)."""
        counts: dict[str, int] = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            counts[type(node).__name__] = counts.get(type(node).__name__, 0) + 1
            if isinstance(node, Node):
                stack.extend(c for _, c in node.iter_children())
        return counts

    def height(self) -> int:
        """Maximum inner-node depth (leaves excluded)."""

        def depth_of(node) -> int:
            if node is None or isinstance(node, Leaf):
                return 0
            return 1 + max(
                (depth_of(c) for _, c in node.iter_children()), default=0
            )

        return depth_of(self._root)


def _frozen(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys.flags.writeable = False
    values.flags.writeable = False
    return keys, values


def _patch_view(
    view: tuple[np.ndarray, np.ndarray], delta: dict[int, object]
) -> tuple[np.ndarray, np.ndarray]:
    """A new sorted view: ``view`` with ``delta`` applied.

    Present keys take their new value (on a copy of the values) or are
    deleted; absent keys are inserted at their sorted position, and
    absent removals are no-ops.  ``view`` is left untouched.
    """
    vkeys, vvals = view
    n = len(delta)
    dkeys = np.fromiter(delta.keys(), dtype=np.uint64, count=n)
    dvals = np.fromiter(delta.values(), dtype=object, count=n)
    removed = np.fromiter((v is _REMOVED for v in dvals), dtype=bool, count=n)
    order = np.argsort(dkeys)
    dkeys, dvals, removed = dkeys[order], dvals[order], removed[order]
    pos, present = sorted_hits(vkeys, dkeys)
    upd = present & ~removed
    if upd.any():
        vvals = vvals.copy()
        vvals[pos[upd]] = dvals[upd]
    gone = pos[present & removed]
    if len(gone):
        vkeys, vvals = np.delete(vkeys, gone), np.delete(vvals, gone)
    add = ~present & ~removed
    if add.any():
        at = pos[add] - np.searchsorted(gone, pos[add])  # shift past deletions
        vkeys = np.insert(vkeys, at, dkeys[add])
        vvals = np.insert(vvals, at, dvals[add])
    return _frozen(vkeys, vvals)
