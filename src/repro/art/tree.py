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
- ``lookup_sorted(keys)`` resolves a batch of keys with one
  ``searchsorted`` over each of two sorted runs: a frozen *main* run of
  the whole tree, published once by ``publish_main`` at bulk load, and
  a small *overlay* of the changes since main was built.  Writes record
  their changes in a *delta*; a merge folds the delta into the overlay,
  and the overlay into a new main once it outgrows
  ``1 / _OVERLAY_FRACTION`` of main;
- ``search_runs(key)`` answers one key from the same runs and the
  delta, with no descent: the scalar read an untraced ``ALTIndex.get``
  uses for ART-resident keys;
- ``iter_from(lo)`` walks the tree once, lazily, from ``lo``: the range
  read behind ``ALTIndex.scan`` and an expansion's move-home; ``scan``
  takes a bounded prefix of the same walk and ``items(lo, hi)`` its
  pairs up to ``hi``.

Writers acquire node write locks via non-blocking upgrade and restart on
failure, so the protocol is deadlock-free; readers never write shared
state (``search_runs`` reads one published snapshot and takes no lock;
it declines while a public write is in flight, whose tree change the
snapshot may lack).
A writer frees the node it replaces at once: CPython refcounting
keeps the object alive while a reader still holds it, and freeing only
releases the node's modeled bytes to the memory map.  When a tracer is
live, all operations record cache-line touches and node visits into the
ambient cost trace; with none live, the descents, the walks and the
writer helpers they call skip that bookkeeping.

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

import gc
import threading
from bisect import bisect_left
from itertools import islice, takewhile
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
from repro.sim.trace import MemoryMap, current_tracer, global_memory

ReplaceListener = Callable[[object, object], None]

# Overlay/delta marker for a key removed since main was built.
_REMOVED = object()

# search_runs() result while the tree keeps no sorted runs, or a write
# is in flight.
NO_RUNS = object()

# A key with no entry in a delta or run.
_ABSENT = object()

# Children an iter_from() walk lists from a node between version checks.
_WALK_BATCH = 8

_UINT64_MAX = 2**64 - 1

# The overlay is folded into main once it holds more than
# 1/_OVERLAY_FRACTION as many keys as main: an O(n) main rebuild then
# pays for about n/16 changed keys.
_OVERLAY_FRACTION = 16


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
        # The sorted view, published as one ``(runs, delta)`` pair so a
        # reader takes one consistent snapshot: the runs, a (main keys,
        # main values, overlay keys, overlay values) tuple, and the delta
        # of changes recorded since (key -> value or _REMOVED).  None
        # until publish_main seeds it; never dropped after that.
        self._view: tuple | None = None
        # Public writes between their tree write's start and their record,
        # one entry each: a list, as its append and pop are atomic.
        self._writing: list[None] = []
        self._delta_lock = threading.Lock()  # records and merges
        self._replace_listeners: list[ReplaceListener] = []
        # Replaced nodes are freed where they are unlinked; this
        # free-at-once manager stays only because the wall-clock
        # benchmark reads ``art.epoch.pending()`` (always 0).
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

    def _with_restarts(self, site: str, attempt: Callable[..., object], *args):
        """Run ``attempt(*args)`` under the bounded-restart protocol.

        The first attempt runs before any retry state exists, so an
        operation that never restarts allocates none.  Optimistic restarts
        retry through :class:`BoundedRetry`; past the policy's fallback
        threshold (at least one failure) the operation serializes through
        the tree's pessimistic fallback lock (graceful degradation instead
        of livelock), and budget exhaustion raises
        :class:`repro.concurrency.retry.RetryBudgetExceeded`.
        """
        try:
            return attempt(*args)
        except RestartException:
            state = self._retry.begin(site)
            state.step()
        while not state.should_fallback:
            try:
                return attempt(*args)
            except RestartException:
                state.step()
        return self._run_pessimistic(state, attempt, *args)

    def _run_pessimistic(
        self, state: RetryState, attempt: Callable[..., object], *args
    ):
        state.count_fallback()
        chaos.point("art.fallback")
        acquire_cooperative(self._fallback_lock, state)
        try:
            while True:
                try:
                    return attempt(*args)
                except RestartException:
                    # Still optimistic inside (a non-fallback writer can
                    # interleave), but aggressive retriers are serialized,
                    # so some operation always completes.
                    state.step()
        finally:
            self._fallback_lock.release()

    def search(self, key: int, from_node=None):
        """Return the value for ``key`` or ``None``; restarts transparently."""
        return self._with_restarts("art.search", self._search, key, from_node)

    def insert(self, key: int, value, from_node=None, upsert: bool = False) -> bool:
        """Insert ``key``.

        Returns True if the key was newly inserted.  With ``upsert`` the
        value is replaced when the key exists (still returning False).
        """
        self._begin_write()
        changes = ()
        try:
            new = self._with_restarts(
                "art.insert", self._insert, key, value, from_node, upsert
            )
            if new or upsert:
                changes = ((key, value),)
        finally:
            self._record(changes)
        return new

    def remove(self, key: int) -> bool:
        """Delete ``key``; returns True if it was present."""
        self._begin_write()
        changes = ()
        try:
            removed = self._with_restarts("art.remove", self._remove, key)
            if removed:
                changes = ((key, _REMOVED),)
        finally:
            self._record(changes)
        return removed

    def bulk_insert(self, keys, values, upsert: bool = False) -> list[bool]:
        """Insert many **pre-sorted** keys in one pass.

        Sorted input keeps successive descents on warm paths — adjacent
        keys share their root-ward prefix.  Per-key semantics (restart
        protocol, upsert behaviour, returned flags) are exactly those of
        :meth:`insert`.
        """
        out: list[bool] = []
        self._begin_write()
        try:
            for key, value in zip(keys, values):
                out.append(
                    self._with_restarts(
                        "art.insert", self._insert, key, value, None, upsert
                    )
                )
        finally:
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
        takes no locks, restarts or chaos points; only publishing the
        root takes the root lock.  A tree with batch readers then hands
        the same input to :meth:`publish_main`.  Raises ``ValueError``
        on a non-empty tree or on keys that are not strictly increasing.

        The build is sized with array ops first (:func:`_build_size`), so
        one :meth:`MemoryMap.reserve_run` accounts for every node, and
        the recursion hands the reserved lines out in the insert loop's
        pre-order: each node gets the line one :meth:`MemoryMap.reserve`
        per node would have given it.

        The recursion runs with CPython's cyclic collector paused: it
        only allocates, so a pass would find no garbage while traversing
        every node built so far.  The switch is process-wide, so other
        threads' collections are postponed until the build ends, never
        skipped (the allocation counts that trigger them keep growing).
        The collector is enabled again only if it was enabled on entry,
        so a caller that disabled it keeps it disabled.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if len(values) != len(keys):
            raise ValueError("values must align with keys")
        if self._root is not None:
            raise ValueError("build_sorted needs an empty tree")
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("build_sorted needs strictly increasing keys")
        root = None
        if len(keys):
            count, nbytes, nlines = _build_size(keys)
            base = self._memory.reserve_run(count, nbytes, nlines, self._tag)
            collecting = gc.isenabled()
            gc.disable()
            try:
                keys, values = keys.tolist(), list(values)
                if len(keys) > 1:
                    root, end = _build_run(keys, values, 0, len(keys), 0, base)
                else:
                    root, end = Leaf(keys[0], values[0], base), base + Leaf.LINES
            except BaseException:
                self._memory.release(nbytes, self._tag)
                raise
            finally:
                if collecting:
                    gc.enable()
            assert end == base + nlines, "build_sorted sized a different tree"
        self._root_lock.write_lock_or_restart()
        self._root = root
        self._size = len(keys)
        self._root_lock.write_unlock()

    def publish_main(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Publish the tree's whole content, the strictly increasing uint64
        ``keys`` and the object array ``values`` a :meth:`build_sorted`
        was just given, as the main run of :meth:`lookup_sorted` and
        :meth:`search_runs`.  Call it before the tree is shared; both
        arrays are frozen in place.  The runs come only from here: a
        tree never given a main (the ART baseline) keeps none and
        records no delta, and its :meth:`lookup_sorted` searches the
        tree per key.
        """
        main = _frozen(keys, values)
        with self._delta_lock:
            self._view = ((*main, *_EMPTY_RUN), {})

    def bulk_remove(self, keys) -> list[bool]:
        """Delete many **pre-sorted** keys in one pass; per-key flags
        match :meth:`remove`."""
        out: list[bool] = []
        self._begin_write()
        try:
            for key in keys:
                out.append(self._with_restarts("art.remove", self._remove, key))
        finally:
            self._record((k, _REMOVED) for k, gone in zip(keys, out) if gone)
        return out

    # ------------------------------------------------------------------
    # sorted runs (batch readers)
    # ------------------------------------------------------------------
    def lookup_sorted(self, keys) -> list:
        """The value of each of ``keys``, or ``None`` where absent.

        Resolves the whole batch with one ``searchsorted`` over the main
        run and, if the overlay is not empty, one over the overlay, whose
        entries (a value or a removal) shadow main's.  See
        :meth:`_fresh_runs` for how the runs follow the tree.  On a tree
        with no runs, or while a public write is in flight (when
        :meth:`search_runs` declines), the keys are searched in the tree
        instead.
        """
        probe = np.asarray(keys, dtype=np.uint64)
        if self._writing or self._view is None:
            return [self.search(k) for k in probe.tolist()]
        mkeys, mvals, okeys, ovals = self._fresh_runs()
        if len(mkeys):
            vals, hit = _search_run(mkeys, mvals, probe)
            vals[~hit] = None
        else:
            vals = np.full(len(probe), None, dtype=object)
        if not len(okeys):
            return vals.tolist()
        ovals_at, hit = _search_run(okeys, ovals, probe)
        shadowed = np.flatnonzero(hit)
        vals[shadowed] = ovals_at[shadowed]
        out = vals.tolist()
        for i in shadowed.tolist():
            if out[i] is _REMOVED:
                out[i] = None
        return out

    def sorted_keys(self) -> np.ndarray:
        """Every key of the tree, ascending, as a uint64 array.

        From the runs: main with the overlay folded in by
        :func:`_patch_run`, the fold a merge makes, on copies.  On a tree
        with no runs, or while a public write is in flight (when
        :meth:`search_runs` declines), from one :meth:`items` walk.
        """
        if self._writing or self._view is None:
            return np.fromiter((k for k, _ in self.items()), dtype=np.uint64)
        mkeys, mvals, okeys, ovals = self._fresh_runs()
        if len(okeys):
            mkeys, _ = _patch_run((mkeys, mvals), okeys, ovals, drop_removed=True)
        return mkeys

    def search_runs(self, key: int):
        """``key``'s value from the runs, ``None`` where absent, or
        :data:`NO_RUNS` on a tree with no runs (no :meth:`publish_main`).

        The scalar companion of :meth:`lookup_sorted`, and untraced: it
        walks no node, merges nothing, and takes no lock.  From one
        snapshot of ``(runs, delta)`` it checks the delta, then the
        overlay, then main; the two runs are probed with one
        ``searchsorted`` each on a ``np.uint64`` probe (a Python-int probe
        would cast the whole run).  A write is recorded after its tree
        write, so while any public write is in flight this returns
        :data:`NO_RUNS` too: the caller then searches the tree, and a
        read that follows a tree walk which saw the write sees it too.
        """
        if self._writing:
            return NO_RUNS  # the tree may hold a change the runs lack yet
        view = self._view  # after the check: it holds every earlier record
        if view is None:
            return NO_RUNS
        chaos.point("art.view")  # snapshot taken: a write may merge now
        runs, delta = view
        value = delta.get(key, _ABSENT)
        if value is _ABSENT:
            probe = np.uint64(key)
            if len(runs[2]):
                value = _probe_run(runs[2], runs[3], probe, key)
            if value is _ABSENT:
                value = _probe_run(runs[0], runs[1], probe, key)
        return None if value is _ABSENT or value is _REMOVED else value

    def _fresh_runs(self) -> tuple[np.ndarray, ...]:
        """The published ``(main keys, main values, overlay keys, overlay
        values)`` of a tree with runs, the delta merged in by
        :meth:`_merge`.  The arrays are read-only and never mutated."""
        runs, delta = self._view
        if not delta:
            return runs
        chaos.point("art.view_merge")  # not under the lock: writers block on it
        with self._delta_lock:
            runs, delta = self._view
            return self._merge(runs, delta) if delta else runs

    def _merge(self, runs: tuple, delta: dict) -> tuple[np.ndarray, ...]:
        """Patch ``delta`` into the overlay in O(overlay + Δ log Δ), fold
        an overlay of more than ``1 / _OVERLAY_FRACTION`` of main's keys
        into a new main in one O(n) pass, and publish ``(new runs, {})``
        in one assignment.  The caller holds ``_delta_lock``, the lock
        writers record under, so no change lands between the read of the
        delta and the publish; a reader holding the old pair keeps it
        whole."""
        dkeys, dvals = _sorted_changes(delta)
        okeys, ovals = _patch_run(runs[2:], dkeys, dvals, drop_removed=False)
        if len(okeys) * _OVERLAY_FRACTION > len(runs[0]):
            main = _patch_run(runs[:2], okeys, ovals, drop_removed=True)
            runs = (*main, *_EMPTY_RUN)
        else:
            runs = (*runs[:2], okeys, ovals)
        self._view = (runs, {})
        return runs

    def _begin_write(self) -> None:
        """Count a public write as in flight until its :meth:`_record`."""
        self._writing.append(None)

    def _record(self, changes) -> None:
        """End a write begun by :meth:`_begin_write`: add its ``(key,
        value | _REMOVED)`` changes to the delta, if the tree has runs.

        The write stops counting as in flight only once its changes are
        in the delta, so a lock-free reader that sees no write in flight
        sees them too.  A record that grows the delta past main's key
        count merges it (:meth:`_merge`, which folds main) before it
        returns, so the delta stays bounded with no batch reader.  With
        no runs it takes no lock: runs come only from
        :meth:`publish_main`, before the tree is shared.
        """
        if self._view is None:
            self._writing.pop()
            return
        with self._delta_lock:
            try:
                runs, delta = self._view
                for key, value in changes:
                    delta[int(key)] = value
                if len(delta) > len(runs[0]):
                    self._merge(runs, delta)
            finally:
                self._writing.pop()

    def items(self, lo: int = 0, hi: int = _UINT64_MAX) -> list[tuple[int, object]]:
        """Sorted (key, value) pairs with lo <= key <= hi: the pairs up to
        ``hi`` of one :meth:`_walk` from ``lo``, restarted from ``lo`` on
        a conflict.  The range is pruned at both ends: the walk skips the
        subtrees below ``lo`` and stops at the first key past ``hi``, so
        a narrow range visits only the nodes on its way."""
        return self._with_restarts(
            "art.items",
            lambda: list(
                takewhile(
                    lambda pair: pair[0] <= hi,
                    self._walk(encode_key(lo), current_tracer()),
                )
            ),
        )

    def scan(self, lo: int, limit: int) -> list[tuple[int, object]]:
        """Up to ``limit`` sorted (key, value) pairs with key >= lo
        (short-scan workload, Fig. 8c): the first ``limit`` pairs of one
        :meth:`iter_from` walk, restarted from ``lo`` on a conflict."""
        return self._with_restarts(
            "art.scan",
            lambda: list(
                islice(self._walk(encode_key(lo), current_tracer()), max(limit, 0))
            ),
        )

    def iter_from(self, lo: int) -> Iterator[tuple[int, object]]:
        """Every (key, value) pair with key >= ``lo``, in key order, from
        one lazy walk under optimistic lock coupling.

        Subtrees entirely below ``lo`` are pruned byte by byte.  An inner
        node lists ``_WALK_BATCH`` children at a time and validates its
        version after each listing, so a consumer that stops early pays
        only for the nodes it reached.  A failed validation restarts the
        walk from the root just past the last pair yielded, so no pair
        repeats.  Restarts run through the bounded-retry policy with a
        fresh state after every yielded pair: a long walk under steady
        writes restarts many times, but never many times between two
        pairs.  Past the policy's fallback threshold the walk holds the
        fallback lock until its next pair, never across a ``yield``.
        """
        trace = current_tracer()
        state = None
        held = False
        last = None  # the last pair yielded
        try:
            while True:  # bounded: each restart resumes past the last pair,
                # and the retry state bounds the restarts between two pairs
                try:
                    for last in self._walk(encode_key(lo), trace):
                        if held:
                            self._fallback_lock.release()
                            held = False
                        state = None
                        yield last
                    return
                except RestartException:
                    if last is not None:
                        if last[0] == _UINT64_MAX:
                            return
                        lo = last[0] + 1
                    if state is None:
                        state = self._retry.begin("art.scan")
                    state.step()
                    if not held and state.should_fallback:
                        state.count_fallback()
                        chaos.point("art.fallback")
                        acquire_cooperative(self._fallback_lock, state)
                        held = True
        finally:
            if held:
                self._fallback_lock.release()

    def _walk(self, lo_bytes: bytes, trace) -> Iterator[tuple[int, object]]:
        """One attempt of :meth:`iter_from`: the in-order pairs from the
        key ``lo_bytes`` encodes, depth first with an explicit stack.

        A frame is ``[node, version, depth, bound, children, listed]``: an
        inner node, the version that validated its last listing, the key
        depth below its prefix, ``lo``'s byte there while the walk is on
        ``lo``'s own path (else -1), an iterator over that listing, and
        the listing's last byte, or -1 once a short listing ended it.
        """
        stack: list[list] = []
        node, depth, tight = self._root, 0, True
        while True:  # bounded: every pass enters a node or ends a listing
            if isinstance(node, Leaf):
                if trace is not None:
                    trace.read_line(node.line)
                if not tight or node.kbytes >= lo_bytes:
                    yield node.key, node.value
            elif node is not None:
                version = node.lock.read_lock_or_restart()
                if node.match_level != depth:  # moved down: see _search
                    raise RestartException
                if trace is not None:
                    trace.read_line(node.line)
                p = node.prefix
                below = False
                if tight and p:
                    ref = lo_bytes[depth : depth + len(p)]
                    below = p < ref  # the whole subtree lies below lo
                    tight = p == ref
                if below:
                    node.lock.check_or_restart(version)
                else:
                    depth += len(p)
                    bound = lo_bytes[depth] if tight else -1
                    stack.append(
                        [node, version, depth, bound, *_list_children(node, version, bound)]
                    )
            # Find the next child to enter; off-edge leaves yield inline.
            while stack:
                frame = stack[-1]
                bound = frame[3]
                for byte, child in frame[4]:
                    if byte == bound or not isinstance(child, Leaf):
                        node, depth, tight = child, frame[2] + 1, byte == bound
                        break
                    if trace is not None:
                        trace.read_line(child.line)
                    yield child.key, child.value
                else:
                    if frame[5] < 0:
                        stack.pop()
                    else:
                        frame[4:] = _list_children(frame[0], frame[1], frame[5] + 1)
                    continue
                break
            else:
                return

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
        trace = current_tracer()
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
                if trace is not None:
                    trace.read_line(node.line)
                return node.value if node.kbytes == kb else None
            chaos.point("art.descend")
            version = node.lock.read_lock_or_restart()
            if node.match_level != depth:
                # The parent's version is validated before the child's is
                # read, so a prefix extraction can push this node a level
                # down in between; its match_level (read under the
                # version validated below) then betrays the stale depth.
                raise RestartException
            if trace is not None:
                trace.read_line(node.line)
                trace.nodes_visited += 1
            p = node.prefix
            if p and kb[depth : depth + len(p)] != p:
                node.lock.read_unlock_or_restart(version)
                return None
            depth += len(p)
            child = node.find_child(kb[depth])
            if trace is not None:
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

    def _reserve(self, cls) -> int:
        """Reserve the lines of one new ``cls`` node; returns its line."""
        return self._memory.reserve(cls.SIZE_BYTES, self._tag)

    def _bump_size(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def _lock_parent_of(self, node, trace):
        """Write-lock the edge above ``node``; returns an unlock closure
        and a ``replace(new_child)`` closure, where ``replace(None)``
        drops the edge.  Restarts if the edge moved.
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
        if trace is not None:
            trace.write_line(parent.line)

        def replace(new_child):
            if new_child is None:
                parent.remove_child(byte)
                return
            parent.replace_child(byte, new_child)
            new_child.parent = parent
            new_child.pbyte = byte

        return parent.lock.write_unlock, replace

    def _insert(self, key: int, value, from_node, upsert: bool) -> bool:
        kb = encode_key(key)
        trace = current_tracer()

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
                leaf = Leaf(key, value, self._reserve(Leaf))
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
                return self._insert_at_leaf(
                    node, parent, key, kb, value, depth, upsert, trace
                )
            chaos.point("art.descend")
            version = node.lock.read_lock_or_restart()
            if node.match_level != depth:  # moved down: see _search
                raise RestartException
            if trace is not None:
                trace.read_line(node.line)
                trace.nodes_visited += 1
            p = node.prefix
            cpl = common_prefix_len(p, kb[depth : depth + len(p)]) if p else 0
            if p and cpl < len(p):
                return self._prefix_extract(
                    node, version, key, kb, value, depth, cpl, trace
                )
            depth += len(p)
            byte = kb[depth]
            child = node.find_child(byte)
            node.lock.check_or_restart(version)
            if child is None:
                return self._add_leaf(node, version, byte, key, value, depth, trace)
            parent = node
            node = child
            depth += 1

    def _insert_at_leaf(
        self, leaf: Leaf, parent, key: int, kb: bytes, value, depth: int, upsert: bool,
        trace,
    ) -> bool:
        if trace is not None:
            trace.read_line(leaf.line)
        unlock, replace = self._lock_parent_of(leaf, trace)
        try:
            if leaf.parent is not parent:
                # A concurrent split or growth moved the leaf since the
                # descent, so ``depth`` no longer matches its position.
                raise RestartException
            if leaf.key == key:
                if upsert:
                    new_leaf = Leaf(key, value, self._reserve(Leaf))
                    replace(new_leaf)
                    if trace is not None:
                        trace.write_line(new_leaf.line)
                    self._memory.release(leaf.SIZE_BYTES, self._tag)
                return False
            cpl = common_prefix_len(leaf.kbytes, kb, depth)
            new4 = Node4(kb[depth : depth + cpl], depth, self._reserve(Node4))
            old_byte = leaf.kbytes[depth + cpl]
            new_byte = kb[depth + cpl]
            new_leaf = Leaf(key, value, self._reserve(Leaf))
            if trace is not None:
                trace.write_line(new_leaf.line)
            new4.add_child(old_byte, leaf)
            new4.add_child(new_byte, new_leaf)
            leaf.parent = new4
            leaf.pbyte = old_byte
            new_leaf.parent = new4
            new_leaf.pbyte = new_byte
            replace(new4)
            if trace is not None:
                trace.write_line(new4.line)
            self._bump_size(1)
            return True
        finally:
            unlock()

    def _prefix_extract(
        self, node: Node, version: int, key: int, kb: bytes, value, depth: int, cpl: int,
        trace,
    ) -> bool:
        """§III-C3 scenario ①: split the compressed prefix of ``node``.

        Creates a new Node4 parent holding the shared prefix slice; the
        old node keeps the remainder.  Listeners are notified with
        ``(node, new_parent)`` so fast pointers move up to the new parent.
        """
        unlock, replace = self._lock_parent_of(node, trace)
        try:
            node.lock.upgrade_to_write_lock_or_restart(version)
            p = node.prefix
            new_parent = Node4(p[:cpl], depth, self._reserve(Node4))
            node_byte = p[cpl]
            node.prefix = p[cpl + 1 :]
            node.match_level = depth + cpl + 1
            new_leaf = Leaf(key, value, self._reserve(Leaf))
            if trace is not None:
                trace.write_line(new_leaf.line)
            leaf_byte = kb[depth + cpl]
            new_parent.add_child(node_byte, node)
            new_parent.add_child(leaf_byte, new_leaf)
            node.parent = new_parent
            node.pbyte = node_byte
            new_leaf.parent = new_parent
            new_leaf.pbyte = leaf_byte
            replace(new_parent)
            if trace is not None:
                trace.write_line(new_parent.line)
                trace.write_line(node.line)
            node.lock.write_unlock()
            self._notify_replace(node, new_parent)
            self._bump_size(1)
            return True
        finally:
            unlock()

    def _add_leaf(
        self, node: Node, version: int, byte: int, key: int, value, depth: int, trace
    ) -> bool:
        if not node.is_full():
            node.lock.upgrade_to_write_lock_or_restart(version)
            if node.find_child(byte) is not None:
                node.lock.write_unlock()
                raise RestartException
            leaf = Leaf(key, value, self._reserve(Leaf))
            node.add_child(byte, leaf)
            leaf.parent = node
            leaf.pbyte = byte
            if trace is not None:
                trace.write_line(node.line)
                trace.write_line(leaf.line)
            node.lock.write_unlock()
            self._bump_size(1)
            return True

        # §III-C3 scenario ②: node expansion replaces the node object.
        unlock, replace = self._lock_parent_of(node, trace)
        try:
            node.lock.upgrade_to_write_lock_or_restart(version)
            grown = node.resized(node.GROWN, self._reserve(node.GROWN))
            leaf = Leaf(key, value, self._reserve(Leaf))
            if trace is not None:
                trace.write_line(leaf.line)
            grown.add_child(byte, leaf)
            leaf.parent = grown
            leaf.pbyte = byte
            for cbyte, child in grown.iter_children():
                child.parent = grown
                child.pbyte = cbyte
            replace(grown)
            if trace is not None:
                trace.write_line(grown.line)
            node.lock.write_unlock_obsolete()
            self._memory.release(node.SIZE_BYTES, self._tag)
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
        trace = current_tracer()
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
            self._memory.release(node.SIZE_BYTES, self._tag)
            self._bump_size(-1)
            return True
        self._root_lock.read_unlock_or_restart(rv)

        depth = 0
        while True:  # bounded: descent; conflicts raise RestartException
            chaos.point("art.descend")
            version = node.lock.read_lock_or_restart()
            if node.match_level != depth:  # moved down: see _search
                raise RestartException
            if trace is not None:
                trace.read_line(node.line)
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
                return self._remove_leaf(node, version, byte, child, trace)
            node = child
            depth += 1

    def _remove_leaf(
        self, node: Node, version: int, byte: int, leaf: Leaf, trace
    ) -> bool:
        node.lock.upgrade_to_write_lock_or_restart(version)
        node.remove_child(byte)
        if trace is not None:
            trace.write_line(node.line)
        self._memory.release(leaf.SIZE_BYTES, self._tag)
        self._bump_size(-1)

        # The root collapses too: _lock_parent_of locks the root pointer.
        if not node.count or (isinstance(node, Node4) and node.count == 1):
            # Path-compression merge: replace node with its only child.
            # A node left with no child (after a skipped merge) loses
            # its edge instead; a root then leaves the tree empty.
            try:
                unlock, replace = self._lock_parent_of(node, trace)
            except RestartException:
                node.lock.write_unlock()
                return True  # deletion already done; merge is best-effort
            try:
                cbyte, child = node.only_child if node.count else (0, None)
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
                self._memory.release(node.SIZE_BYTES, self._tag)
                if child is not None:  # a pointer at an obsolete node is ignored
                    self._notify_replace(node, child)
            finally:
                unlock()
            return True

        if node.count < node.SHRINK_AT:
            try:
                unlock, replace = self._lock_parent_of(node, trace)
            except RestartException:
                node.lock.write_unlock()
                return True
            try:
                shrunk = node.resized(node.SHRUNK, self._reserve(node.SHRUNK))
                for cb, child in shrunk.iter_children():
                    child.parent = shrunk
                    child.pbyte = cb
                replace(shrunk)
                node.lock.write_unlock_obsolete()
                self._memory.release(node.SIZE_BYTES, self._tag)
                self._notify_replace(node, shrunk)
            finally:
                unlock()
            return True

        node.lock.write_unlock()
        return True

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


# Per inner node type, by _build_size's type index: cache lines, bytes,
# and (for all but Node256) the largest fan-out the type holds.
_NODE_TYPES = (Node4, Node16, Node48, Node256)
_NODE_LINES = np.array([cls.LINES for cls in _NODE_TYPES])
_NODE_BYTES = np.array([cls.SIZE_BYTES for cls in _NODE_TYPES])
_NODE_CAPACITIES = [cls.CAPACITY for cls in _NODE_TYPES[:-1]]


def _build_size(keys: np.ndarray) -> tuple[int, int, int]:
    """``(nodes, bytes, lines)`` of the tree :func:`_build_run` makes from
    the non-empty, strictly increasing uint64 ``keys``, found with array
    ops: one leaf per key, and one inner node per group of keys that
    share their first ``s`` bytes while some neighbours in the group
    differ at byte ``s``.  Its children are 1 + the number of those
    neighbour pairs, which picks the node type."""
    n = len(keys)
    nodes, nbytes, nlines = n, n * Leaf.SIZE_BYTES, n * Leaf.LINES
    # The first byte at which each pair of neighbours differs.
    diff = keys[1:] ^ keys[:-1]
    split = np.zeros(n - 1, dtype=np.int8)
    for b in range(1, KEY_BYTES):
        split += diff < np.uint64(1 << (64 - 8 * b))
    for s in range(KEY_BYTES):
        at = np.flatnonzero(split == s)
        if not len(at):
            continue
        if s:
            group = keys[at] >> np.uint64(64 - 8 * s)
            starts = np.flatnonzero(group[1:] != group[:-1]) + 1
        else:
            starts = np.empty(0, dtype=np.intp)  # every pair is the root's
        children = np.diff(starts, prepend=0, append=len(at)) + 1
        kind = np.searchsorted(_NODE_CAPACITIES, children)
        nodes += len(children)
        nbytes += int(_NODE_BYTES[kind].sum())
        nlines += int(_NODE_LINES[kind].sum())
    return nodes, nbytes, nlines


def _build_run(keys: list, values: list, lo: int, hi: int, depth: int, line: int):
    """``(node, next line)``: the inner node over the two or more
    ``keys[lo:hi]``, which share their first ``depth`` bytes, with its
    subtrees, numbered from ``line`` on in the insert loop's pre-order
    (the node, then each child in byte order); its parent and pbyte are
    left for the caller to set."""
    first = keys[lo]
    # First byte where the run's extremes (and so some pair) differ.
    split = (64 - (first ^ keys[hi - 1]).bit_length()) >> 3
    shift = 56 - 8 * split
    bounds = [lo]
    i = lo
    while i < hi:
        i = bisect_left(keys, ((keys[i] >> shift) + 1) << shift, i + 1, hi)
        bounds.append(i)
    n = len(bounds) - 1
    cls = Node4 if n <= 4 else Node16 if n <= 16 else Node48 if n <= 48 else Node256
    node = cls(encode_key(first)[depth:split], depth, line)
    line += cls.LINES
    edges, children = [], []
    for i, j in zip(bounds, islice(bounds, 1, None)):
        if j - i == 1:
            child = Leaf(keys[i], values[i], line)
            line += 1  # Leaf.LINES
        else:
            child, line = _build_run(keys, values, i, j, split + 1, line)
        child.parent = node
        child.pbyte = byte = (keys[i] >> shift) & 0xFF
        edges.append(byte)
        children.append(child)
    node.load(edges, children)
    return node, line


def _frozen(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys.flags.writeable = False
    values.flags.writeable = False
    return keys, values


_EMPTY_RUN = _frozen(np.empty(0, dtype=np.uint64), np.empty(0, dtype=object))


def _search_run(
    keys: np.ndarray, values: np.ndarray, probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, hit)`` per probe key in a non-empty sorted run: the value
    at its ``searchsorted`` position (a writable copy) and whether the key
    is present there."""
    pos = np.searchsorted(keys, probe)
    np.minimum(pos, len(keys) - 1, out=pos)
    return values[pos], keys[pos] == probe


def _probe_run(keys: np.ndarray, values: np.ndarray, probe: np.uint64, key: int):
    """The value of ``key`` (``probe`` is the same key as ``np.uint64``)
    in a sorted run, or ``_ABSENT``."""
    pos = int(keys.searchsorted(probe))
    if pos < len(keys) and keys.item(pos) == key:
        return values[pos]
    return _ABSENT


def _list_children(node: Node, version: int, start: int) -> tuple[Iterator, int]:
    """Up to ``_WALK_BATCH`` of ``node``'s children from byte ``start``,
    validated against ``version``: an iterator over them, and the last
    byte listed, or -1 if the listing came back short."""
    children = list(islice(node.iter_children(max(start, 0)), _WALK_BATCH))
    node.lock.check_or_restart(version)
    last = children[-1][0] if len(children) == _WALK_BATCH else -1
    return iter(children), last


def _sorted_changes(delta: dict[int, object]) -> tuple[np.ndarray, np.ndarray]:
    """A change delta as key-sorted ``(uint64 keys, object values)``."""
    n = len(delta)
    keys = np.fromiter(delta.keys(), dtype=np.uint64, count=n)
    values = np.fromiter(delta.values(), dtype=object, count=n)
    order = np.argsort(keys)
    return keys[order], values[order]


def _patch_run(
    run: tuple[np.ndarray, np.ndarray],
    dkeys: np.ndarray,
    dvals: np.ndarray,
    drop_removed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """A new sorted run: ``run`` with the sorted changes applied.

    Present keys take their new value (on a copy of the values) and
    absent keys are inserted at their sorted position.  With
    ``drop_removed`` a ``_REMOVED`` change deletes its key (and an absent
    removal is a no-op); without it the marker is kept as the key's
    value, as the overlay keeps it to shadow main.  ``run`` is left
    untouched.
    """
    vkeys, vvals = run
    n = len(dkeys)
    if drop_removed:
        removed = np.fromiter((v is _REMOVED for v in dvals), dtype=bool, count=n)
    else:
        removed = np.zeros(n, dtype=bool)
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
