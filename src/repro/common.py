"""The ordered-index protocol every index in this repository implements.

The benchmark harness is index-agnostic: ALT-index and every competitor
(ALEX+, LIPP+, XIndex, FINEdex, ART, B+-tree) expose exactly this
interface, so an experiment is just a cross product of
(index factory × dataset × workload × thread count).
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

from repro.sim.trace import global_memory


class BatchIndex:
    """Mixin: vectorized batch operations over an ordered index.

    Every :class:`OrderedIndex` inherits these generic, loop-based
    implementations for free; indexes whose data layout allows it
    (contiguous model arrays, sorted slot arrays) override them with
    NumPy-vectorized fast paths.  See ``docs/API.md`` for the contract.

    Two invariants every override must preserve:

    1. **Result equivalence** — ``batch_get(keys)`` returns exactly
       ``[self.get(k) for k in keys]``, including ``None`` for misses and
       duplicate keys resolved identically.
    2. **Trace equivalence** — under an active
       :func:`repro.sim.trace.tracer`, a batch operation accumulates the
       same aggregate :class:`~repro.sim.trace.CostTrace` totals as the
       equivalent per-key loop (overrides delegate to the scalar path
       when a tracer is active, so equality holds by construction and
       ``repro.sim`` results are unchanged).

    Batch fast paths read index internals without per-slot seqlock
    validation, so they assume no *concurrent* writers (the scalar
    operations remain safe under the paper's concurrency protocols);
    interleaving batch calls with scalar mutations from the same thread
    is always safe.  The baselines resolve a batch through one
    :class:`SortedView` (one ``searchsorted`` for the whole batch) and
    replay repeated keys of a write batch through the scalar path
    (:func:`first_occurrences`).
    """

    def batch_get(self, keys: Iterable[int] | np.ndarray) -> list:
        """Values for ``keys`` in order (``None`` where absent)."""
        get = self.get
        return [get(int(k)) for k in keys]

    def batch_insert(
        self, keys: Iterable[int] | np.ndarray, values: Sequence | None = None
    ) -> np.ndarray:
        """Insert many pairs; returns a bool array of newly-inserted flags.

        ``values`` defaults to the keys themselves (SOSD convention).
        Duplicate keys within the batch behave like sequential inserts:
        the first occurrence inserts, later ones update.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        insert = self.insert
        out = np.empty(len(keys), dtype=bool)
        for i in range(len(keys)):
            out[i] = insert(int(keys[i]), values[i])
        return out

    def batch_remove(self, keys: Iterable[int] | np.ndarray) -> np.ndarray:
        """Remove many keys; returns a bool array of was-present flags."""
        remove = self.remove
        return np.array([remove(int(k)) for k in keys], dtype=bool)

    def batch_range(
        self, lo: int, hi: int, limit: int | None = None
    ) -> list[tuple[int, object]]:
        """Sorted pairs with ``lo <= key <= hi``, truncated to ``limit``."""
        if limit is None:
            return self.range_query(lo, hi)
        if limit <= 0:
            return []
        return [pair for pair in self.scan(lo, limit) if pair[0] <= hi]


class OrderedIndex(BatchIndex, abc.ABC):
    """A concurrent ordered key-value index over uint64 keys."""

    #: Human-readable name used in benchmark tables.
    NAME: str = "index"

    #: Modeled-memory allocation tag; memory experiments sum live bytes
    #: with this prefix.
    mem_tag: str = "index"

    # -- construction --------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def bulk_load(cls, keys: np.ndarray, values: Sequence | None = None, **options) -> "OrderedIndex":
        """Build from sorted, duplicate-free keys (§IV-A: 50% bulk load)."""

    # -- point operations -----------------------------------------------------
    @abc.abstractmethod
    def get(self, key: int):
        """Value for ``key`` or None."""

    @abc.abstractmethod
    def insert(self, key: int, value) -> bool:
        """Insert; True if newly inserted (existing keys are updated)."""

    @abc.abstractmethod
    def remove(self, key: int) -> bool:
        """Delete; True if the key was present."""

    def update(self, key: int, value) -> bool:
        """Update an existing key in place; default via get+insert."""
        if self.get(key) is None:
            return False
        self.insert(key, value)
        return True

    # -- range operations --------------------------------------------------------
    @abc.abstractmethod
    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        """Up to ``count`` sorted pairs with key >= lo."""

    def range_query(self, lo: int, hi: int) -> list[tuple[int, object]]:
        """All pairs with lo <= key <= hi (default via scan batches)."""
        out: list[tuple[int, object]] = []
        cursor = lo
        while True:
            batch = self.scan(cursor, 256)
            for k, v in batch:
                if k > hi:
                    return out
                out.append((k, v))
            # Stopping at hi also keeps the cursor inside uint64 when the
            # largest key is 2**64 - 1.
            if not batch or batch[-1][0] >= hi:
                return out
            cursor = batch[-1][0] + 1

    # -- accounting ---------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Live modeled bytes attributed to this index."""
        mem = getattr(self, "_memory", None) or global_memory()
        return sum(
            b for tag, b in mem.live_bytes_by_tag().items() if tag.startswith(self.mem_tag)
        )

    def stats(self) -> dict:
        """Index-specific diagnostics (overridden where interesting)."""
        return {}


def as_value_array(keys: np.ndarray, values) -> np.ndarray | Sequence:
    """Default values = the keys themselves (SOSD convention)."""
    if values is None:
        return keys
    if len(values) != len(keys):
        raise ValueError("values must align with keys")
    return values


_TAG_COUNTER = [0]


def unique_tag(prefix: str) -> str:
    """Distinct memory tag per index instance, e.g. ``alex#3``."""
    _TAG_COUNTER[0] += 1
    return f"{prefix}#{_TAG_COUNTER[0]}"


def sorted_hits(sorted_keys: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, hit)`` per probe key: its ``searchsorted`` position in
    ``sorted_keys`` and whether the key is present at that position."""
    pos = np.searchsorted(sorted_keys, probe)
    if len(sorted_keys) == 0:
        return pos, np.zeros(len(probe), dtype=bool)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == probe


def first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``(first_mask, dup_idx)``: which positions hold the first
    occurrence of their key, and the ascending positions of the rest
    (a write batch replays those through the scalar path)."""
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    return first, np.flatnonzero(~first).tolist()


class SortedView:
    """One cached, globally sorted key array over an index's containers.

    ``build()`` yields one ``(container, keys, slots)`` part per node,
    leaf or group, in key order: each part's keys are sorted and lie
    below the next part's, so the concatenation is sorted and a whole
    batch resolves with one ``searchsorted``.  ``slots[j]`` locates
    ``keys[j]`` inside its container.  Values are read live through
    ``(container, slot)``, so value updates keep the view valid; any
    structural change (a key appears or disappears, a container splits
    or compacts) must call :meth:`invalidate`.
    """

    __slots__ = ("_build", "_arrays")

    def __init__(self, build):
        self._build = build
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def invalidate(self) -> None:
        self._arrays = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, containers, slots)``, one entry per key (``containers``
        is an object array); rebuilt on first use after :meth:`invalidate`."""
        if self._arrays is None:
            parts = [p for p in self._build() if len(p[1])]
            owners = np.empty(len(parts), dtype=object)
            owners[:] = [c for c, _, _ in parts]
            counts = [len(k) for _, k, _ in parts]
            self._arrays = (
                np.concatenate([k for _, k, _ in parts] or [np.empty(0, np.uint64)]),
                np.repeat(owners, counts),
                np.concatenate([s for _, _, s in parts] or [np.empty(0, np.int64)]),
            )
        return self._arrays

    def find(self, probe: np.ndarray) -> tuple[np.ndarray, list, list[int]]:
        """``(hit_i, containers, slots)``: the positions in ``probe`` of the
        keys present, and per hit the container and slot holding it."""
        keys, owners, slots = self.arrays()
        pos, hit = sorted_hits(keys, probe)
        hit_i = np.flatnonzero(hit)
        hp = pos[hit_i]
        return hit_i, owners[hp].tolist(), slots[hp].tolist()
