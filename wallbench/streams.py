"""Seeded operation streams and the dict oracle that checks them.

Every operation is generated against the :class:`Oracle` *before* it
runs, together with the result the index must return, so a stream is a
pure function of the dataset and the seed: it never depends on what the
index answered or how fast it ran.

Streams come in *rounds* with a fixed composition (e.g. exactly 730
gets, 200 inserts, 50 removes and 20 scans per 1000 operations), so two
seeds differ in which keys they touch and in what order, but not in how
much work of each kind a round holds.  That keeps run-to-run spread
down to what the program and the host contribute.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

GET, INSERT, REMOVE, SCAN, BATCH_GET, BATCH_INSERT, BATCH_REMOVE = range(7)
KIND_NAMES = ("get", "insert", "remove", "scan", "batch_get", "batch_insert", "batch_remove")
READ_KINDS = frozenset({GET, BATCH_GET})
WRITE_KINDS = frozenset({INSERT, REMOVE, BATCH_INSERT, BATCH_REMOVE})

ZIPF_THETA = 0.99
SCAN_LENGTH = 100


class Oracle:
    """Expected index contents over a fixed universe of sorted keys.

    ``universe`` holds every key a stream may ever touch; ``loaded``
    marks the bulk-loaded ones.  A key is identified by its position in
    the universe.  Values are unique ints, so a stale value is caught:
    loaded keys carry their position, inserted keys a fresh serial.

    ``live`` lists live positions in *popularity order*: zipf rank ``r``
    reads ``live[r]``.  Loaded keys start in the order ``popularity``
    draws (a scrambled zipfian), inserts append at the cold end, and a
    remove moves the last entry into the freed rank.  The popularity
    order belongs to the workload, not to the seed: whether the hottest
    few keys live in the learned layer or in the ART moves read latency
    by more than the changes the benchmark must resolve.
    """

    def __init__(
        self,
        universe: np.ndarray,
        loaded: np.ndarray,
        popularity: np.random.Generator,
        rng: np.random.Generator,
    ):
        self.keys: list[int] = universe.tolist()
        n = len(self.keys)
        load_pos = np.flatnonzero(loaded)
        self.alive = bytearray(loaded.astype(np.uint8).tobytes())
        self.value: list[int | None] = [None] * n
        for p in load_pos.tolist():
            self.value[p] = p
        self.live: list[int] = popularity.permutation(load_pos).tolist()
        self.where: list[int] = [-1] * n
        for i, p in enumerate(self.live):
            self.where[p] = i
        self.reserve: list[int] = rng.permutation(np.flatnonzero(~loaded)).tolist()
        self.next_reserve = 0
        self.serial = n
        weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_THETA
        self.cdf = np.cumsum(weights)
        self._cdf_list = self.cdf.tolist()

    # -- sampling ---------------------------------------------------------
    def zipf_rank(self, u: float) -> int:
        """Zipf(θ) rank over the current live population for ``u`` in [0, 1)."""
        n = len(self.live)
        return min(bisect.bisect_left(self._cdf_list, u * self._cdf_list[n - 1]), n - 1)

    def zipf_ranks(self, u: np.ndarray) -> list[int]:
        n = len(self.live)
        r = np.searchsorted(self.cdf, u * self.cdf[n - 1])
        return np.minimum(r, n - 1).tolist()

    def reserve_left(self) -> int:
        return len(self.reserve) - self.next_reserve

    # -- mutations --------------------------------------------------------
    def insert_next(self) -> tuple[int, int]:
        """Insert the next reserve key; returns ``(key, value)``."""
        p = self.reserve[self.next_reserve]
        self.next_reserve += 1
        self.serial += 1
        self.value[p] = self.serial
        self.alive[p] = 1
        self.where[p] = len(self.live)
        self.live.append(p)
        return self.keys[p], self.serial

    def remove_position(self, p: int) -> int:
        """Remove the live key at universe position ``p``; returns the key."""
        i = self.where[p]
        last = self.live.pop()
        if last != p:
            self.live[i] = last
            self.where[last] = i
        self.where[p] = -1
        self.alive[p] = 0
        self.value[p] = None
        return self.keys[p]

    # -- expected results ---------------------------------------------------
    def scan_from(self, p: int, count: int) -> list[tuple[int, int]]:
        """The first ``count`` live pairs with key >= ``keys[p]``."""
        out = []
        alive = self.alive
        while p >= 0 and len(out) < count:
            out.append((self.keys[p], self.value[p]))
            p = alive.find(1, p + 1)
        return out


def log_uniform_grid(count: int, lo: int, hi: int) -> np.ndarray:
    """The ``count``-point quantile grid of the log-uniform law on ``[lo, hi]``."""
    u = (np.arange(count) + 0.5) / count
    grid = np.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))
    return np.clip(np.floor(grid), lo, hi).astype(np.int64)


class SizeCycle:
    """Batch sizes log-uniform in ``[lo, hi]``, drawn without noise.

    Yields a ``count``-point quantile grid of the log-uniform law in a
    seeded order, then a fresh order of the same grid, and so on: every
    ``count`` consecutive draws hold exactly the same sizes, so the seed
    decides the order but not the amount of work.
    """

    def __init__(self, rng: np.random.Generator, count: int, lo: int, hi: int):
        self._grid = log_uniform_grid(count, lo, hi)
        self._rng = rng
        self._pending: list[int] = []

    def next(self) -> int:
        if not self._pending:
            self._pending = self._rng.permutation(self._grid).tolist()
        return self._pending.pop()


# An operation is ``(kind, args, expected, nkeys)``.


class PointStream:
    """``point-rw``: scalar get / insert / remove / scan(100)."""

    ROUND = (GET,) * 730 + (INSERT,) * 200 + (REMOVE,) * 50 + (SCAN,) * 20

    def __init__(self, oracle: Oracle, rng: np.random.Generator):
        self.oracle = oracle
        self.rng = rng

    def can_continue(self) -> bool:
        return self.oracle.reserve_left() >= len(self.ROUND)

    def next_round(self) -> list[tuple]:
        o, rng = self.oracle, self.rng
        kinds = [self.ROUND[i] for i in rng.permutation(len(self.ROUND)).tolist()]
        draws = rng.random(len(kinds)).tolist()
        ops = []
        for kind, u in zip(kinds, draws):
            if kind == GET:
                p = o.live[o.zipf_rank(u)]
                ops.append((GET, (o.keys[p],), o.value[p], 1))
            elif kind == INSERT:
                key, value = o.insert_next()
                ops.append((INSERT, (key, value), True, 1))
            elif kind == REMOVE:
                p = o.live[min(int(u * len(o.live)), len(o.live) - 1)]
                ops.append((REMOVE, (o.remove_position(p),), True, 1))
            else:
                p = o.live[o.zipf_rank(u)]
                ops.append((SCAN, (o.keys[p], SCAN_LENGTH), o.scan_from(p, SCAN_LENGTH), 1))
        return ops


class BatchStream:
    """``batch-rw``: batch_get / batch_insert / batch_remove, sizes
    log-uniform in 8..1024.

    The call order inside a round is fixed — every fifth call mutates —
    so each round invalidates the program's sorted-view cache the same
    number of times whatever the seed.  Inserts and removes draw their
    sizes from a :class:`SizeCycle` spanning four rounds.

    The first get after a mutation rebuilds the sorted view, so its
    latency is mostly the rebuild, whatever its size.  So get sizes
    follow a seeded 4x4 Latin square: each round holds the 16-point
    grid once, and over four rounds every size takes every position in
    its block once, so each size pays the rebuild exactly once per four
    rounds.  The seed then cannot shift which sizes the median read
    latency is taken over.
    """

    ROUND = ((BATCH_GET,) * 4 + (BATCH_INSERT,)) * 3 + (BATCH_GET,) * 4 + (BATCH_REMOVE,)
    BLOCK = 4  # gets between two mutations; also the Latin square's period in rounds
    MIN_BATCH, MAX_BATCH = 8, 1024

    def __init__(self, oracle: Oracle, rng: np.random.Generator):
        self.oracle = oracle
        self.rng = rng
        self.sizes = {
            kind: SizeCycle(rng, count, self.MIN_BATCH, self.MAX_BATCH)
            for kind, count in ((BATCH_INSERT, 12), (BATCH_REMOVE, 4))
        }
        self._get_grid = log_uniform_grid(self.BLOCK * self.BLOCK, self.MIN_BATCH, self.MAX_BATCH)
        self._get_rounds: list[list[int]] = []

    def can_continue(self) -> bool:
        return self.oracle.reserve_left() >= self.ROUND.count(BATCH_INSERT) * self.MAX_BATCH

    def _get_sizes(self) -> list[int]:
        """This round's get sizes, in call order."""
        if not self._get_rounds:
            b = self.BLOCK
            square = self.rng.permutation(self._get_grid).reshape(b, b).tolist()
            # Round r puts square[block][j] at position (j + r) % b of its block.
            self._get_rounds = [
                [square[block][(pos - r) % b] for block in range(b) for pos in range(b)]
                for r in range(b)
            ]
        return self._get_rounds.pop(0)

    def next_round(self) -> list[tuple]:
        o, rng = self.oracle, self.rng
        get_sizes = iter(self._get_sizes())
        ops = []
        for kind in self.ROUND:
            size = next(get_sizes) if kind == BATCH_GET else self.sizes[kind].next()
            if kind == BATCH_GET:
                pos = [o.live[r] for r in o.zipf_ranks(rng.random(size))]
                keys = np.array([o.keys[p] for p in pos], dtype=np.uint64)
                ops.append((BATCH_GET, (keys,), [o.value[p] for p in pos], size))
            elif kind == BATCH_INSERT:
                pairs = [o.insert_next() for _ in range(size)]
                keys = np.array([k for k, _ in pairs], dtype=np.uint64)
                ops.append((BATCH_INSERT, (keys, [v for _, v in pairs]), [True] * size, size))
            else:
                idx = rng.choice(len(o.live), size=size, replace=False).tolist()
                pos = [o.live[i] for i in idx]
                keys = np.array([o.remove_position(p) for p in pos], dtype=np.uint64)
                ops.append((BATCH_REMOVE, (keys,), [True] * size, size))
        return ops


class ReadStream:
    """``sharded-read``: batch_get of 256 zipf keys, nothing mutates."""

    CALLS = 64
    BATCH = 256

    def __init__(self, oracle: Oracle, rng: np.random.Generator):
        self.oracle = oracle
        self.rng = rng

    def can_continue(self) -> bool:
        return True

    def next_round(self) -> list[tuple]:
        o, rng = self.oracle, self.rng
        ops = []
        for _ in range(self.CALLS):
            pos = [o.live[r] for r in o.zipf_ranks(rng.random(self.BATCH))]
            keys = np.array([o.keys[p] for p in pos], dtype=np.uint64)
            ops.append((BATCH_GET, (keys,), [o.value[p] for p in pos], self.BATCH))
        return ops
