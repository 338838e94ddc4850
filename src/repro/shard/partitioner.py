"""Learned range partitioning for the sharded serving layer.

:class:`RangePartitioner` is a *learned* partitioner in the same spirit
as the index itself: split points are positional quantiles of a sorted
dataset sample, i.e. points where the empirical CDF crosses
``i / nshards``.  Shards come out balanced for whatever distribution
the sample came from, and shard order equals key order, so scans and
range queries concatenate per-shard results without a merge.

Routing is vectorized: ``route_batch`` maps a whole ``uint64`` key array
to shard ids with one ``np.searchsorted``, which is what keeps the
scatter phase of :class:`repro.shard.sharded.ShardedALTIndex` cheap
relative to the per-shard probes it fans out to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RangePartitioner"]


class RangePartitioner:
    """CDF-balanced range partitioning over sorted split points.

    Shard ``i`` owns the half-open key interval
    ``(splits[i-1], splits[i]]`` (first shard: everything up to and
    including ``splits[0]``; last shard: everything above
    ``splits[-1]``).  A key *equal* to a split point therefore belongs
    to the shard on its left — tests cover exactly this boundary.
    """

    def __init__(self, splits) -> None:
        splits = np.asarray(splits, dtype=np.uint64)
        if len(splits) and np.any(splits[1:] < splits[:-1]):
            raise ValueError("split points must be non-decreasing")
        self.splits = splits
        self.nshards = len(splits) + 1

    @classmethod
    def from_sample(cls, sample, nshards: int) -> "RangePartitioner":
        """Learn split points from a dataset sample.

        The ``i``-th split is the sample key at positional quantile
        ``i / nshards`` — where the empirical CDF of the sample crosses
        that mass — so each shard receives an equal share of the
        *sample*, hence (approximately) of the dataset it was drawn
        from.  A degenerate sample (empty, or with heavy duplicates)
        yields repeated splits and therefore empty shards, which the
        serving layer tolerates.
        """
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        sample = np.sort(np.asarray(sample, dtype=np.uint64))
        if nshards == 1 or len(sample) == 0:
            return cls(np.empty(0, dtype=np.uint64))
        pos = (np.arange(1, nshards) * len(sample)) // nshards
        pos = np.clip(pos - 1, 0, len(sample) - 1)
        splits = np.maximum.accumulate(sample[pos])
        return cls(splits)

    def shard_of(self, key: int) -> int:
        return int(np.searchsorted(self.splits, np.uint64(key), side="left"))

    def route_batch(self, keys: np.ndarray) -> np.ndarray:
        """Shard id per key: one searchsorted over the split points."""
        return np.searchsorted(self.splits, keys, side="left")
