"""Sharded serving layer: partition-per-core scale-out for the ALT-index.

- :class:`~repro.shard.sharded.ShardedALTIndex` — N independent
  ALT-index shards behind the standard point/batch API, with vectorized
  scatter-gather batching.
- :mod:`repro.shard.partitioner` — learned CDF-balanced range splits
  and splitmix64 hash partitioning.

The serving layer is purely a router: each shard retrains inline on its
own insert path (§III-F), exactly like an unsharded index.
"""

from repro.shard.partitioner import HashPartitioner, RangePartitioner, make_partitioner
from repro.shard.sharded import ShardedALTIndex

__all__ = [
    "ShardedALTIndex",
    "RangePartitioner",
    "HashPartitioner",
    "make_partitioner",
]
