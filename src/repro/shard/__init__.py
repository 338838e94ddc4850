"""Sharded serving layer: partition-per-core scale-out for the ALT-index.

- :class:`~repro.shard.sharded.ShardedALTIndex` — N independent
  ALT-index shards behind the standard point/batch API, with vectorized
  scatter-gather batching.
- :class:`~repro.shard.partitioner.RangePartitioner` — learned
  CDF-balanced range splits; shard order is key order.

The serving layer is purely a router: each shard retrains inline on its
own insert path (§III-F), exactly like an unsharded index.
"""

from repro.shard.partitioner import RangePartitioner
from repro.shard.sharded import ShardedALTIndex

__all__ = ["ShardedALTIndex", "RangePartitioner"]
