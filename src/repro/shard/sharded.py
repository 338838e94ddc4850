"""``ShardedALTIndex``: the scatter-gather serving layer.

One logical :class:`~repro.common.OrderedIndex` over N independent
:class:`~repro.core.alt_index.ALTIndex` shards.  A learned
:class:`~repro.shard.partitioner.RangePartitioner` owns the key-space
split; everything else is routing:

- **point ops** resolve the shard with one ``shard_of`` call and
  delegate — the per-shard concurrency protocols are untouched, so two
  operations on different shards never contend;
- **batch ops** scatter: one vectorized ``route_batch`` over the whole
  key array, a stable argsort groups keys into per-shard sub-batches,
  each shard runs its own vectorized batch path, and the gather phase
  writes results back in original batch order.

Observability rides along: ``shard.route`` / ``shard.scatter`` /
``shard.gather`` spans attribute the router's cost, same-named chaos
points make cross-shard batches schedulable (a chaos scheduler can park
a batch between two sub-batches — exactly the window the shard protocol
case exercises), and ``shard.*`` metrics count routed keys and
cross-shard fan-out.

Cost tracing needs no router support: under an active
:func:`~repro.sim.trace.tracer`, each shard's batch call runs its
scalar per-key loop, which records straight into the caller's trace —
aggregate totals equal the scalar loop over the same sharded index, so
the simulator prices sharded runs exactly like unsharded ones.

Batch fast paths inherit the :class:`~repro.common.BatchIndex` caveat:
no *concurrent* writers to the same shard.  Cross-shard concurrency is
exactly what sharding buys — writers on shard A never race a sub-batch
on shard B.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import chaos
from repro.common import OrderedIndex, as_value_array, unique_tag
from repro.core.alt_index import ALTIndex
from repro.obs import metrics as obs_metrics
from repro.obs.spans import current_profile
from repro.shard.partitioner import RangePartitioner
from repro.sim.trace import MemoryMap, global_memory

__all__ = ["ShardedALTIndex"]

#: load keys sampled to learn the default split points
_SAMPLE_SIZE = 4096


class ShardedALTIndex(OrderedIndex):
    """N independent ALT-index shards behind the point/batch API."""

    NAME = "Sharded-ALT"

    def __init__(self, *, partitioner, shards: list, tag: str | None = None) -> None:
        if partitioner.nshards != len(shards):
            raise ValueError(
                f"partitioner routes to {partitioner.nshards} shards but "
                f"{len(shards)} were provided"
            )
        self._partitioner = partitioner
        self._shards = list(shards)
        self.mem_tag = tag or unique_tag("shard")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        keys: np.ndarray,
        values: Sequence | None = None,
        *,
        shards: int = 4,
        partitioner: RangePartitioner | None = None,
        memory: MemoryMap | None = None,
        tag: str | None = None,
        **options,
    ) -> "ShardedALTIndex":
        """Partition sorted duplicate-free keys across ``shards`` ALT-indexes.

        Without a ``partitioner``, split points are learned from a
        sample of about 4,096 load keys
        (:meth:`RangePartitioner.from_sample`); a ready partitioner pins
        the splits instead (its ``nshards`` wins).  Remaining
        ``options`` go to every shard's
        :meth:`~repro.core.alt_index.ALTIndex.bulk_load`.  Empty shards —
        a skewed sample can starve one — are legal: they bulk-load an
        empty key array and grow by inserts.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        if partitioner is None:
            partitioner = RangePartitioner.from_sample(
                keys[:: max(1, len(keys) // _SAMPLE_SIZE)], shards
            )
        tag = tag or unique_tag("shard")
        memory = memory or global_memory()
        sid = partitioner.route_batch(keys)
        shard_list = []
        for s in range(partitioner.nshards):
            mask = sid == s
            sub_keys = keys[mask]
            if isinstance(values, np.ndarray):
                sub_values = values[mask]
            else:
                sub_values = [values[i] for i in np.flatnonzero(mask)]
            shard_list.append(
                ALTIndex.bulk_load(
                    sub_keys,
                    sub_values,
                    memory=memory,
                    tag=f"{tag}/s{s}",
                    **options,
                )
            )
        return cls(partitioner=partitioner, shards=shard_list, tag=tag)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def nshards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list:
        return self._shards

    @property
    def partitioner(self):
        return self._partitioner

    def _shard_for(self, key: int):
        chaos.point("shard.route")
        prof = current_profile()
        if prof is not None:
            prof.enter("shard.route")
        sid = self._partitioner.shard_of(key)
        if prof is not None:
            prof.exit()
        return self._shards[sid]

    def scatter(self, keys) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Split a key batch into per-shard sub-batches.

        Returns ``(shard_id, positions, sub_keys)`` triples in shard
        order, empty shards omitted.  ``positions`` are the original
        batch indexes of ``sub_keys`` (ascending — the argsort is
        stable), which is what the gather phase inverts.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        chaos.point("shard.route")
        prof = current_profile()
        if prof is not None:
            prof.enter("shard.route")
        sid = self._partitioner.route_batch(keys)
        if prof is not None:
            prof.exit()
            prof.enter("shard.scatter")
        order = np.argsort(sid, kind="stable")
        bounds = np.searchsorted(sid[order], np.arange(self.nshards + 1))
        parts = [
            (s, order[bounds[s] : bounds[s + 1]], keys[order[bounds[s] : bounds[s + 1]]])
            for s in range(self.nshards)
            if bounds[s] != bounds[s + 1]
        ]
        if prof is not None:
            prof.exit()
        obs_metrics.inc("shard.routed_keys", len(keys))
        if len(parts) > 1:
            obs_metrics.inc("shard.cross_shard_batches")
        return parts

    def _gather(self, n: int, parts, results) -> list:
        chaos.point("shard.gather")
        prof = current_profile()
        if prof is not None:
            prof.enter("shard.gather")
        out = np.empty(n, dtype=object)
        for (_s, pos, _sub), vals in zip(parts, results):
            # fromiter keeps each result one object: a tuple or list
            # value is never broadcast across positions.
            out[pos] = np.fromiter(vals, object, len(pos))
        if prof is not None:
            prof.exit()
        return out.tolist()

    # ------------------------------------------------------------------
    # point operations
    # ------------------------------------------------------------------
    def get(self, key: int):
        return self._shard_for(key).get(key)

    def insert(self, key: int, value) -> bool:
        return self._shard_for(key).insert(key, value)

    def update(self, key: int, value) -> bool:
        return self._shard_for(key).update(key, value)

    def remove(self, key: int) -> bool:
        return self._shard_for(key).remove(key)

    # ------------------------------------------------------------------
    # batch operations (scatter-gather)
    # ------------------------------------------------------------------
    def _scatter_gather(self, keys: np.ndarray, run) -> list:
        """Scatter, run ``run(shard, positions, sub_keys)`` per shard, gather."""
        parts = self.scatter(keys)
        results = []
        for s, pos, sub in parts:
            chaos.point("shard.scatter")
            results.append(run(self._shards[s], pos, sub))
        obs_metrics.inc("shard.batch_ops")
        return self._gather(len(keys), parts, results)

    def batch_get(self, keys: Iterable[int] | np.ndarray) -> list:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return []
        return self._scatter_gather(keys, lambda shard, _pos, sub: shard.batch_get(sub))

    def batch_insert(
        self, keys: Iterable[int] | np.ndarray, values: Sequence | None = None
    ) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        if len(keys) == 0:
            return np.empty(0, dtype=bool)

        def run(shard, pos, sub):
            if isinstance(values, np.ndarray):
                return shard.batch_insert(sub, values[pos])
            return shard.batch_insert(sub, [values[i] for i in pos.tolist()])

        return np.array(self._scatter_gather(keys, run), dtype=bool)

    def batch_remove(self, keys: Iterable[int] | np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if len(keys) == 0:
            return np.empty(0, dtype=bool)
        flags = self._scatter_gather(
            keys, lambda shard, _pos, sub: shard.batch_remove(sub)
        )
        return np.array(flags, dtype=bool)

    # ------------------------------------------------------------------
    # range operations
    # ------------------------------------------------------------------
    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        out: list[tuple[int, object]] = []
        for s in range(self._partitioner.shard_of(lo), self.nshards):
            if len(out) >= count:
                break
            out.extend(self._shards[s].scan(lo, count - len(out)))
        return out

    def range_query(self, lo: int, hi: int) -> list[tuple[int, object]]:
        first = self._partitioner.shard_of(lo)
        last = self._partitioner.shard_of(hi)
        out: list[tuple[int, object]] = []
        for s in range(first, last + 1):
            out.extend(self._shards[s].range_query(lo, hi))
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def stats(self) -> dict:
        """Aggregated rollup: per-shard stats plus serving-layer gauges.

        ``imbalance`` is max-shard-keys over mean-shard-keys (1.0 is a
        perfectly balanced partition); the health rollup keeps the worst
        per-shard drift/occupancy values, mirroring how the per-index
        health monitor keeps worst-model values.
        """
        per_shard = [shard.stats() for shard in self._shards]
        sizes = [len(shard) for shard in self._shards]
        total = sum(sizes)
        mean = total / max(self.nshards, 1)
        imbalance = (max(sizes) / mean) if mean > 0 else 1.0
        rollup = {
            "shards": self.nshards,
            "keys_per_shard": sizes,
            "imbalance": round(imbalance, 4),
            "model_count": sum(s.get("model_count", 0) for s in per_shard),
            "conflict_inserts": sum(s.get("conflict_inserts", 0) for s in per_shard),
            "writebacks": sum(s.get("writebacks", 0) for s in per_shard),
            "expansions": sum(s.get("expansions", 0) for s in per_shard),
            "recoveries": sum(s.get("recoveries", 0) for s in per_shard),
            "memory_bytes": self.memory_bytes(),
            "per_shard": per_shard,
        }
        healths = [s.get("health") for s in per_shard if s.get("health")]
        if healths:
            # Worst-shard rollup, mirroring the per-index monitor's
            # worst-model convention; backlog sums across shards.
            rollup["health"] = {
                "occupancy_min": min(h["occupancy"] for h in healths),
                "tombstone_fraction_max": max(h["tombstone_fraction"] for h in healths),
                "spill_fraction_max": max(h["spill_fraction"] for h in healths),
                "drift_ratio_max": max(h["drift"]["ratio_max"] for h in healths),
                "retrain_backlog": sum(h["retrain"]["backlog"] for h in healths),
                "active_expansions": sum(h["retrain"]["active"] for h in healths),
            }
        reg = obs_metrics.active_registry()
        if reg is not None:
            reg.set_gauge("shard.count", self.nshards)
            reg.set_gauge("shard.imbalance", imbalance)
        return rollup
