"""Sharded serving layer (repro.shard): differential + chaos coverage.

Acceptance (ISSUE 10):

1. **Differential property harness** — seeded random op streams (point
   ops, ranges, and batch ops with duplicate keys and
   tombstone-reinserts) replay against a :class:`ShardedALTIndex`, a
   single :class:`ALTIndex`, and a dict oracle; results and terminal
   sizes must agree at shard counts 1, 2, and 7, and batch CostTrace
   totals must equal the scalar loop's at every shard count.
2. **Rebalance edges** — permanently empty shards, all-keys-in-one-shard
   skew under a Zipf-routed probe, and partitioner split points falling
   exactly on present keys.
3. **Chaos schedules** — the ``shard`` protocol case is registered in
   ``CASE_BUILDERS`` (clean schedules linearizable, the planted shared-gather
   mutant detected and replayable).
4. **Observatory** — the recorded ``BENCH_10.json`` carries sharded and
   unsharded scaling points and stays comparable against ``BENCH_8``.
"""

import json

import numpy as np
import pytest

from repro.bench.regress import compare, repo_root
from repro.chaos.protocols import (
    CASE_BUILDERS,
    EXHAUSTIVE_CASES,
    build_shard_case,
    find_violating_seed,
    run_schedule,
)
from repro.core.alt_index import ALTIndex
from repro.shard import RangePartitioner, ShardedALTIndex
from repro.sim.trace import tracer

SHARD_COUNTS = (1, 2, 7)


def _universe(seed: int = 12345, size: int = 4_000):
    """Sorted unique keys in a narrow band.

    Every generated key stays inside the loaded range so runtime inserts
    exercise slot placement and the ART conflict path rather than
    triggering far-out-of-range expansions.
    """
    rng = np.random.default_rng(seed)
    pool = np.arange(1_000_000, 1_000_000 + 20_000, dtype=np.uint64)
    return np.sort(rng.choice(pool, size=size, replace=False))


def _build_pair(shards: int, seed: int = 12345):
    """A sharded index, an unsharded reference, and a dict oracle —
    bulk-loaded identically on half the universe."""
    universe = _universe(seed)
    load = universe[::2]
    values = [f"v{int(k)}" for k in load]
    sharded = ShardedALTIndex.bulk_load(load, list(values), shards=shards)
    reference = ALTIndex.bulk_load(load, list(values))
    oracle = dict(zip((int(k) for k in load), values))
    return universe, sharded, reference, oracle


class TestDifferential:
    """Random op streams: sharded vs. unsharded vs. dict oracle."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_op_stream_agrees(self, shards):
        self._run_stream(shards)

    def _run_stream(self, shards, n_ops=300, seed=7):
        universe, sharded, reference, oracle = _build_pair(shards)
        rng = np.random.default_rng(seed)
        kinds = [
            "get", "insert", "update", "remove", "reinsert",
            "range", "scan", "batch_get", "batch_insert", "batch_remove",
        ]
        for step in range(n_ops):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "get":
                k = int(rng.choice(universe))
                got = sharded.get(k)
                assert got == reference.get(k) == oracle.get(k)
            elif kind == "insert":
                k, v = int(rng.choice(universe)), f"s{step}"
                rs, rr = sharded.insert(k, v), reference.insert(k, v)
                assert rs == rr == (k not in oracle)
                oracle[k] = v  # upsert semantics either way
            elif kind == "update":
                k, v = int(rng.choice(universe)), f"u{step}"
                rs, rr = sharded.update(k, v), reference.update(k, v)
                assert rs == rr == (k in oracle)
                if k in oracle:
                    oracle[k] = v
            elif kind == "remove":
                k = int(rng.choice(universe))
                rs, rr = sharded.remove(k), reference.remove(k)
                assert rs == rr == (oracle.pop(k, None) is not None)
            elif kind == "reinsert":
                # Tombstone-reinsert: remove a present key, put it back.
                present = [k for k in oracle if True]
                if not present:
                    continue
                k = present[int(rng.integers(len(present)))]
                assert sharded.remove(k) and reference.remove(k)
                del oracle[k]
                v = f"r{step}"
                assert sharded.insert(k, v) and reference.insert(k, v)
                oracle[k] = v
            elif kind == "range":
                lo, hi = sorted(int(k) for k in rng.choice(universe, size=2))
                expected = sorted(
                    (k, v) for k, v in oracle.items() if lo <= k <= hi
                )
                assert sharded.range_query(lo, hi) == expected
                assert reference.range_query(lo, hi) == expected
            elif kind == "scan":
                lo = int(rng.choice(universe))
                count = int(rng.integers(1, 17))
                expected = sorted(
                    (k, v) for k, v in oracle.items() if k >= lo
                )[:count]
                assert sharded.scan(lo, count) == expected
                assert reference.scan(lo, count) == expected
            elif kind == "batch_get":
                batch = rng.choice(universe, size=32, replace=True)
                expected = [oracle.get(int(k)) for k in batch]
                assert sharded.batch_get(batch) == expected
                assert reference.batch_get(batch) == expected
            elif kind == "batch_insert":
                batch = rng.choice(universe, size=16, replace=True)
                vals = [f"b{step}.{j}" for j in range(len(batch))]
                expected = []
                for k, v in zip((int(k) for k in batch), vals):
                    expected.append(k not in oracle)
                    oracle[k] = v
                rs = sharded.batch_insert(batch, list(vals))
                rr = reference.batch_insert(batch, list(vals))
                assert rs.tolist() == rr.tolist() == expected
            elif kind == "batch_remove":
                batch = rng.choice(universe, size=16, replace=True)
                expected = [
                    oracle.pop(int(k), None) is not None for k in batch
                ]
                rs = sharded.batch_remove(batch)
                rr = reference.batch_remove(batch)
                assert rs.tolist() == rr.tolist() == expected
        # Terminal state: sizes and a full sweep agree everywhere.
        assert len(sharded) == len(reference) == len(oracle)
        sweep = sharded.batch_get(universe)
        assert sweep == reference.batch_get(universe)
        assert sweep == [oracle.get(int(k)) for k in universe]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_trace_totals_equal_scalar_loop(self, shards):
        """The merged cross-shard trace equals the scalar loop's totals."""
        universe, sharded, _, _ = _build_pair(shards)
        probe = np.random.default_rng(3).choice(universe, size=64, replace=True)
        with tracer() as ts:
            expected = [sharded.get(int(k)) for k in probe]
        with tracer() as tb:
            got = sharded.batch_get(probe)
        assert got == expected
        assert tb.scalars() == ts.scalars()
        assert sorted(tb.reads) == sorted(ts.reads)
        assert sorted(tb.writes) == sorted(ts.writes)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_insert_trace_totals_equal_scalar_loop(self, shards):
        """Write batches trace-merge losslessly too (twin indexes)."""
        universe = _universe()
        load = universe[::2]
        values = [f"v{int(k)}" for k in load]
        a = ShardedALTIndex.bulk_load(load, list(values), shards=shards)
        b = ShardedALTIndex.bulk_load(load, list(values), shards=shards)
        fresh = np.setdiff1d(universe, load)[:48]
        vals = [f"n{j}" for j in range(len(fresh))]
        with tracer() as ts:
            expected = [a.insert(int(k), v) for k, v in zip(fresh, vals)]
        with tracer() as tb:
            got = b.batch_insert(fresh, list(vals))
        assert got.tolist() == expected
        assert tb.scalars() == ts.scalars()


class TestRebalanceEdges:
    def test_permanently_empty_shard(self):
        """A degenerate split leaves shard 1 owning the empty interval
        (500, 500]; everything must still behave."""
        part = RangePartitioner(np.array([500, 500], dtype=np.uint64))
        keys = np.array([10, 20, 600, 700], dtype=np.uint64)
        idx = ShardedALTIndex.bulk_load(
            keys, ["a", "b", "c", "d"], partitioner=part
        )
        stats = idx.stats()
        assert stats["keys_per_shard"] == [2, 0, 2]
        assert stats["imbalance"] > 1.0
        assert idx.batch_get(keys) == ["a", "b", "c", "d"]
        assert idx.range_query(0, 1000) == [
            (10, "a"), (20, "b"), (600, "c"), (700, "d")
        ]
        assert idx.scan(15, 3) == [(20, "b"), (600, "c"), (700, "d")]
        # The empty shard accepts inserts routed into its interval edge.
        assert idx.get(500) is None

    def test_all_keys_in_one_shard_zipf_skew(self):
        """Splits beyond the key range starve every shard but the first;
        a Zipf-weighted probe then hammers that one shard."""
        universe = _universe(99, size=1_000)
        top = int(universe[-1])
        part = RangePartitioner(
            np.array([top + 1, top + 2, top + 3], dtype=np.uint64)
        )
        values = [f"v{int(k)}" for k in universe]
        idx = ShardedALTIndex.bulk_load(universe, list(values), partitioner=part)
        reference = ALTIndex.bulk_load(universe, list(values))
        stats = idx.stats()
        assert stats["keys_per_shard"] == [len(universe), 0, 0, 0]
        assert stats["imbalance"] == 4.0
        rng = np.random.default_rng(5)
        ranks = np.minimum(
            rng.zipf(1.3, size=256).astype(np.int64), len(universe)
        ) - 1
        probe = universe[ranks]
        assert idx.batch_get(probe) == reference.batch_get(probe)
        # Single-part scatter: no cross-shard fan-out for this batch.
        parts = idx.scatter(probe)
        assert [s for s, _, _ in parts] == [0]

    def test_split_points_on_present_keys(self):
        """CDF splits sampled from the loaded keys land *on* keys; a key
        equal to a split must route to the shard that owns it."""
        universe = _universe(11, size=512)
        values = [f"v{int(k)}" for k in universe]
        part = RangePartitioner.from_sample(universe, 4)
        assert all(int(s) in set(universe.tolist()) for s in part.splits)
        idx = ShardedALTIndex.bulk_load(universe, list(values), partitioner=part)
        reference = ALTIndex.bulk_load(universe, list(values))
        for split in part.splits:
            k = int(split)
            # shard_of and route_batch agree on the boundary key...
            assert part.shard_of(k) == int(
                part.route_batch(np.array([k], dtype=np.uint64))[0]
            )
            # ...and the boundary key is present in exactly one shard.
            assert idx.get(k) == f"v{k}"
            assert sum(1 for s in idx.shards if s.get(k) is not None) == 1
            # Remove/reinsert across the boundary stays consistent.
            assert idx.remove(k) and reference.remove(k)
            assert idx.get(k) is None
            assert idx.insert(k, "back") and reference.insert(k, "back")
            assert idx.get(k) == "back" == reference.get(k)
        # A range straddling every split equals the unsharded answer.
        lo, hi = int(universe[0]), int(universe[-1])
        assert idx.range_query(lo, hi) == reference.range_query(lo, hi)


class TestShardChaos:
    def test_registered_in_runners(self):
        assert CASE_BUILDERS["shard"] is build_shard_case
        assert "shard" in EXHAUSTIVE_CASES

    @pytest.mark.parametrize("seed", range(3))
    def test_clean_cross_shard_batch_linearizable(self, seed):
        report = run_schedule("shard", seed)
        assert report.ok, report.check.reason
        assert not report.crashed
        # The batcher's per-key records share one batch window each.
        gets = [o for o in report.ops if o.task == "batcher"]
        assert len(gets) == 6  # 2 batches x 3 keys
        assert all(o.op == "get" for o in gets)

    def test_planted_shared_gather_detected(self):
        report = find_violating_seed("shard", range(16))
        assert report is not None, "no seed exposed the shared-gather bug"
        assert not report.ok
        replay = run_schedule("shard", report.seed, planted=True)
        assert replay.fingerprint == report.fingerprint
        assert not replay.ok


class TestObservatory:
    def test_bench_10_recorded_and_comparable(self):
        root = repo_root()
        with open(root / "BENCH_10.json") as fh:
            current = json.load(fh)
        with open(root / "BENCH_8.json") as fh:
            baseline = json.load(fh)
        assert current["bench_id"] == 10
        sharded = current["sharded"]
        assert [r["shards"] for r in sharded["rows"]] == [1, 4]
        assert all(r["lane_us_op"] > 0 for r in sharded["rows"])
        # The primary cell stays the standard configuration, so the doc
        # is regression-comparable against the pre-sharding baseline.
        failures, _ = compare(current, baseline)
        assert failures == []
