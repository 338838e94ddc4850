"""BatchIndex invariants, asserted for EVERY index implementation.

docs/API.md states two invariants for the vectorized batch layer:

1. Result equivalence — every ``batch_*`` call returns exactly what the
   per-key scalar loop would, including misses, duplicates, and after
   arbitrary mutations / retrains / expansions.
2. Trace equivalence — under an active tracer, batch calls accumulate
   the same aggregate CostTrace totals as the scalar loop.

These tests drive both through mutation sequences chosen to hit the
fast-path invalidation machinery: ALT-index snapshot stamps and the
ART's delta-patched sorted view, ALEX+/B+tree flat views across
splits, and ALT-index expansion buffers (batch lookups during and
after a retrain).
"""

import numpy as np
import pytest

from repro.baselines import (
    AlexIndex,
    ArtIndex,
    BPlusTreeIndex,
    FINEdex,
    LippIndex,
    XIndex,
)
from repro.baselines.rmi import TwoStageRMI
from repro.common import BatchIndex
from repro.core.alt_index import ALTIndex
from repro.obs.metrics import metrics_registry
from repro.sim.trace import MemoryMap, tracer

pytestmark = pytest.mark.batch

ALL_INDEXES = [
    ALTIndex,
    AlexIndex,
    LippIndex,
    FINEdex,
    XIndex,
    ArtIndex,
    BPlusTreeIndex,
]

IDS = [cls.NAME for cls in ALL_INDEXES]


def scalar_gets(idx, keys):
    return [idx.get(int(k)) for k in keys]


@pytest.fixture(params=ALL_INDEXES, ids=IDS)
def built(request, sorted_keys, rng):
    """Index bulk-loaded with half the keys, plus probe mixes."""
    cls = request.param
    half = sorted_keys[::2].copy()
    rest = sorted_keys[1::2]
    idx = cls.bulk_load(half, memory=MemoryMap())
    probe = np.concatenate(
        [
            rng.choice(half, size=400),  # hits (with duplicates)
            rest[:200],  # misses inside the key range
            np.array([0, 1, 2**63], dtype=np.uint64),  # far outside
        ]
    ).astype(np.uint64)
    rng.shuffle(probe)
    return idx, half, rest, probe


class TestBatchGet:
    def test_matches_scalar(self, built):
        idx, _, _, probe = built
        assert idx.batch_get(probe) == scalar_gets(idx, probe)

    def test_empty_batch(self, built):
        idx, _, _, _ = built
        assert idx.batch_get(np.empty(0, dtype=np.uint64)) == []
        assert idx.batch_get([]) == []

    def test_duplicate_keys(self, built):
        idx, half, rest, _ = built
        dup = np.repeat(np.concatenate([half[:5], rest[:5]]), 3).astype(np.uint64)
        assert idx.batch_get(dup) == scalar_gets(idx, dup)

    def test_accepts_python_lists(self, built):
        idx, half, _, _ = built
        keys = [int(k) for k in half[:10]]
        assert idx.batch_get(keys) == scalar_gets(idx, keys)

    def test_after_mutations(self, built):
        """Inserts (new + value updates), removes, then re-probe.

        Enough new keys to split ALEX+/B+tree nodes and dirty the
        ALT-index snapshot, so stale caches would be caught here.
        """
        idx, half, rest, probe = built
        for k in rest[:800]:
            idx.insert(int(k), int(k) * 7)
        for k in half[:100]:
            idx.insert(int(k), "updated")  # value update: no structure change
        for k in half[100:200]:
            idx.remove(int(k))
        probe2 = np.concatenate([probe, rest[:50], half[100:150]]).astype(np.uint64)
        assert idx.batch_get(probe2) == scalar_gets(idx, probe2)

    def test_interleaved_batches_and_mutations(self, built):
        idx, half, rest, _ = built
        for i in range(0, 300, 60):
            chunk = rest[i : i + 60]
            for k in chunk:
                idx.insert(int(k), int(k))
            probe = np.concatenate([chunk, half[i : i + 30]]).astype(np.uint64)
            assert idx.batch_get(probe) == scalar_gets(idx, probe)
            idx.remove(int(chunk[0]))
            assert idx.batch_get(chunk) == scalar_gets(idx, chunk)


class TestBatchMutators:
    def test_batch_insert_flags_and_values(self, built):
        idx, half, rest, _ = built
        keys = np.concatenate([rest[:50], half[:50]]).astype(np.uint64)
        flags = idx.batch_insert(keys, [int(k) + 1 for k in keys])
        assert flags.dtype == bool and flags[:50].all() and not flags[50:].any()
        assert idx.batch_get(keys) == [int(k) + 1 for k in keys]

    def test_batch_insert_default_values(self, built):
        idx, _, rest, _ = built
        keys = rest[100:140]
        idx.batch_insert(keys)
        assert idx.batch_get(keys) == [int(k) for k in keys]

    def test_batch_insert_duplicates_in_batch(self, built):
        """First occurrence inserts, later ones update — like a loop."""
        idx, _, rest, _ = built
        k = int(rest[200])
        keys = np.array([k, k, k], dtype=np.uint64)
        flags = idx.batch_insert(keys, ["a", "b", "c"])
        assert flags.tolist() == [True, False, False]
        assert idx.get(k) == "c"

    def test_batch_remove(self, built):
        idx, half, rest, _ = built
        keys = np.concatenate([half[:30], rest[:30]]).astype(np.uint64)
        flags = idx.batch_remove(keys)
        assert flags[:30].all() and not flags[30:].any()
        assert idx.batch_get(half[:30]) == [None] * 30

    def test_batch_range(self, built):
        idx, half, _, _ = built
        lo, hi = int(half[10]), int(half[60])
        expected = idx.range_query(lo, hi)
        assert idx.batch_range(lo, hi) == expected
        assert idx.batch_range(lo, hi, limit=5) == expected[:5]
        assert idx.batch_range(lo, hi, limit=0) == []
        assert idx.batch_range(hi, lo) == []


class TestTraceEquivalence:
    def test_batch_get_trace_totals(self, built):
        """Aggregate CostTrace counts match the scalar loop exactly."""
        idx, _, _, probe = built
        with tracer() as ts:
            scalar = scalar_gets(idx, probe)
        with tracer() as tb:
            batched = idx.batch_get(probe)
        assert batched == scalar
        assert tb.scalars() == ts.scalars()
        assert sorted(tb.reads) == sorted(ts.reads)
        assert sorted(tb.writes) == sorted(ts.writes)

    def test_batch_insert_trace_totals(self, sorted_keys):
        half, rest = sorted_keys[::2].copy(), sorted_keys[1::2]
        a = ALTIndex.bulk_load(half, memory=MemoryMap())
        b = ALTIndex.bulk_load(half, memory=MemoryMap())
        keys = rest[:200]
        with tracer() as ts:
            for k in keys:
                a.insert(int(k), int(k))
        with tracer() as tb:
            b.batch_insert(keys, [int(k) for k in keys])
        assert tb.scalars() == ts.scalars()

    def test_batch_remove_trace_totals(self, sorted_keys):
        half, rest = sorted_keys[::2].copy(), sorted_keys[1::2]
        a = ALTIndex.bulk_load(half, memory=MemoryMap())
        b = ALTIndex.bulk_load(half, memory=MemoryMap())
        keys = np.concatenate([half[:150], rest[:50]]).astype(np.uint64)
        with tracer() as ts:
            sflags = [a.remove(int(k)) for k in keys]
        with tracer() as tb:
            bflags = b.batch_remove(keys)
        assert bflags.tolist() == sflags
        assert tb.scalars() == ts.scalars()
        assert sorted(tb.reads) == sorted(ts.reads)
        assert sorted(tb.writes) == sorted(ts.writes)

    @pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
    def test_write_trace_totals_every_index(self, cls, sorted_keys):
        """Aggregate write CostTrace totals match the scalar loop for
        every index (overrides delegate under an active tracer)."""
        half, rest = sorted_keys[::2].copy(), sorted_keys[1::2]
        a = cls.bulk_load(half, memory=MemoryMap())
        b = cls.bulk_load(half, memory=MemoryMap())
        ins = np.concatenate([rest[:60], half[:60]]).astype(np.uint64)
        rem = np.concatenate([half[:30], rest[100:130]]).astype(np.uint64)
        with tracer() as ts:
            sflags = [a.insert(int(k), int(k) + 1) for k in ins]
            sflags += [a.remove(int(k)) for k in rem]
        with tracer() as tb:
            bflags = b.batch_insert(ins, [int(k) + 1 for k in ins]).tolist()
            bflags += b.batch_remove(rem).tolist()
        assert bflags == sflags
        assert tb.scalars() == ts.scalars()
        assert sorted(tb.reads) == sorted(ts.reads)
        assert sorted(tb.writes) == sorted(ts.writes)


class TestALTBatchInternals:
    def test_writeback_parity(self, sorted_keys):
        """Batch lookups fire Algorithm 2's write-back like scalar ones.

        Remove a learned-resident key (tombstoning its slot), re-insert
        it (it lands in the ART — the slot is tombstoned), then look it
        up: the pair must repatriate into the learned layer, exactly
        once even when the batch repeats the key.
        """
        scalar = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        batched = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        victims = [int(k) for k in sorted_keys[10:20]]
        for idx in (scalar, batched):
            for k in victims:
                idx.remove(k)
                idx.insert(k, k * 2)
        for k in victims:
            assert scalar.get(k) == k * 2
        probe = np.repeat(np.array(victims, dtype=np.uint64), 2)
        assert batched.batch_get(probe) == [k * 2 for k in victims for _ in (0, 1)]
        assert batched.writebacks == scalar.writebacks
        assert batched.writebacks >= 0  # may be 0 if slots stayed occupied
        # Repatriated keys now answer from the learned layer.
        assert batched.batch_get(probe) == scalar_gets(batched, probe)

    def test_after_expansion(self, rng):
        """Batch equivalence must survive retraining (expansion buffers)."""
        base = np.sort(rng.choice(2**45, size=4_000, replace=False).astype(np.uint64))
        extra = np.sort(rng.choice(2**45, size=12_000, replace=False).astype(np.uint64))
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        inserted = []
        for k in extra:
            if idx.insert(int(k), int(k)):
                inserted.append(int(k))
            if idx.expansions > 0 and len(inserted) % 500 == 0:
                probe = np.array(inserted[-300:], dtype=np.uint64)
                assert idx.batch_get(probe) == scalar_gets(idx, probe)
        assert idx.expansions > 0, "workload never triggered a retrain"
        probe = np.concatenate([base[:500], np.array(inserted[:1500], dtype=np.uint64)])
        assert idx.batch_get(probe) == scalar_gets(idx, probe)

    def test_snapshot_invalidation_on_slot_change(self, rng):
        keys = np.sort(rng.choice(2**40, size=3_000, replace=False).astype(np.uint64))
        idx = ALTIndex.bulk_load(keys, memory=MemoryMap())
        snap1 = idx._layer.snapshot()
        assert idx._layer.snapshot() is snap1  # cached while unchanged
        # Removing a learned-resident key always tombstones its slot.
        assert idx.remove(int(keys[0]))
        snap2 = idx._layer.snapshot()
        assert snap2 is not snap1
        assert idx.batch_get(keys[:1]) == [None]


    def test_interleaved_writes_keep_the_patched_art_view_exact(self, rng):
        """batch_get resolves conflict keys against the ART's delta-patched
        sorted view; interleave it with scalar and batch writes,
        write-backs and expansion finishes, and compare every answer with
        a twin index driven only through the scalar path."""
        base = np.sort(rng.choice(2**45, size=4_000, replace=False).astype(np.uint64))
        extra = np.setdiff1d(
            rng.choice(2**45, size=9_000, replace=False).astype(np.uint64), base
        )
        batched = ALTIndex.bulk_load(base, memory=MemoryMap())
        twin = ALTIndex.bulk_load(base, memory=MemoryMap())
        live = [int(k) for k in base]
        for r, chunk in enumerate(np.array_split(extra, 30)):
            vals = [int(k) + r for k in chunk]
            if r % 2:
                batched.batch_insert(chunk, vals)
            else:
                for k, v in zip(chunk.tolist(), vals):
                    batched.insert(k, v)
            for k, v in zip(chunk.tolist(), vals):
                twin.insert(k, v)
            live.extend(chunk.tolist())
            # Remove-then-reinsert learned residents: the re-inserts land
            # in the ART, and the next lookup writes them back.
            victims = [live[int(i)] for i in rng.choice(len(live), 40, replace=False)]
            for idx in (batched, twin):
                if r % 3:
                    idx.batch_remove(np.array(victims, dtype=np.uint64))
                else:
                    for k in victims:
                        idx.remove(k)
                for k in victims[::2]:
                    idx.insert(k, -k)
            probe = np.array(
                victims + [live[int(i)] for i in rng.choice(len(live), 200)],
                dtype=np.uint64,
            )
            assert batched.batch_get(probe) == scalar_gets(twin, probe)
        assert batched.writebacks > 0, "no write-back fired"
        pending = sum(m.expansion is not None for m in batched.layer.models)
        assert batched.expansions > pending, "no expansion finished"
        keys, values = batched.art.sorted_view()
        pairs = batched.art.items()
        assert keys.tolist() == [k for k, _ in pairs]
        assert values.tolist() == [v for _, v in pairs]
        probe = np.array(live, dtype=np.uint64)
        assert batched.batch_get(probe) == scalar_gets(twin, probe)

    def test_batch_writebacks_reach_the_metric(self, sorted_keys):
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        victims = [int(k) for k in sorted_keys[10:40]]
        for k in victims:
            idx.remove(k)
            idx.insert(k, k * 2)  # tombstoned slot: lands in the ART
        with metrics_registry() as reg:
            before = idx.writebacks
            snap = reg.snapshot()
            idx.batch_get(np.array(victims, dtype=np.uint64))
            counted = reg.delta(snap)["counters"].get("alt.writebacks", 0)
        assert idx.writebacks > before
        assert counted == idx.writebacks - before


class TestBatchWriteEquivalence:
    """Untraced batch writes (the vectorized fast path) produce exactly
    the results the scalar loop would, on every index."""

    @pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
    def test_insert_then_remove_matches_scalar_twin(self, cls, sorted_keys, rng):
        half, rest = sorted_keys[::2].copy(), sorted_keys[1::2]
        a = cls.bulk_load(half, memory=MemoryMap())
        b = cls.bulk_load(half, memory=MemoryMap())
        # Mix of new keys, existing keys (updates), and in-batch dups,
        # spread across the key range so no model crosses its retrain
        # threshold: flag-for-flag equality for duplicates is only
        # defined when no retrain interleaves the two occurrences
        # (batch replays duplicates after its vectorized phase, so
        # retrain timing may differ from the strict scalar order).
        fresh = rest[::40][:120]
        ins = np.concatenate([fresh, half[::30][:80], fresh[:40]]).astype(np.uint64)
        rng.shuffle(ins)
        vals = [int(k) + 7 for k in ins]
        sflags = [a.insert(int(k), v) for k, v in zip(ins, vals)]
        bflags = b.batch_insert(ins, vals)
        assert bflags.tolist() == sflags
        if cls is ALTIndex:
            assert a.expansions == 0, "workload assumption broken: retrain fired"
        assert len(b) == len(a)
        # Removes: present keys, absent keys, and in-batch dups.
        rem = np.concatenate([half[:60], rest[200:240], half[:20]]).astype(np.uint64)
        rng.shuffle(rem)
        srem = [a.remove(int(k)) for k in rem]
        brem = b.batch_remove(rem)
        assert brem.tolist() == srem
        assert len(b) == len(a)
        probe = np.unique(np.concatenate([ins, rem]))
        assert b.batch_get(probe) == scalar_gets(a, probe)

    @pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
    def test_empty_write_batches(self, cls, sorted_keys):
        idx = cls.bulk_load(sorted_keys[::2].copy(), memory=MemoryMap())
        n = len(idx)
        assert idx.batch_insert(np.empty(0, dtype=np.uint64)).tolist() == []
        assert idx.batch_remove(np.empty(0, dtype=np.uint64)).tolist() == []
        assert len(idx) == n


class TestALTBatchWriteInternals:
    """ALT-specific semantics of the vectorized write path."""

    def test_conflict_heavy_batch_routes_to_art(self, sorted_keys):
        """Keys adjacent to residents mostly collide with FULL slots and
        must route to the ART conflict layer, with the same
        conflict-insert accounting as the scalar loop."""
        scalar = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        batched = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        present = set(int(k) for k in sorted_keys)
        neighbors = np.array(
            [int(k) + 1 for k in sorted_keys[:400] if int(k) + 1 not in present],
            dtype=np.uint64,
        )
        sflags = [scalar.insert(int(k), int(k)) for k in neighbors]
        bflags = batched.batch_insert(neighbors, [int(k) for k in neighbors])
        assert bflags.tolist() == sflags
        assert all(sflags)
        assert batched.conflict_inserts == scalar.conflict_inserts
        assert batched.conflict_inserts > 0, "workload produced no conflicts"
        assert len(batched) == len(scalar)
        assert batched.batch_get(neighbors) == scalar_gets(scalar, neighbors)

    def test_remove_then_reinsert_tombstoned_slots(self, sorted_keys):
        """Re-inserting a key whose learned slot is tombstoned routes to
        the ART (one-home invariant) in batch exactly as in scalar."""
        scalar = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        batched = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        victims = sorted_keys[50:150].astype(np.uint64)
        sflags = [scalar.remove(int(k)) for k in victims]
        bflags = batched.batch_remove(victims)
        assert bflags.tolist() == sflags
        sflags = [scalar.insert(int(k), int(k) * 3) for k in victims]
        bflags = batched.batch_insert(victims, [int(k) * 3 for k in victims])
        assert bflags.tolist() == sflags
        assert batched.conflict_inserts == scalar.conflict_inserts
        assert len(batched) == len(scalar)
        assert batched.batch_get(victims) == [int(k) * 3 for k in victims]
        # Lookups repatriate tombstone-routed pairs just like scalar gets.
        _ = scalar_gets(scalar, victims)
        assert batched.writebacks == scalar.writebacks


class TestRMIBatch:
    def test_lookup_batch_matches_scalar(self, sorted_keys):
        rmi = TwoStageRMI(sorted_keys, 16, MemoryMap(), "rmi")
        probe = np.concatenate(
            [sorted_keys[::5], sorted_keys[::7] + 1, np.array([0, 2**63], dtype=np.uint64)]
        ).astype(np.uint64)
        expected = np.array([rmi.lookup(int(k)) for k in probe], dtype=np.int64)
        assert np.array_equal(rmi.lookup_batch(probe), expected)

    def test_predict_batch_matches_scalar(self, sorted_keys):
        rmi = TwoStageRMI(sorted_keys, 16, MemoryMap(), "rmi")
        probe = sorted_keys[::3]
        pos, err = rmi.predict_batch(probe)
        for i, k in enumerate(probe):
            sp, se = rmi.predict(int(k))
            assert (int(pos[i]), int(err[i])) == (sp, se)


def test_generic_fallback_used_by_unoptimized_indexes():
    """Indexes without overrides inherit the generic loop from the mixin."""
    assert LippIndex.batch_get is BatchIndex.batch_get
    assert ArtIndex.batch_get is BatchIndex.batch_get
    for cls in (ALTIndex, AlexIndex, BPlusTreeIndex, FINEdex, XIndex):
        assert cls.batch_get is not BatchIndex.batch_get, cls.NAME
    # Write fast paths: ALT-index plus the flat-view baselines.
    for cls in (ALTIndex, AlexIndex, BPlusTreeIndex):
        assert cls.batch_insert is not BatchIndex.batch_insert, cls.NAME
        assert cls.batch_remove is not BatchIndex.batch_remove, cls.NAME
    for cls in (LippIndex, ArtIndex, FINEdex, XIndex):
        assert cls.batch_insert is BatchIndex.batch_insert, cls.NAME
        assert cls.batch_remove is BatchIndex.batch_remove, cls.NAME
