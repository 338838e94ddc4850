"""BatchIndex invariants, asserted for EVERY index implementation.

docs/API.md states two invariants for the vectorized batch layer:

1. Result equivalence — every ``batch_*`` call returns exactly what the
   per-key scalar loop would, including misses, duplicates, and after
   arbitrary mutations / retrains / expansions.
2. Trace equivalence — under an active tracer, batch calls accumulate
   the same aggregate CostTrace totals as the scalar loop.

These tests drive both through mutation sequences chosen to hit the
fast-path invalidation machinery: the ALT-index layer-wide slot arena
(swapped models placed at its free tail, compacted once the tail is
used up), the ART's sorted main run and
delta-patched overlay, and ALT-index expansion buffers (batch lookups during and after a
retrain).  The baselines inherit ``BatchIndex``'s per-key loops, so for
them the same checks cover the scalar paths across ALEX+/B+tree splits
and XIndex compactions.  A seeded random stream of batch and scalar
writes is checked step by step against a dict oracle on every index.
"""

import contextlib
import threading
import tracemalloc

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
from repro.common import BatchIndex
from repro.core import learned_layer
from repro.core.alt_index import ALTIndex
from repro.core.learned_layer import EMPTY, FULL, TOMBSTONE, LearnedLayer
from repro.datasets.generators import dataset
from repro.obs.metrics import metrics_registry
from repro.shard import ShardedALTIndex
from repro.sim.trace import MemoryMap, tracer
from tests.test_art import assert_runs_match

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


class _PauseAfterValueCopy:
    """Stands in for NumPy inside ``repro.core.learned_layer``: the
    compaction's copy of the value arena parks until ``resume`` is set,
    or half a second passes."""

    def __init__(self):
        self.copied = threading.Event()
        self.resume = threading.Event()

    def __getattr__(self, name):
        return getattr(np, name)

    def concatenate(self, arrays, **kwargs):
        out = np.concatenate(arrays, **kwargs)
        if out.dtype == object:
            self.copied.set()
            self.resume.wait(timeout=0.5)
        return out


@contextlib.contextmanager
def _unlocked_models(layer):
    """A compaction that takes no writer lock (the planted race)."""
    yield list(layer.models)


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
            # insert finishes a complete expansion before it returns.
            assert not any(
                m.expansion is not None and m.expansion.is_complete()
                for m in idx._layer.models
            )
            if idx.expansions > 0 and len(inserted) % 500 == 0:
                probe = np.array(inserted[-300:], dtype=np.uint64)
                assert idx.batch_get(probe) == scalar_gets(idx, probe)
        assert idx.expansions > 0, "workload never triggered a retrain"
        probe = np.concatenate([base[:500], np.array(inserted[:1500], dtype=np.uint64)])
        assert idx.batch_get(probe) == scalar_gets(idx, probe)

    def test_probe_live_sees_slot_change(self, rng):
        """probe_live reads the live slot mirrors, so a remove shows in
        the very next batch probe with no cached copy to invalidate."""
        keys = np.sort(rng.choice(2**40, size=3_000, replace=False).astype(np.uint64))
        idx = ALTIndex.bulk_load(keys, memory=MemoryMap())
        _, _, _, state, resident = idx._layer.probe_live(keys[:1])
        assert state[0] == FULL and resident[0] == keys[0]
        # Removing a learned-resident key always tombstones its slot.
        assert idx.remove(int(keys[0]))
        _, _, _, state, _ = idx._layer.probe_live(keys[:1])
        assert state[0] == TOMBSTONE
        assert idx.batch_get(keys[:1]) == [None]

    @staticmethod
    def _assert_probe_is_scalar(idx, keys):
        """probe_live equals per-key route + slot_of + read_slot, at the
        flat slot its model's geometry offset gives."""
        layer = idx.layer
        midx, slots, flat, state, resident = layer.probe_live(keys)
        offsets = layer._geo[4]
        for i, k in enumerate(keys.tolist()):
            mi, m = layer.route(k)
            s = m.slot_of(k)
            st, rk, _ = m.read_slot(s)
            assert (midx[i], slots[i], flat[i], state[i]) == (mi, s, offsets[mi] + s, st)
            assert resident[i] == (rk if st == FULL else 0)

    @staticmethod
    def _assert_arena_mirrors_the_lists(layer):
        """Every model's slot arrays are the views of the layer-wide
        arena at its geometry offset, the models' ranges are disjoint
        and below the free tail, every tail slot is free, and each
        model's slice equals its seqlocked key list and the scalar
        read_slot states and values slot for slot (the values by
        identity: the arena is their only copy)."""
        version, _, _, _, offsets = layer._geometry()
        assert version == layer.version
        taken = np.zeros(len(layer.np_keys), dtype=bool)
        arenas = (layer.np_keys, layer.np_state, layer.np_values)
        for m, lo in zip(layer.models, offsets.tolist()):
            hi = lo + m.n_slots
            assert hi <= layer._tail and not taken[lo:hi].any()
            taken[lo:hi] = True
            for view, arena in zip((m.np_keys, m.np_state, m.values), arenas):
                assert view.base is arena and len(view) == m.n_slots
                start = view.__array_interface__["data"][0]
                assert start == arena[lo:].__array_interface__["data"][0]
            state, keys, values = [], [], []
            for s, k in enumerate(m.keys):
                st, _, v = m.read_slot(s)
                assert (st == FULL) == (k is not None)
                state.append(st)
                keys.append(0 if k is None else k)
                values.append(v)
            assert layer.np_state[lo:hi].tolist() == state
            assert layer.np_keys[lo:hi].tolist() == keys
            assert all(a is b for a, b in zip(layer.np_values[lo:hi].tolist(), values))
        tail = slice(layer._tail, None)
        assert not layer.np_state[tail].any() and not layer.np_keys[tail].any()
        assert all(v is None for v in layer.np_values[tail].tolist())

    def test_empty_index_bootstrap_probe_matches_scalar(self, rng):
        """The first insert into an empty index appends the overflow
        model; its expansions then replace it.  Mix scalar and batch
        writes, including a few out-of-range keys, and check the probe
        after every step."""
        idx = ALTIndex(epsilon=16, memory=MemoryMap())
        k0 = 1 << 40
        fresh = (k0 + rng.choice(64, 40, replace=False)).tolist()
        fresh += [k0 + 10_000, k0 + 20_000, k0 - 5]  # out of range
        live: list[int] = []
        for r, chunk in enumerate(np.array_split(np.array(fresh, dtype=np.uint64), 9)):
            if r % 2:
                idx.batch_insert(chunk, chunk)
            else:
                for k in chunk.tolist():
                    idx.insert(k, k)
            live.extend(chunk.tolist())
            if r == 4:
                gone = live[::3]
                assert idx.batch_remove(np.array(gone, dtype=np.uint64)).all()
                live = [k for k in live if k not in gone]
            # 2**64 - 1 predicts a slot past int64: it must clamp to the
            # last slot, as slot_of() does, not wrap to slot 0.
            probe = np.array(live + [k0 + 63, k0 + 30_000, 7, 2**64 - 1], dtype=np.uint64)
            self._assert_probe_is_scalar(idx, probe)
            self._assert_arena_mirrors_the_lists(idx.layer)
            assert idx.batch_get(probe) == scalar_gets(idx, probe)
        assert idx.layer.model_count == 1
        assert idx.layer._version > 1, "no expansion replaced the overflow model"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_probe_matches_scalar_after_structural_changes(self, seed):
        """Seeded interleavings of scalar inserts (enough to start and
        finish expansions, i.e. replace_model), scalar removes, and
        batch_insert/batch_remove: after every step the one-gather probe
        equals the per-key scalar probe and batch_get the scalar loop."""
        rng = np.random.default_rng(seed)
        universe = rng.choice(2**40, size=5_000, replace=False).astype(np.uint64)
        base = np.sort(universe[:2_000])
        pool = universe[2_000:].tolist()
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        v0 = idx.layer._version
        live = base.tolist()
        absent, pool = pool[-50:], pool[:-50]

        def pop_live(n):
            picks = sorted(rng.choice(len(live), n, replace=False).tolist(), reverse=True)
            return [live.pop(i) for i in picks]

        for _ in range(40):
            op = rng.choice(4, p=[0.45, 0.15, 0.3, 0.1])
            if op == 0 and pool:
                chunk, pool = pool[:80], pool[80:]
                for k in chunk:
                    idx.insert(k, k)
                live.extend(chunk)
            elif op == 1:
                for k in pop_live(20):
                    assert idx.remove(k)
            elif op == 2 and pool:
                chunk, pool = pool[:80], pool[80:]
                idx.batch_insert(np.array(chunk + chunk[:3], dtype=np.uint64))
                live.extend(chunk)
            else:
                gone = np.array(pop_live(20) + absent[:5], dtype=np.uint64)
                assert idx.batch_remove(gone).tolist() == [True] * 20 + [False] * 5
            picks = rng.choice(len(live), 200).tolist()
            probe = np.array([live[i] for i in picks] + absent, dtype=np.uint64)
            self._assert_probe_is_scalar(idx, probe)
            assert idx.batch_get(probe) == scalar_gets(idx, probe)
        self._assert_arena_mirrors_the_lists(idx.layer)
        assert idx.layer._version > v0, "no expansion finished"

    def test_layer_mirrors_stay_one_arena(self, rng):
        """A fresh build leaves a free tail; a model swap that fits it is
        placed there with no compaction; slot writes after it show with
        no compaction either; and batch_insert still tells apart two
        keys that predict the same free slot."""
        universe = rng.choice(2**40, size=6_000, replace=False).astype(np.uint64)
        base = np.sort(universe[:2_000])
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        layer = idx.layer
        arena = layer.np_keys
        self._assert_arena_mirrors_the_lists(layer)
        assert len(arena) > layer._tail, "a fresh build leaves a free tail"
        layer.probe_live(base[:8])
        assert layer.np_keys is arena, "a fresh build must not compact"

        version = layer._version
        for k in universe[2_000:].tolist():
            idx.insert(k, k)
            if layer._version != version:
                break
        assert layer._version != version, "no expansion finished"
        layer.probe_live(base[:8])
        assert layer.np_keys is arena, "a swap that fits the tail must not compact"
        self._assert_arena_mirrors_the_lists(layer)

        # Slot writes after the swap land in the arena: no compaction.
        arena, version = layer.np_keys, layer._version
        _, _, _, state, _ = layer.probe_live(base)
        k = int(base[int(np.flatnonzero(state == FULL)[0])])
        assert idx.remove(k)
        mi, m = layer.route(k)
        _, _, _, state, _ = layer.probe_live(np.array([k], dtype=np.uint64))
        assert state[0] == TOMBSTONE
        m.write_slot(m.slot_of(k), k, "back")
        _, _, _, state, resident = layer.probe_live(np.array([k], dtype=np.uint64))
        assert (state[0], resident[0]) == (FULL, k)
        assert layer.np_keys is arena and layer._version == version
        assert layer._geo[0] == version
        self._assert_arena_mirrors_the_lists(layer)

        # Two absent keys predicting one EMPTY slot of a model the batch
        # fast path handles: the first wins the slot, the second is a
        # conflict for the ART, exactly as two scalar inserts would be.
        def same_slot_pair():
            for mi, m in enumerate(layer.models):
                if m.expansion is not None or m.insert_count + 2 > max(m.build_size, 1):
                    continue
                for s in np.flatnonzero(m.np_state == EMPTY).tolist():
                    k1 = m.first_key + int(s / m.slope_eff) + 1
                    pair = [k1, k1 + 1]
                    if all(
                        m.slot_of(k) == s and layer.route(k)[0] == mi and idx.get(k) is None
                        for k in pair
                    ):
                        return m, s, pair
            raise AssertionError("no two keys share a free slot")

        m, s, pair = same_slot_pair()
        conflicts = idx.conflict_inserts
        assert idx.batch_insert(np.array(pair, dtype=np.uint64), ["a", "b"]).all()
        assert m.read_slot(s)[1:] == (pair[0], "a")
        assert idx.conflict_inserts == conflicts + 1
        assert idx.batch_get(np.array(pair, dtype=np.uint64)) == ["a", "b"]
        assert layer.np_keys is arena
        self._assert_arena_mirrors_the_lists(layer)

    def test_swap_with_room_is_placed_at_the_tail(self, rng):
        """A swapped-in model is copied to the arena's free tail: the
        arena object stays, the geometry is published for the new
        version with the model at the old tail offset, and the probe
        still equals the scalar route + slot_of + read_slot."""
        universe = rng.choice(2**40, size=6_000, replace=False).astype(np.uint64)
        base = np.sort(universe[:2_000])
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        layer = idx.layer
        arena, tail, version = layer.np_keys, layer._tail, layer.version
        before = list(layer.models)
        for k in universe[2_000:].tolist():
            idx.insert(k, k)
            if layer.version != version:
                break
        assert layer.version == version + 1, "no expansion finished"
        mi = next(i for i, m in enumerate(layer.models) if m is not before[i])
        new = layer.models[mi]
        assert layer.np_keys is arena
        assert layer._geo[0] == layer.version
        assert layer._geo[4][mi] == tail and layer._tail == tail + new.n_slots
        probe = np.concatenate([base, universe[2_000:2_500]])
        self._assert_probe_is_scalar(idx, probe)
        self._assert_arena_mirrors_the_lists(layer)
        assert layer.np_keys is arena
        assert idx.batch_get(probe) == scalar_gets(idx, probe)

    def test_exhausting_the_tail_compacts_once(self, monkeypatch, rng):
        """Swaps are placed at the tail until one does not fit; that one
        withdraws the geometry, and the next probe compacts exactly once
        into a fresh arena with a new free tail."""
        compactions = []
        compact = LearnedLayer._compact

        def counting(layer, models):
            compactions.append(layer.version)
            compact(layer, models)

        monkeypatch.setattr(LearnedLayer, "_compact", counting)
        universe = rng.choice(2**40, size=20_000, replace=False).astype(np.uint64)
        base = np.sort(universe[:2_000])
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        layer = idx.layer
        arena, version, placed = layer.np_keys, layer.version, 0
        probe = np.concatenate([base[::7], universe[2_000::50]])
        for k in universe[2_000:].tolist():
            idx.insert(k, k)
            if layer.version == version:
                continue
            version = layer.version
            if layer._geo is None:
                break
            placed += 1
            assert layer.np_keys is arena and not compactions
            self._assert_probe_is_scalar(idx, probe)
        else:
            raise AssertionError("the tail never filled up")
        assert placed > 0, "no swap fit the tail"
        self._assert_probe_is_scalar(idx, probe)
        self._assert_probe_is_scalar(idx, probe)
        assert compactions == [layer.version]
        assert layer.np_keys is not arena
        live = sum(m.n_slots for m in layer.models)
        assert layer._tail == live
        assert len(layer.np_keys) == max(live + live // learned_layer._TAIL_FRACTION, len(arena))
        self._assert_arena_mirrors_the_lists(layer)
        assert idx.batch_get(probe) == scalar_gets(idx, probe)

    @pytest.mark.parametrize("locked", [True, False], ids=["fold-locks", "planted-unlocked"])
    def test_fold_never_loses_a_racing_scalar_write(self, monkeypatch, sorted_keys, locked):
        """A compaction parks right after copying the value arena, before
        it rebinds the models' views; a scalar update of a learned-resident
        key then races it.  The compaction holds every model's writer
        lock, so the update waits and lands in the new arena.  The planted
        mutant compacts without the locks: the update writes the old
        arena, the rebind drops it, and scalar get still reads the old
        value."""
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        layer = idx.layer
        _, _, _, state, resident = layer.probe_live(sorted_keys)
        k = int(sorted_keys[np.flatnonzero((state == FULL) & (resident == sorted_keys))[0]])
        pause = _PauseAfterValueCopy()
        monkeypatch.setattr(learned_layer, "np", pause)
        if not locked:
            monkeypatch.setattr(LearnedLayer, "_locked_models", _unlocked_models)
        layer._geo = None  # the next probe compacts

        def update():
            idx.update(k, "new")
            pause.resume.set()

        folder = threading.Thread(target=layer.probe_live, args=(sorted_keys[:4],))
        folder.start()
        assert pause.copied.wait(timeout=5)
        writer = threading.Thread(target=update)
        writer.start()
        folder.join(timeout=5)
        writer.join(timeout=5)
        assert not folder.is_alive() and not writer.is_alive()
        lost = idx.get(k) != "new"
        assert lost == (not locked)
        if locked:
            assert idx.batch_get(np.array([k], dtype=np.uint64)) == ["new"]
            self._assert_arena_mirrors_the_lists(layer)

    @pytest.mark.parametrize("cls", [ALTIndex, ShardedALTIndex], ids=lambda c: c.NAME)
    def test_batch_get_returns_the_scalar_objects(self, sorted_keys, cls):
        """Tuple, list, ndarray and str values come back from batch_get
        as the very objects scalar get returns (the value arena stores
        references; the shard gather never broadcasts a sequence), both
        on the bulk-built arena and after model swaps."""
        makers = (
            lambda k: (k, "t"),
            lambda k: [k],
            lambda k: np.array([k, k], dtype=np.uint64),
            lambda k: f"s{k}",
        )
        base = sorted_keys[::4]
        extra = np.setdiff1d(sorted_keys, base)  # 3x the load: expansions finish
        idx = cls.bulk_load(
            base, [makers[i % 4](k) for i, k in enumerate(base.tolist())], memory=MemoryMap()
        )
        layers = [s.layer for s in idx.shards] if cls is ShardedALTIndex else [idx.layer]
        versions = [layer._version for layer in layers]

        def assert_same_objects(keys):
            got = idx.batch_get(keys)
            assert len(got) == len(keys)
            assert all(g is idx.get(k) for g, k in zip(got, keys.tolist()))
            assert all(g is not None for g in got)

        assert_same_objects(base)
        for i, k in enumerate(extra.tolist()):
            idx.insert(k, makers[i % 4](k))
        assert any(layer._version != v for layer, v in zip(layers, versions)), "no swap"
        assert_same_objects(np.concatenate([base, extra]))
        for layer in layers:
            self._assert_arena_mirrors_the_lists(layer)

    def test_fold_keeps_one_old_arena_alive(self, sorted_keys):
        """A compaction copies the arena one array at a time: its traced
        peak stays below the largest array plus per-model bookkeeping,
        where copying all three at once would add the other two."""
        tracemalloc.start()
        try:
            idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
            layer = idx.layer
            layer._geo = None
            layer.probe_live(sorted_keys[:4])  # a traced arena to compact from
            layer._geo = None
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            layer.probe_live(sorted_keys[:4])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (layer.np_keys, layer.np_state, layer.np_values)
        largest = max(a.nbytes for a in arrays)
        assert peak - before < largest + 128 * len(layer.models) + 16 * 1024
        assert sum(a.nbytes for a in arrays) - largest > 128 * len(layer.models) + 16 * 1024
        self._assert_arena_mirrors_the_lists(layer)

    def test_interleaved_writes_keep_the_patched_art_view_exact(self, rng):
        """batch_get resolves conflict keys against the ART's sorted main
        run and delta-patched overlay; interleave it with scalar and batch writes,
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
        assert_runs_match(batched.art, live + victims)
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

    def test_batch_writeback_skips_a_busy_model_lock(self, sorted_keys):
        """The batch write-back takes the model's writer lock without
        blocking, as scalar ``get`` does: while a writer holds it, the
        key is answered from the ART and stays there."""
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        victims = [int(k) for k in sorted_keys[10:40]]
        for k in victims:
            idx.remove(k)
            idx.insert(k, k * 2)  # tombstoned slot: lands in the ART
        locks = {id(m): m.writer_lock for m in (idx.layer.route(k)[1] for k in victims)}
        for lock in locks.values():
            assert lock.acquire(blocking=False)
        try:
            assert idx.batch_get(victims) == [k * 2 for k in victims]
        finally:
            for lock in locks.values():
                lock.release()
        assert idx.writebacks == 0
        assert [idx.art.search(k) for k in victims] == [k * 2 for k in victims]
        assert idx.batch_get(victims) == [k * 2 for k in victims]
        assert idx.writebacks > 0

    def test_misses_replay_after_a_model_swap_mid_batch(self, monkeypatch):
        """A model swapped between the probe and the miss loop: a key the
        probe saw tombstoned in the old model (evicted into its expansion
        buffer, which the swap made the live model) must still be found."""
        keys = dataset("fb", 20_000, seed=0)
        loaded, pending = keys[::2].copy(), iter(keys[1::2].tolist())
        idx = ALTIndex.bulk_load(loaded, memory=MemoryMap())
        layer = idx.layer
        while True:  # until a loaded key is evicted into a buffer
            idx.insert(next(pending), 0)
            midx, _, _, state, _ = layer.probe_live(loaded)
            evicted = [
                i for i in np.flatnonzero(state == TOMBSTONE).tolist()
                if layer.models[midx[i]].expansion is not None
            ]
            if evicted:
                break
        mi = int(midx[evicted[0]])
        model = layer.models[mi]
        taken = set(keys.tolist())
        hi = layer.next_first_key(mi) or 2**64
        fresh = (k for k in range(model.first_key + 1, hi) if k not in taken)
        probe_live = layer.probe_live

        def probe_then_swap(batch):
            out = probe_live(batch)
            while layer.models[mi] is model:  # finish that expansion
                idx.insert(next(fresh), 0)
            return out

        monkeypatch.setattr(layer, "probe_live", probe_then_swap)
        got = idx.batch_get(loaded[evicted])
        assert layer.models[mi] is not model
        assert got == loaded[evicted].tolist()

    def test_one_art_write_leaves_the_main_run_alone(self, sorted_keys):
        """Bulk load seeds the ART's main run; a one-key ART write and a
        batch read then patch only the overlay."""
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        art_keys = [k for k, _ in idx.art.items()]
        main = idx.art._view[0][0]
        assert main.tolist() == art_keys
        idx.remove(art_keys[0])
        probe = sorted_keys[::7]
        assert idx.batch_get(probe) == scalar_gets(idx, probe)
        assert idx.art._view[0][0] is main
        assert idx.art._view[0][2].tolist() == [art_keys[0]]

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_get_races_scalar_inserts_with_retraining(self, seed):
        """A batch read is as thread-safe as the scalar reads it stands
        for.  One thread scalar-inserts the unloaded half of an fb key set,
        which starts and finishes many expansions; another loops
        ``batch_get`` over the loaded half, none of which is ever removed
        or updated, so every answer must be the key's own value.  Swapped
        models and half-cleared slots are what this catches."""
        import sys

        keys = dataset("fb", 20_000, seed=seed)
        loaded, pending = keys[::2].copy(), keys[1::2].tolist()
        idx = ALTIndex.bulk_load(loaded, memory=MemoryMap())
        barrier = threading.Barrier(2)
        done = threading.Event()
        errors: list[BaseException] = []
        wrong: list[int] = []

        def insert_pending():
            try:
                barrier.wait()
                for k in pending:
                    idx.insert(k, k)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
            finally:
                done.set()

        def read_loaded():
            try:
                barrier.wait()
                while not done.is_set():
                    for i in range(0, len(loaded), 512):
                        chunk = loaded[i : i + 512].tolist()
                        got = idx.batch_get(chunk)
                        wrong.extend(k for k, v in zip(chunk, got) if v != k)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (insert_pending, read_loaded)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, repr(errors[0])
        assert idx.expansions > 0
        assert not wrong, f"{len(wrong)} loaded keys misread"
        assert idx.batch_get(keys) == keys.tolist()


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


class TestDifferentialStream:
    """Every index against a dict oracle, one step at a time."""

    @pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
    def test_random_stream_matches_dict_oracle(self, cls):
        """A seeded 200-round stream of batch_insert/batch_remove/
        batch_get and scalar insert/remove, 70% of its keys from a
        1,200-key hot window so models expand, nodes split and buffers
        compact.  Flags, values and ``len`` must match the oracle after
        every step."""
        rng = np.random.default_rng(0)
        universe = np.sort(rng.choice(2**40, 12_000, replace=False).astype(np.uint64))
        base = universe[::3]
        idx = cls.bulk_load(base, memory=MemoryMap())
        oracle = {k: k for k in base.tolist()}
        w = int(rng.integers(0, len(universe) - 1_200))
        hot = universe[w : w + 1_200]

        for r in range(200):
            n = int(rng.integers(1, 65))
            keys = np.where(
                rng.random(n) < 0.7, rng.choice(hot, n), rng.choice(universe, n)
            ).astype(np.uint64)
            kl = keys.tolist()
            op = int(rng.integers(5))
            if op == 0:
                vals = [f"{r}:{k}" for k in kl]
                got = idx.batch_insert(keys, vals).tolist()
            elif op == 1:
                got = idx.batch_remove(keys).tolist()
            elif op == 2:
                got = idx.batch_get(keys)
            elif op == 3:
                vals = [r] * n
                got = [idx.insert(k, r) for k in kl]
            else:
                got = [idx.remove(k) for k in kl]
            if op in (0, 3):
                want = []
                for k, v in zip(kl, vals):
                    want.append(k not in oracle)
                    oracle[k] = v
            elif op == 2:
                want = [oracle.get(k) for k in kl]
            else:
                want = [oracle.pop(k, None) is not None for k in kl]
            assert got == want, f"round {r}, op {op}"
            assert len(idx) == len(oracle), f"round {r}, op {op}"
            assert idx.batch_get(keys) == [oracle.get(k) for k in kl], f"round {r}"

        stats = idx.stats()
        if cls is ALTIndex:
            assert idx.expansions > 0, "workload assumption broken: no retrain"
        if cls is AlexIndex:
            assert stats["splits"] > 0, "workload assumption broken: no split"
        if cls is XIndex:
            assert stats["compactions"] > 0, "workload assumption broken: no compaction"


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


def test_generic_fallback_used_by_unoptimized_indexes():
    """The baselines inherit every batch loop from the mixin; only
    ALT-index and the sharded ALT-index override them."""
    ops = ("batch_get", "batch_insert", "batch_remove")
    for cls in (AlexIndex, BPlusTreeIndex, FINEdex, XIndex, LippIndex, ArtIndex):
        for op in ops:
            assert getattr(cls, op) is getattr(BatchIndex, op), (cls.NAME, op)
    for cls in (ALTIndex, ShardedALTIndex):
        for op in ops:
            assert getattr(cls, op) is not getattr(BatchIndex, op), (cls.__name__, op)
