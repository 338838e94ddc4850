"""Tests for the ALTIndex facade (Algorithm 2 and §III-G operations)."""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.core import alt_index
from repro.core.alt_index import ALTIndex
from repro.core.learned_layer import EMPTY, FULL, TOMBSTONE, LearnedLayer
from repro.core.retrain import ExpansionBuffer, finish_expansion
from repro.datasets.generators import dataset
from repro.shard.sharded import ShardedALTIndex
from repro.sim.trace import MemoryMap, tracer
from tests.test_art import reachable_bytes


@pytest.fixture
def loaded(sorted_keys):
    half = sorted_keys[::2].copy()
    rest = sorted_keys[1::2]
    idx = ALTIndex.bulk_load(half, memory=MemoryMap())
    return idx, half, rest


class TestBulkLoad:
    def test_all_loaded_keys_found(self, loaded):
        idx, half, _ = loaded
        for k in half:
            assert idx.get(int(k)) == int(k)

    def test_absent_keys_not_found(self, loaded):
        idx, half, rest = loaded
        present = set(half.tolist())
        for k in rest[:500]:
            if int(k) not in present:
                assert idx.get(int(k)) is None

    def test_epsilon_default_rule(self, sorted_keys):
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        assert idx.epsilon == max(len(sorted_keys) // 1000, 16)

    def test_values_default_to_keys(self, small_keys):
        idx = ALTIndex.bulk_load(small_keys, memory=MemoryMap())
        assert idx.get(int(small_keys[0])) == int(small_keys[0])

    def test_explicit_values(self, small_keys):
        vals = [f"v{i}" for i in range(len(small_keys))]
        idx = ALTIndex.bulk_load(small_keys, vals, memory=MemoryMap())
        assert idx.get(int(small_keys[10])) == "v10"

    def test_size(self, loaded):
        idx, half, _ = loaded
        assert len(idx) == len(half)

    def test_two_layer_split_covers_everything(self, loaded):
        idx, half, _ = loaded
        s = idx.stats()
        assert s["learned_keys"] + s["art_keys"] == len(half)
        assert s["learned_fraction"] > 0.5  # Fig. 10c's claim


class TestInsert:
    def test_insert_then_get(self, loaded):
        idx, half, rest = loaded
        for k in rest[:2000]:
            assert idx.insert(int(k), int(k) + 1)
        for k in rest[:2000]:
            assert idx.get(int(k)) == int(k) + 1

    def test_insert_existing_updates(self, loaded):
        idx, half, _ = loaded
        k = int(half[10])
        assert not idx.insert(k, "updated")
        assert idx.get(k) == "updated"
        assert len(idx) == len(half)

    def test_insert_conflict_goes_to_art(self, loaded):
        idx, half, rest = loaded
        before = len(idx.art)
        for k in rest[:2000]:
            idx.insert(int(k), int(k))
        assert len(idx.art) > before  # some inserts must collide

    def test_insert_below_smallest_key(self, loaded):
        idx, half, _ = loaded
        small = int(half[0]) - 1000
        assert idx.insert(small, "low")
        assert idx.get(small) == "low"

    def test_key_below_the_first_model_is_reachable_from_the_root(self):
        """A key below model 0's first key routes to model 0 by clamping
        but lies outside the subtree its fast pointer names.  Inserted
        from that pointer it would land where the root finds nothing, so
        a later ``remove`` missed it and ``items()`` came back unsorted."""
        base = 0x0102030405 << 24
        rng = np.random.default_rng(1)
        gaps = rng.integers(1, 3, size=4000) ** rng.integers(1, 8, size=4000)
        keys = (base + np.cumsum(gaps)).astype(np.uint64)
        idx = ALTIndex.bulk_load(keys, memory=MemoryMap(), epsilon=4)
        first = int(keys[0])
        for k in range(first + 1, first + 40):  # a deep ART node at model 0
            idx.insert(k, k)
        low = base - 5  # differs from every loaded key at byte 4
        assert idx.insert(low, "low")
        assert idx.art.search(low) == "low"
        art_keys = [k for k, _ in idx.art.items()]
        assert art_keys == sorted(art_keys)
        assert idx.remove(low) and idx.get(low) is None

    def test_insert_above_largest_key(self, loaded):
        idx, half, _ = loaded
        big = int(half[-1]) + 1000
        assert idx.insert(big, "high")
        assert idx.get(big) == "high"

    def test_empty_index_bootstrap(self):
        idx = ALTIndex.bulk_load(np.array([], dtype=np.uint64), memory=MemoryMap())
        assert idx.insert(42, "x")
        assert idx.get(42) == "x"
        assert idx.insert(41, "y") and idx.insert(43, "z")
        assert idx.get(41) == "y" and idx.get(43) == "z"


class TestUpdateRemove:
    def test_update_learned_resident(self, loaded):
        idx, half, _ = loaded
        k = int(half[5])
        assert idx.update(k, "u")
        assert idx.get(k) == "u"

    def test_update_art_resident(self, loaded):
        idx, half, rest = loaded
        # force a conflict insert, then update it
        target = None
        for k in rest[:3000]:
            before = len(idx.art)
            idx.insert(int(k), int(k))
            if len(idx.art) > before:
                target = int(k)
                break
        assert target is not None
        assert idx.update(target, "artv")
        assert idx.get(target) == "artv"

    def test_update_missing_returns_false(self, loaded):
        idx, half, rest = loaded
        absent = int(rest[0])
        if idx.get(absent) is None:
            assert not idx.update(absent, "x")

    def test_remove_learned_key_leaves_tombstone(self, loaded):
        idx, half, _ = loaded
        k = int(half[100])
        i, m = idx._route(k)
        slot = m.slot_of(k)
        if m.read_slot(slot)[0] == FULL and m.read_slot(slot)[1] == k:
            assert idx.remove(k)
            assert m.read_slot(slot)[0] == TOMBSTONE
            assert idx.get(k) is None

    def test_remove_missing(self, loaded):
        idx, half, rest = loaded
        absent = int(rest[1])
        if idx.get(absent) is None:
            assert not idx.remove(absent)

    def test_remove_then_reinsert(self, loaded):
        idx, half, _ = loaded
        k = int(half[42])
        assert idx.remove(k)
        assert idx.insert(k, "back")
        assert idx.get(k) == "back"

    def test_size_tracks_ops(self, loaded):
        idx, half, rest = loaded
        n0 = len(idx)
        idx.insert(int(rest[0]), 1)
        idx.remove(int(half[0]))
        assert len(idx) == n0


class TestWriteBack:
    def test_search_repatriates_art_key(self, loaded):
        """Algorithm 2 lines 10-13: finding a key in ART while its
        predicted slot is free moves it back to the learned layer."""
        idx, half, _ = loaded
        # Construct the scenario directly: remove a learned-resident key
        # (leaving a tombstone) and plant its twin in ART.
        k = int(half[77])
        i, m = idx._route(k)
        slot = m.slot_of(k)
        state, resident, _ = m.read_slot(slot)
        if not (state == FULL and resident == k):
            pytest.skip("key not learned-resident under this seed")
        m.clear_slot(slot)  # tombstone
        idx.art.insert(k, "from-art")
        wb0 = idx.writebacks
        assert idx.get(k) == "from-art"
        assert idx.writebacks == wb0 + 1
        assert m.read_slot(slot) == (FULL, k, "from-art")
        assert idx.art.search(k) is None

    def test_busy_writer_lock_skips_write_back(self):
        """The write-back is a write: with the model's writer lock held
        elsewhere, ``get`` still answers from the ART but leaves the key
        there; the next uncontended ``get`` repatriates it."""
        idx = ALTIndex(epsilon=4.0, fast_pointers=False, retraining=False)
        idx.insert(100, "v100")
        idx.insert(163, "v163")
        idx.insert(164, "v164")  # clamps onto 163's slot: goes to the ART
        idx.remove(163)  # the shared slot is now a tombstone
        model = idx.layer.models[0]
        with model.writer_lock:
            assert idx.get(164) == "v164"
            assert idx.writebacks == 0
            assert idx.art.search(164) == "v164"
        assert idx.get(164) == "v164"
        assert idx.writebacks == 1
        assert idx.art.search(164) is None

    def test_batch_hit_reads_its_key_before_its_state(self, monkeypatch):
        """A batch hit needs its key gathered before its FULL state.
        Between probe_live's two gathers the slot's resident is removed
        and a scalar ``get`` starts writing back the ART key that shares
        the slot, pausing after the key write (the value is still the
        removal's ``None``).  ``batch_get`` must answer that key's value,
        not the ``None`` a state read before the key would pair it with."""
        from repro import chaos

        idx = ALTIndex(epsilon=4.0, fast_pointers=False, retraining=False)
        idx.insert(100, "v100")
        idx.insert(163, "v163")
        idx.insert(164, "v164")  # clamps onto 163's slot: goes to the ART
        layer = idx.layer
        probe = np.array([164], dtype=np.uint64)
        layer.probe_live(probe)  # publishes the geometry: no compaction below
        point = chaos.point
        paused, resume = threading.Event(), threading.Event()
        writer = threading.Thread(target=idx.get, args=(164,))

        def pause_write_back(name):
            point(name)
            if name == "gpl.slot_fields" and threading.current_thread() is writer:
                paused.set()  # mid-write: key 164 visible, value still None
                resume.wait(10)

        fired = []

        class Gather(np.ndarray):
            """An arena view that runs the race after its first gather."""

            def __getitem__(self, index):
                out = np.ndarray.__getitem__(self, index)
                if isinstance(index, np.ndarray) and not fired:
                    fired.append(index)
                    idx.remove(163)
                    monkeypatch.setattr(chaos, "point", pause_write_back)
                    writer.start()
                    assert paused.wait(10)
                return out

        layer.np_keys = layer.np_keys.view(Gather)
        layer.np_state = layer.np_state.view(Gather)
        try:
            got = idx.batch_get(probe)
        finally:
            resume.set()
            if writer.ident is not None:
                writer.join(10)
        assert fired
        assert got == ["v164"]
        assert idx.writebacks == 1  # the paused get finished its write-back
        assert idx.get(164) == "v164"

    @pytest.mark.parametrize("reader", ["get", "batch_get"])
    def test_readers_never_miss_a_key_moving_home(self, reader):
        """A write-back writes the slot, then drops the ART copy.  A
        reader that found the slot free before the write and searches
        the ART after the removal must still find the key: every ART
        key here is present throughout, so every answer is its value.
        One thread's scalar gets drive the write-backs (the learned
        resident of each ART key's predicted slot is removed first);
        another reads the same keys in a loop."""
        keys = dataset("fb", 20_000, seed=0)
        idx = ALTIndex.bulk_load(keys, retraining=False, memory=MemoryMap())
        art_keys = [k for k, _ in idx.art.items()]
        for k in art_keys:
            _, model = idx.layer.route(k)
            state, resident, _ = model.read_slot(model.slot_of(k))
            if state == FULL and resident != k:
                idx.remove(resident)
        wb0 = idx.writebacks
        barrier = threading.Barrier(2)
        done = threading.Event()
        errors: list[BaseException] = []
        wrong: list[int] = []

        def write_back():
            try:
                barrier.wait()
                for k in art_keys:
                    idx.get(k)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                barrier.wait()
                while not done.is_set():
                    if reader == "get":
                        got = [idx.get(k) for k in art_keys]
                    else:
                        got = idx.batch_get(art_keys)
                    wrong.extend(k for k, v in zip(art_keys, got) if v != k)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (write_back, read)]
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
        assert not errors, errors
        assert idx.writebacks - wb0 > 500, "too few write-backs to race"
        assert wrong == []


class TestScans:
    def test_scan_merges_layers_sorted(self, loaded):
        idx, half, rest = loaded
        for k in rest[:3000]:
            idx.insert(int(k), int(k))
        live = sorted(set(half.tolist()) | {int(k) for k in rest[:3000]})
        lo = live[50]
        got = [k for k, _ in idx.scan(lo, 100)]
        assert got == live[50:150]

    def test_scan_beyond_end(self, loaded):
        idx, half, _ = loaded
        got = idx.scan(int(half[-1]) + 1, 10)
        assert got == []

    def test_range_query_counts(self, loaded):
        idx, half, _ = loaded
        lo, hi = int(half[10]), int(half[60])
        got = idx.range_query(lo, hi)
        assert [k for k, _ in got] == [int(k) for k in half if lo <= k <= hi]

    def test_full_range_equals_size(self, loaded):
        idx, half, rest = loaded
        for k in rest[:1000]:
            idx.insert(int(k), int(k))
        for k in half[:500]:
            idx.remove(int(k))
        got = idx.range_query(0, 2**64 - 1)
        assert len(got) == len(idx)
        keys = [k for k, _ in got]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("retraining", [True, False])
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_scan_reaches_the_largest_key(self, retraining, sharded):
        # Keys past the last model clamp onto its last slot, so all but
        # one land in the ART; a full ART chunk then ends at 2**64 - 1.
        load = (1000 * np.arange(1, 2001)).astype(np.uint64)
        cls = ShardedALTIndex if sharded else ALTIndex
        idx = cls.bulk_load(load, retraining=retraining, memory=MemoryMap())
        top = [2**64 - 101 + i for i in range(101)]
        for k in top:
            idx.insert(k, k)
        assert len((idx.shards[-1] if sharded else idx).art) >= 100
        assert idx.scan(2**64 - 8, 64) == [(k, k) for k in top[-8:]]
        assert [k for k, _ in idx.scan(2**64 - 101, 1000)] == top

    def test_scan_waits_out_an_insert_into_an_empty_slot(self, monkeypatch):
        """An insert into an EMPTY slot writes the key, then the value.
        A scan in another thread that reads the slot in between must not
        yield the key with the empty slot's ``None``: it re-reads the
        held slot under the seqlock, which waits for the writer."""
        from repro import chaos

        rng = np.random.default_rng(3)
        keys = np.unique(rng.integers(0, 2**40, 40_000, dtype=np.uint64))
        idx = ALTIndex.bulk_load(keys[::2], retraining=False, memory=MemoryMap())
        writer = threading.current_thread()
        point = chaos.point
        scanned, waiting, done = [], threading.Event(), threading.Event()

        def scanner(lo):
            try:
                scanned.append(idx.scan(lo, 1))
            finally:
                done.set()

        def hook(name):
            point(name)
            if name == "slot.read_begin.retry":  # a reader waits on the latch
                waiting.set()
            if name != "gpl.slot_fields" or threading.current_thread() is not writer:
                return
            # Mid-write: the slot's key is visible, its value not yet.
            waiting.clear()
            done.clear()
            reader = threading.Thread(target=scanner, args=(current,))
            reader.start()
            deadline = time.monotonic() + 10
            while not (waiting.is_set() or done.is_set()) and time.monotonic() < deadline:
                time.sleep(0.001)
            hooked.append(reader)

        monkeypatch.setattr(chaos, "point", hook)
        hooked, checked = [], 0
        for current in (int(k) for k in keys[1:400:2]):
            idx.insert(current, ("v", current))
            if hooked:
                hooked.pop().join(10)
                assert scanned.pop() == [(current, ("v", current))]
                checked += 1
        monkeypatch.undo()
        assert checked > 50  # inserts that went to EMPTY learned slots


class TestAblations:
    def test_no_fast_pointers_still_correct(self, sorted_keys):
        idx = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), fast_pointers=False, memory=MemoryMap()
        )
        for k in sorted_keys[::2][:500]:
            assert idx.get(int(k)) == int(k)
        assert idx.fast_pointers is None

    def test_no_merge_more_pointers(self, sorted_keys):
        merged = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), merge_pointers=True, memory=MemoryMap()
        )
        raw = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), merge_pointers=False, memory=MemoryMap()
        )
        if merged.fast_pointers.raw_count:
            assert len(raw.fast_pointers) >= len(merged.fast_pointers)

    def test_no_retraining_never_expands(self, sorted_keys):
        idx = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), retraining=False, memory=MemoryMap()
        )
        for k in sorted_keys[1::2]:
            idx.insert(int(k), int(k))
        assert idx.expansions == 0

    def test_custom_epsilon(self, sorted_keys):
        fine = ALTIndex.bulk_load(sorted_keys, epsilon=16, memory=MemoryMap())
        coarse = ALTIndex.bulk_load(sorted_keys, epsilon=512, memory=MemoryMap())
        assert fine.layer.model_count >= coarse.layer.model_count


class TestRetrainingIntegration:
    def test_heavy_inserts_trigger_expansion(self):
        rng = np.random.default_rng(5)
        keys = np.sort(rng.choice(2**40, 20_000, replace=False).astype(np.uint64))
        idx = ALTIndex.bulk_load(keys[::4].copy(), memory=MemoryMap())
        # concentrate inserts to overload specific models
        for k in keys:
            idx.insert(int(k), int(k))
        assert idx.expansions >= 1
        for k in keys[::17]:
            assert idx.get(int(k)) == int(k)

    def test_consistency_through_expansion(self):
        keys = np.arange(1000, 2000, 2, dtype=np.uint64)
        idx = ALTIndex.bulk_load(keys, memory=MemoryMap())
        inserted = list(range(1001, 2000, 2)) + list(range(2001, 2400))
        for k in inserted:
            idx.insert(k, k * 2)
        for k in inserted:
            assert idx.get(k) == k * 2, k
        for k in keys:
            assert idx.get(int(k)) == int(k)


    def test_finished_expansion_leaves_every_key_one_home(self):
        """An expansion swap can give ART keys of the model an EMPTY slot
        in the new model.  A scalar insert writes an EMPTY slot without
        consulting the ART, so unless the swap moves those keys home, a
        re-insert reports a new key, ``len`` drifts, and a remove leaves
        the stale ART copy to come back."""
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 2**40, 8_000, dtype=np.uint64))
        base = keys[::4]
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        for k in np.setdiff1d(keys, base).tolist():
            idx.insert(k, k)
        art_keys = [k for k, _ in idx.art.items()]
        assert idx.expansions > 0 and art_keys, "workload assumption broken"
        # No ART key predicts to an EMPTY slot of a model without an
        # active expansion.
        for k in art_keys:
            _, m = idx.layer.route(k)
            if m.expansion is None:
                assert m.read_slot(m.slot_of(k))[0] != EMPTY, k
        for k in art_keys:
            n = len(idx)
            assert idx.insert(k, "v2") is False, k
            assert len(idx) == n
            assert idx.remove(k), k
            assert idx.get(k) is None, k
        assert len(idx) == len(keys) - len(art_keys)


class TestStatsAndTracing:
    def test_stats_shape(self, loaded):
        idx, _, _ = loaded
        s = idx.stats()
        for field in (
            "epsilon",
            "model_count",
            "learned_keys",
            "art_keys",
            "memory_bytes",
            "fast_pointers",
        ):
            assert field in s
        assert s["memory_bytes"] > 0

    def test_ops_emit_traces(self, loaded):
        idx, half, rest = loaded
        with tracer() as t:
            idx.get(int(half[3]))
        assert t.reads and t.model_calcs >= 1
        with tracer() as t:
            idx.insert(int(rest[3]), 1)
        assert t.writes

    def test_art_path_length(self, loaded):
        idx, half, rest = loaded
        for k in rest[:1000]:
            idx.insert(int(k), int(k))
        k = int(rest[5])
        with_ptr = idx.art_path_length(k)
        without = idx.art.lookup_path_length(k)
        assert with_ptr <= without


class TestTracedTwin:
    """A traced op runs the scalar, descent-based twin of each untraced
    fast path (``ART.search_runs``, vectorized batches); both must leave
    the same results and the same index behind.  Fast-pointer stats are
    left out: only a traced descent registers entries."""

    STATS = ("learned_keys", "art_keys", "writebacks", "conflict_inserts",
             "expansions", "total_slots", "model_count")

    @staticmethod
    def stream(universe, n_ops, seed=0):
        """Seeded scalar and batch ops, half of them on a hot eighth of
        the keys (plus their absent ``k + 1`` neighbours), so models
        expand; batches of 1-63 keys drawn from half as many."""
        rng = np.random.default_rng(seed)
        pool = np.unique(np.concatenate([universe, universe + np.uint64(1)]))
        hot = pool[: len(pool) // 8]
        kinds = ("get", "insert", "remove", "scan", "batch_get", "batch_insert", "batch_remove")
        ops = []
        for step in range(n_ops):
            kind = kinds[rng.choice(7, p=(0.15, 0.3, 0.1, 0.05, 0.1, 0.2, 0.1))]
            src = hot if rng.random() < 0.5 else pool
            if kind.startswith("batch"):
                m = int(rng.integers(1, 64))
                ops.append((kind, rng.choice(rng.choice(src, max(1, m // 2)), m), step))
            else:
                ops.append((kind, int(rng.choice(src)), step))
        return ops

    def replay(self, universe, ops, traced):
        idx = ALTIndex.bulk_load(universe[::2], epsilon=8, memory=MemoryMap())
        results = []
        for kind, arg, step in ops:
            with tracer() if traced else contextlib.nullcontext():
                if kind == "insert":
                    r = idx.insert(arg, step)
                elif kind == "scan":
                    r = idx.scan(arg, 20)
                elif kind == "batch_insert":
                    r = idx.batch_insert(arg, [step * 100 + j for j in range(len(arg))])
                else:
                    r = getattr(idx, kind)(arg)
            results.append(r.tolist() if isinstance(r, np.ndarray) else r)
        stats = idx.stats()
        return results, len(idx), idx.scan(0, len(idx) + 1), {f: stats[f] for f in self.STATS}

    @pytest.mark.parametrize("name", ["fb", "libio", "osm", "longlat"])
    def test_traced_and_untraced_ops_agree(self, name):
        universe = np.unique(dataset(name, 16_000, seed=0))
        ops = self.stream(universe, 2_000)
        untraced = self.replay(universe, ops, traced=False)
        assert untraced[3]["expansions"] > 0 and untraced[3]["writebacks"] > 0
        assert self.replay(universe, ops, traced=True) == untraced

    def test_a_drifted_twin_is_caught(self, monkeypatch):
        universe = np.unique(dataset("osm", 16_000, seed=0))
        ops = self.stream(universe, 500)
        traced = self.replay(universe, ops, traced=True)
        monkeypatch.setattr(AdaptiveRadixTree, "search_runs", lambda self, key: None)
        assert self.replay(universe, ops, traced=False) != traced


class TestChurnMemory:
    """Insert/remove churn keeps every ART's modeled bytes within 2x of a
    fresh bottom-up build of the keys it holds: writers free each node
    they replace, and the bulk load leaves no node behind."""

    N, ROUNDS, CHURN = 15_000, 3, 5_000

    def _churn(self, bulk_load):
        keys = dataset("osm", self.N, seed=0)
        memory = MemoryMap()
        index = bulk_load(keys[::3], memory)
        rest = np.setdiff1d(keys, keys[::3])
        rng = np.random.default_rng(0)
        for _ in range(self.ROUNDS):
            batch = rng.choice(rest, size=self.CHURN, replace=False).tolist()
            for k in batch:
                index.insert(k, k)
            for k in batch:
                assert index.remove(k)
            for shard in getattr(index, "shards", [index]):
                items = shard.art.items()
                fresh = MemoryMap()
                AdaptiveRadixTree(fresh, "f").build_sorted(
                    [k for k, _ in items], [v for _, v in items]
                )
                live = memory.live_bytes(f"{shard.mem_tag}/art")
                assert live <= 2 * fresh.live_bytes("f")

    def test_alt_index(self):
        self._churn(lambda keys, memory: ALTIndex.bulk_load(keys, memory=memory))

    def test_sharded_index(self):
        self._churn(
            lambda keys, memory: ShardedALTIndex.bulk_load(keys, shards=4, memory=memory)
        )


class TestExactARTMemory:
    def test_art_bytes_after_move_home_and_write_back(self, monkeypatch):
        """An expansion's move-home and a lookup's write-back each remove
        ART keys; the ART's live bytes must then equal the sizes of the
        nodes still reachable, so no node was released twice or leaked."""
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 2**40, 8_000, dtype=np.uint64))
        memory = MemoryMap()
        idx = ALTIndex.bulk_load(keys[::4], memory=memory)
        tag = f"{idx.mem_tag}/art"
        assert memory.live_bytes(tag) == reachable_bytes(idx.art.root)
        moved = []
        move_home = ALTIndex._move_home

        def counting_move_home(self, index, model):
            before = len(self.art)
            move_home(self, index, model)
            moved.append(before - len(self.art))

        monkeypatch.setattr(ALTIndex, "_move_home", counting_move_home)
        for k in np.setdiff1d(keys, keys[::4]).tolist():
            idx.insert(k, k)
        assert sum(moved) > 0, "no expansion moved an ART key home"
        assert memory.live_bytes(tag) == reachable_bytes(idx.art.root)
        # Tombstone the slot an ART key lost to a resident key, then look
        # the ART key up: it is written back and leaves the ART.
        for k, _ in idx.art.items():
            _, model = idx.layer.route(k)
            state, resident, _ = model.read_slot(model.slot_of(k))
            if model.expansion is None and state == FULL:
                break
        else:
            pytest.fail("no ART key shares its slot with a resident key")
        assert idx.remove(resident)
        writebacks = idx.writebacks
        assert idx.get(k) == k
        assert idx.writebacks == writebacks + 1 and idx.art.search(k) is None
        assert memory.live_bytes(tag) == reachable_bytes(idx.art.root)


@pytest.mark.slow
class TestConcurrentALT:
    def test_racing_inserts_on_one_empty_slot_every_schedule(self):
        """Two inserts predicted onto one EMPTY slot keep both keys on
        every interleaving; without the writer lock one key is lost."""
        from repro.chaos.dpor import explore_protocol

        clean = explore_protocol("insert", max_schedules=200)
        assert clean.complete and not clean.violations
        assert explore_protocol("insert", planted=True).violations

    def test_writer_reroutes_after_expansion_swap(self):
        """A writer that waited on the model lock while an expansion
        swapped the model writes into the live model, not the retired one."""
        idx = ALTIndex(epsilon=4.0, fast_pointers=False)
        for k in (100, 110, 120):
            idx.insert(k, k)
        old = idx.layer.models[0]
        routes = []
        route = idx.layer.route
        idx.layer.route = lambda key: (routes.append(key), route(key))[1]
        with old.writer_lock:
            writer = threading.Thread(target=idx.insert, args=(130, 130))
            writer.start()
            while not routes:
                time.sleep(0.001)
            time.sleep(0.05)  # let the writer block on the held lock
            old.expansion = ExpansionBuffer(old, MemoryMap(), "t")
            new = finish_expansion(idx.layer, 0, lambda k, v: idx.art.insert(k, v))
        writer.join()
        assert idx.layer.models[0] is new and new.writer_lock is old.writer_lock
        assert routes == [130, 130]  # routed once, re-routed once
        assert new.read_slot(new.slot_of(130)) == (FULL, 130, 130)
        assert 130 not in old.np_keys.tolist()
        assert [idx.get(k) for k in (100, 110, 120, 130)] == [100, 110, 120, 130]

    def test_racing_first_inserts_bootstrap_one_model(self, monkeypatch):
        """Two first inserts into an empty index both see no model.  The
        first to append the bootstrap model parks inside
        append_overflow_model until the other arrives (or half a second
        passes): only one model may be appended, and both keys found."""
        append = LearnedLayer.append_overflow_model
        barrier = threading.Barrier(2, timeout=0.5)

        def parked(layer, *args):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass  # the other insert never got here
            return append(layer, *args)

        monkeypatch.setattr(LearnedLayer, "append_overflow_model", parked)
        idx = ALTIndex(epsilon=4.0, fast_pointers=False)
        errors = []

        def insert(key):
            try:
                idx.insert(key, f"v{key}")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=insert, args=(k,)) for k in (200, 100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert idx.layer.model_count == 1
        assert (idx.get(100), idx.get(200), len(idx)) == ("v100", "v200", 2)

    @pytest.mark.parametrize("clear", [False, True], ids=["keep-pointer", "planted-clear"])
    def test_reader_in_retired_model_finds_evicted_key(self, monkeypatch, clear):
        """A reader routes to the old model and reads the tombstone an
        expansion eviction left; the swap then completes before the
        reader looks at ``model.expansion``.  The retired model keeps
        pointing at the buffer (now the live model), so the reader still
        finds the key.  The planted mutant clears the pointer at the
        swap: the reader misses the buffer and the ART, and returns None
        for a live key."""
        idx = ALTIndex(epsilon=4.0, fast_pointers=False)
        idx.insert(100, "v100")
        idx.insert(163, "v163")  # model slot 63, the last one
        old = idx.layer.models[0]
        evicted, read_done, swapped = threading.Event(), threading.Event(), threading.Event()
        finish = alt_index.finish_expansion
        probe = LearnedLayer.probe

        def paused_finish(layer, index, spill):
            # insert(170) started an expansion and evicted 163 from slot
            # 63 into the buffer; hold the swap until the reader has
            # read that tombstone.
            evicted.set()
            read_done.wait(timeout=5)
            new = finish(layer, index, spill)
            if clear:
                old.expansion = None
            swapped.set()
            return new

        def paused_probe(layer, key):
            out = probe(layer, key)
            if threading.current_thread().name == "reader" and out[1] is old:
                read_done.set()
                swapped.wait(timeout=5)
            return out

        monkeypatch.setattr(alt_index, "finish_expansion", paused_finish)
        monkeypatch.setattr(LearnedLayer, "probe", paused_probe)
        got = []
        writer = threading.Thread(target=idx.insert, args=(170, "v170"))
        reader = threading.Thread(target=lambda: got.append(idx.get(163)), name="reader")
        writer.start()
        assert evicted.wait(timeout=5)
        assert old.read_slot(63)[0] == TOMBSTONE
        reader.start()
        writer.join(timeout=5)
        reader.join(timeout=5)
        assert not writer.is_alive() and not reader.is_alive()
        assert idx.layer.models[0] is not old
        assert got == ([None] if clear else ["v163"])
        assert idx.get(163) == "v163"

    def test_switch_heavy_readers_find_every_loaded_key(self, sorted_keys):
        """Readers probe loaded keys while more writer threads than cores
        insert their neighbours (driving expansions), preempted every
        10 µs: every read of a loaded key must find it."""
        half = sorted_keys[::2].copy()
        rest = [int(k) for k in sorted_keys[1::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(2):
                idx = ALTIndex.bulk_load(half, memory=MemoryMap())
                misses, stop = [], threading.Event()

                def writer(chunk, idx=idx):
                    for k in chunk:
                        idx.insert(k, k)

                def reader(seed, idx=idx, misses=misses, stop=stop):
                    loaded = half.tolist()
                    rng = np.random.default_rng([trial, seed])
                    while not stop.is_set():
                        for i in rng.integers(0, len(loaded), 100).tolist():
                            if idx.get(loaded[i]) != loaded[i]:
                                misses.append(loaded[i])

                writers = [threading.Thread(target=writer, args=(rest[i::4],)) for i in range(4)]
                readers = [threading.Thread(target=reader, args=(j,)) for j in range(2)]
                for t in readers + writers:
                    t.start()
                for t in writers:
                    t.join(timeout=60)
                stop.set()
                for t in readers:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in readers + writers)
                assert idx.expansions > 0
                assert misses == []
        finally:
            sys.setswitchinterval(interval)

    def test_switch_heavy_writers_lose_no_key(self, sorted_keys):
        """More writer threads than cores, preempted every 10 µs: every
        bulk-loaded and every inserted key must survive."""
        half = sorted_keys[::2].copy()
        rest = [int(k) for k in sorted_keys[1::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(6):
                idx = ALTIndex.bulk_load(half, memory=MemoryMap())

                def writer(chunk, idx=idx):
                    for k in chunk:
                        idx.insert(k, k)

                threads = [
                    threading.Thread(target=writer, args=(rest[i::4],))
                    for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                lost = [k for k in sorted_keys.tolist() if idx.get(k) != k]
                assert lost == []
                assert len(idx) == len(sorted_keys)
        finally:
            sys.setswitchinterval(interval)

    def test_parallel_inserts_and_reads(self, sorted_keys):
        half = sorted_keys[::2].copy()
        rest = [int(k) for k in sorted_keys[1::2]]
        idx = ALTIndex.bulk_load(half, memory=MemoryMap())
        errors = []
        stop = threading.Event()

        def writer(chunk):
            for k in chunk:
                idx.insert(k, k)

        def reader():
            import random

            while not stop.is_set():
                k = int(half[random.randrange(len(half))])
                v = idx.get(k)
                if v != k:
                    errors.append((k, v))

        chunks = [rest[i::4] for i in range(4)]
        writers = [threading.Thread(target=writer, args=(c,)) for c in chunks]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        for k in rest[::13]:
            assert idx.get(k) == k
