"""Tests for the fast pointer buffer (§III-C)."""

import numpy as np
import pytest

from repro.art.nodes import Leaf, Node
from repro.art.tree import AdaptiveRadixTree
from repro.core.fast_pointer import FastPointerBuffer
from repro.core.learned_layer import LearnedLayer
from repro.sim.trace import MemoryMap


@pytest.fixture
def art():
    return AdaptiveRadixTree(MemoryMap(), "t")


def fill(art, keys):
    for k in keys:
        art.insert(k, k)


class TestRegistration:
    def test_empty_art_gives_no_pointer(self, art):
        buf = FastPointerBuffer(art)
        assert buf.register(10, 20) == -1
        assert buf.entry(-1) is None

    def test_register_returns_entry(self, art):
        fill(art, [0x0100, 0x0101, 0x0110, 0x0200])
        buf = FastPointerBuffer(art)
        idx = buf.register(0x0100, 0x0110)
        assert idx >= 0
        node = buf.entry(idx)
        assert node is not None
        # Every key in the pointer's range is reachable from the entry.
        for k in (0x0100, 0x0101):
            assert art.search(k, from_node=node) == k

    def test_merge_dedupes_same_node(self, art):
        fill(art, [0x0100, 0x0101, 0x0102, 0x0103])
        buf = FastPointerBuffer(art, merge=True)
        a = buf.register(0x0100, 0x0101)
        b = buf.register(0x0101, 0x0102)
        assert a == b
        assert len(buf) == 1
        assert buf.raw_count == 2

    def test_no_merge_keeps_duplicates(self, art):
        fill(art, [0x0100, 0x0101, 0x0102, 0x0103])
        buf = FastPointerBuffer(art, merge=False)
        a = buf.register(0x0100, 0x0101)
        b = buf.register(0x0101, 0x0102)
        assert a != b
        assert len(buf) == 2

    def test_last_model_uses_max_key(self, art):
        fill(art, [100, 200, 2**60])
        buf = FastPointerBuffer(art)
        idx = buf.register(100, None)
        # common ancestor of 100 and UINT64_MAX is near the root
        assert idx == -1 or buf.entry(idx) is not None


class TestLayerIntegration:
    def test_build_for_layer_assigns_indexes(self):
        mem = MemoryMap()
        keys = np.sort(
            np.random.default_rng(0).choice(2**40, 5000, replace=False).astype(np.uint64)
        )
        layer, ckeys, cvals = LearnedLayer.bulk_build(keys, keys, 16, mem, "t", 1.2)
        art = AdaptiveRadixTree(mem, "t/art")
        for k, v in zip(ckeys.tolist(), cvals):
            art.insert(k, v)
        buf = FastPointerBuffer(art)
        buf.build_for_layer(layer)
        assigned = [m.fast_index for m in layer.models if m.fast_index >= 0]
        assert assigned, "expected at least some fast pointers"
        assert len(buf) <= buf.raw_count
        # Conflict keys must be findable through their model's pointer.
        for k in ckeys[:200].tolist():
            i, m = layer.route(k)
            entry = buf.entry(m.fast_index)
            assert art.search(k, from_node=entry) == k


class TestInvalidationRepair:
    def test_node_growth_repairs_pointer(self, art):
        # Node4 under the pointer grows to Node16; entry must be swapped.
        base = 0x4200000000000000
        fill(art, [base + 1, base + 2])
        buf = FastPointerBuffer(art)
        idx = buf.register(base + 1, base + 2)
        before = buf.entry(idx)
        for i in range(3, 12):  # overflow the Node4
            art.insert(base + i, i)
        after = buf.entry(idx)
        assert after is not None
        assert not getattr(after, "lock").is_obsolete
        assert buf.repairs >= 1 or after is before
        for i in range(1, 12):
            assert art.search(base + i, from_node=after) is not None

    def test_prefix_extraction_repairs_pointer(self, art):
        # All keys share a long prefix; inserting a diverging key forces
        # prefix extraction above the pointed-at node.
        base = 0x1111111111110000
        fill(art, [base + 1, base + 2, base + 3])
        buf = FastPointerBuffer(art)
        idx = buf.register(base + 1, base + 3)
        art.insert(0x1111222200000001, 9)  # diverges inside the prefix
        node = buf.entry(idx)
        assert node is not None
        assert not node.lock.is_obsolete
        # The old range must still be reachable below the repaired entry.
        for k in (base + 1, base + 2, base + 3):
            assert art.search(k, from_node=node) == k

    def test_stats(self, art):
        fill(art, [1, 2, 3, 4])
        buf = FastPointerBuffer(art)
        buf.register(1, 2)
        s = buf.stats()
        assert set(s) == {
            "pointers", "raw_pointers", "repairs", "merge_enabled",
            "lookups", "hits",
        }


class TestStaleLeafEntry:
    """A remove-side merge repoints an entry at a bare Leaf; the leaf
    can then split or be upserted without a notification, so the entry
    must never hand it out as a mid-tree start."""

    A, B, C = 0x0102030405060701, 0x0102030405060702, 0x0202030405060701

    def _leaf_entry(self, art):
        art.insert(self.A, "a")
        art.insert(self.B, "b")
        art.insert(self.C, "c")
        buf = FastPointerBuffer(art)
        idx = buf.register(self.A, self.B)
        assert isinstance(buf.entry(idx), Node)
        assert art.remove(self.A)  # merges the pair's Node4 into leaf B
        assert isinstance(buf._pointers[idx], Leaf)
        return buf, idx

    def test_split_leaf_does_not_hide_the_sibling(self, art):
        buf, idx = self._leaf_entry(art)
        d = 0x0102030405060703
        assert art.insert(d, "d")  # splits leaf B into a Node4
        hits = buf.hits
        entry = buf.entry(idx)
        assert entry is None and buf.hits == hits
        assert art.search(d, from_node=entry) == "d"
        assert art.search(self.B, from_node=entry) == "b"
        # Even handed the stale leaf directly, search starts at the root.
        assert art.search(d, from_node=buf._pointers[idx]) == "d"

    def test_upserted_leaf_does_not_return_the_old_value(self, art):
        buf, idx = self._leaf_entry(art)
        art.insert(self.B, "b2", upsert=True)  # replaces leaf B
        entry = buf.entry(idx)
        assert entry is None
        assert art.search(self.B, from_node=entry) == "b2"
        assert art.search(self.B, from_node=buf._pointers[idx]) == "b2"
