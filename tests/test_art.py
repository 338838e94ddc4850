"""Tests for the Adaptive Radix Tree substrate."""

import random
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.nodes import (
    Leaf,
    Node4,
    Node16,
    Node48,
    Node256,
    common_prefix_len,
    encode_key,
)
from repro.art.tree import _OVERLAY_FRACTION, _REMOVED, NO_RUNS, AdaptiveRadixTree
from repro.sim.trace import NULL_TRACE, LineSpan, MemoryMap, line_count, tracer


@pytest.fixture
def tree():
    return AdaptiveRadixTree(MemoryMap(), "test")


class TestEncoding:
    def test_big_endian_order_equals_numeric(self):
        keys = [0, 1, 255, 256, 2**32, 2**63, 2**64 - 1]
        encoded = [encode_key(k) for k in keys]
        assert encoded == sorted(encoded)

    def test_common_prefix_len(self):
        assert common_prefix_len(b"abcd", b"abcf") == 3
        assert common_prefix_len(b"abcd", b"abcd") == 4
        assert common_prefix_len(b"abcd", b"xbcd") == 0
        assert common_prefix_len(b"abcd", b"abzz", start=2) == 0
        assert common_prefix_len(b"aabb", b"aabc", start=2) == 1


class TestNodeTypes:
    @pytest.mark.parametrize("cls", [Node4, Node16, Node48, Node256])
    def test_add_find_remove(self, cls):
        node = cls(b"", 0, 0)
        children = {}
        for byte in range(0, cls.CAPACITY * 5, 5):
            if byte > 255 or node.is_full():
                break
            leaf = Leaf(byte, byte, 0)
            node.add_child(byte, leaf)
            children[byte] = leaf
        for byte, leaf in children.items():
            assert node.find_child(byte) is leaf
        assert node.find_child(1) is None
        some = next(iter(children))
        node.remove_child(some)
        assert node.find_child(some) is None

    @pytest.mark.parametrize("cls", [Node4, Node16, Node48])
    def test_grow_preserves_children(self, cls):
        node = cls(b"pre", 3, 0)
        for byte in range(cls.CAPACITY):
            node.add_child(byte, Leaf(byte, byte, 0))
        grown = node.resized(cls.GROWN, 7)
        assert type(grown) is cls.GROWN and grown.line == 7
        assert grown.count == cls.CAPACITY
        assert grown.prefix == b"pre"
        assert grown.match_level == 3
        for byte in range(cls.CAPACITY):
            assert grown.find_child(byte).key == byte

    @pytest.mark.parametrize("cls", [Node16, Node48, Node256])
    def test_shrink_preserves_children(self, cls):
        node = cls(b"p", 1, 0)
        n = cls.SHRINK_AT - 1
        for byte in range(n):
            node.add_child(byte, Leaf(byte, byte, 0))
        small = node.resized(cls.SHRUNK, 7)
        assert type(small) is cls.SHRUNK and small.line == 7
        assert small.count == n
        for byte in range(n):
            assert small.find_child(byte).key == byte

    @pytest.mark.parametrize("cls", [Node4, Node16, Node48, Node256])
    def test_matches_a_dict(self, cls):
        """A seeded mix of adds, removes and replaces leaves the node's
        children equal to a dict's, through every query and a
        grow→shrink round trip (shrink→grow for Node256)."""
        rng = random.Random(cls.CAPACITY)
        node, oracle = cls(b"p", 1, 0), {}

        def check(node):
            assert node.count == len(oracle)
            for byte in range(256):
                assert node.find_child(byte) is oracle.get(byte)
            for start in (0, 1, 37, 128, 200, 255, 256):
                assert list(node.iter_children(start)) == sorted(
                    (b, c) for b, c in oracle.items() if b >= start
                )

        for _ in range(400):
            byte, op = rng.randrange(256), rng.random()
            if byte in oracle and op < 0.4:
                node.remove_child(byte)
                del oracle[byte]
            elif byte in oracle:
                oracle[byte] = Leaf(byte, op, 0)
                node.replace_child(byte, oracle[byte])
            elif not node.is_full():
                oracle[byte] = Leaf(byte, op, 0)
                node.add_child(byte, oracle[byte])
            check(node)
        while len(oracle) >= (cls.SHRUNK or cls).CAPACITY:  # fits both types
            node.remove_child(oracle.popitem()[0])
        there, back = (cls.SHRUNK, "GROWN") if cls.GROWN is None else (cls.GROWN, "SHRUNK")
        moved = node.resized(there, 7)
        check(moved)
        returned = moved.resized(getattr(there, back), 9)
        assert type(returned) is cls and (returned.prefix, returned.match_level) == (b"p", 1)
        check(returned)

    def test_iter_children_sorted(self):
        for cls in (Node4, Node16, Node48, Node256):
            node = cls(b"", 0, 0)
            for byte in (200, 3, 77, 150):
                node.add_child(byte, Leaf(byte, byte, 0))
            assert [b for b, _ in node.iter_children()] == [3, 77, 150, 200]
            for start in range(257):
                got = [(b, c.key) for b, c in node.iter_children(start)]
                assert got == [(b, b) for b in (3, 77, 150, 200) if b >= start], (cls, start)


class TestTreeBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.search(42) is None
        assert not tree.remove(42)
        assert tree.items() == []

    def test_single_key(self, tree):
        assert tree.insert(42, "v")
        assert tree.search(42) == "v"
        assert tree.search(43) is None
        assert len(tree) == 1

    def test_duplicate_insert_no_upsert(self, tree):
        tree.insert(42, "a")
        assert not tree.insert(42, "b")
        assert tree.search(42) == "a"

    def test_duplicate_insert_upsert(self, tree):
        tree.insert(42, "a")
        assert not tree.insert(42, "b", upsert=True)
        assert tree.search(42) == "b"
        assert len(tree) == 1

    def test_zero_and_max_key(self, tree):
        tree.insert(0, "zero")
        tree.insert(2**64 - 1, "max")
        assert tree.search(0) == "zero"
        assert tree.search(2**64 - 1) == "max"

    def test_remove_to_empty(self, tree):
        tree.insert(1, 1)
        assert tree.remove(1)
        assert len(tree) == 0
        assert tree.search(1) is None
        tree.insert(1, 2)  # reusable after emptying
        assert tree.search(1) == 2


class TestTreeBulk:
    def test_random_keys(self, tree):
        random.seed(7)
        keys = random.sample(range(2**60), 3000)
        for k in keys:
            assert tree.insert(k, k ^ 1)
        assert len(tree) == 3000
        for k in keys:
            assert tree.search(k) == k ^ 1

    def test_dense_keys_use_big_nodes(self, tree):
        for k in range(1000):
            tree.insert(k, k)
        counts = tree.node_counts()
        assert counts.get("Node256", 0) + counts.get("Node48", 0) >= 1
        for k in range(1000):
            assert tree.search(k) == k

    def test_items_sorted(self, tree):
        random.seed(3)
        keys = random.sample(range(2**48), 500)
        for k in keys:
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_items_range(self, tree):
        for k in range(0, 1000, 7):
            tree.insert(k, k)
        got = [k for k, _ in tree.items(100, 300)]
        assert got == [k for k in range(0, 1000, 7) if 100 <= k <= 300]

    def test_scan_limit(self, tree):
        keys = sorted(random.Random(5).sample(range(2**40), 800))
        for k in keys:
            tree.insert(k, k)
        lo = keys[100]
        got = [k for k, _ in tree.scan(lo, 50)]
        assert got == keys[100:150]

    def test_scan_from_absent_key(self, tree):
        keys = sorted(random.Random(5).sample(range(10**9), 300))
        for k in keys:
            tree.insert(k, k)
        lo = keys[10] + 1
        got = [k for k, _ in tree.scan(lo, 20)]
        import bisect

        i = bisect.bisect_left(keys, lo)
        assert got == keys[i : i + 20]

    def test_delete_half(self, tree):
        random.seed(9)
        keys = random.sample(range(2**52), 2000)
        for k in keys:
            tree.insert(k, k)
        for k in keys[:1000]:
            assert tree.remove(k)
        assert len(tree) == 1000
        for k in keys[:1000]:
            assert tree.search(k) is None
        for k in keys[1000:]:
            assert tree.search(k) == k


class TestBoundedScan:
    """``scan`` lists at most ``limit - len(out) + 1`` children per inner
    node.  The extra child covers a *tight* first child (the one on
    ``lo``'s own byte) whose keys all lie below ``lo``; these cases make
    that child a leaf or an inner node and compare every small limit
    against a sorted reference, at every inner node size."""

    TOP = 1 << 56  # a sibling subtree, so the node under test can shrink

    @staticmethod
    def _keys(h: int) -> list[int]:
        # Even h: an inner Node4 child (two keys); odd h: a lone leaf.
        return [(h << 8) | 0x10, (h << 8) | 0x20] if h % 2 == 0 else [(h << 8) | 0x10]

    def _check(self, tree, live: list[int], his: list[int]) -> None:
        for h in his:
            for lo in ((h << 8) | 0x30, (h << 8) | 0x15, h << 8):
                ref = [k for k in live if k >= lo]
                for limit in range(1, 8):
                    got = [k for k, _ in tree.scan(lo, limit)]
                    assert got == ref[:limit], (hex(lo), limit)
                assert [k for k, _ in tree.scan(lo, len(ref) + 3)] == ref

    def test_tight_child_below_lo_at_every_node_size(self, tree):
        rng = random.Random(11)
        his = list(range(256))
        tree.insert(self.TOP, "top")
        for h in his:
            for k in self._keys(h):
                tree.insert(k, k)
        for n, kind in ((256, Node256), (40, Node256), (30, Node48), (10, Node16), (2, Node4)):
            drop = rng.sample(his, len(his) - n)
            for h in drop:
                for k in self._keys(h):
                    assert tree.remove(k)
            his = sorted(set(his) - set(drop))
            assert type(tree._root.find_child(0)) is kind
            live = sorted(k for h in his for k in self._keys(h)) + [self.TOP]
            sample = his if len(his) <= 40 else rng.sample(his, 40)
            self._check(tree, live, sorted(sample) + [his[-1]])

    def test_empty_subtrees_left_by_skipped_merges(self, tree, monkeypatch):
        """A path-compression merge skipped under contention can leave an
        inner node with no children; the bounded listing must list on
        past such subtrees instead of ending the scan short."""
        from repro.concurrency.version_lock import RestartException

        for h in range(0, 20, 2):
            for k in self._keys(h):
                tree.insert(k, k)

        def busy_parent(node, trace):
            raise RestartException

        monkeypatch.setattr(tree, "_lock_parent_of", busy_parent)
        for h in (4, 6, 8):
            for k in self._keys(h):
                assert tree.remove(k)
        assert tree._root.find_child(4).count == 0
        live = sorted(k for h in range(0, 20, 2) if h not in (4, 6, 8) for k in self._keys(h))
        self._check(tree, live, [2, 4, 6, 8])


class TestStructureModifications:
    def test_prefix_extraction_notifies(self, tree):
        events = []
        tree.add_replace_listener(lambda old, new: events.append((old, new)))
        # Keys sharing a long prefix, then one diverging inside it.
        tree.insert(0x1111111100000001, 1)
        tree.insert(0x1111111100000002, 2)
        tree.insert(0x1111222200000001, 3)  # diverges at byte 2
        assert tree.search(0x1111111100000001) == 1
        assert tree.search(0x1111222200000001) == 3
        assert any(
            getattr(new, "match_level", None) is not None for _, new in events
        )

    def test_growth_notifies(self, tree):
        events = []
        tree.add_replace_listener(lambda old, new: events.append((old, new)))
        base = 0xAA00000000000000
        for i in range(6):  # > Node4 capacity under one parent
            tree.insert(base + (i << 8), i)
        grew = [(o, n) for o, n in events if type(o).__name__ != type(n).__name__]
        assert grew, "expected at least one node growth notification"
        old, new = grew[0]
        assert old.lock.is_obsolete

    def test_match_level_consistency(self, tree):
        random.seed(11)
        keys = random.sample(range(2**56), 500)
        for k in keys:
            tree.insert(k, k)

        def check(node, depth):
            from repro.art.nodes import Leaf as L, Node as N

            if node is None or isinstance(node, L):
                return
            assert node.match_level == depth
            depth2 = depth + len(node.prefix)
            for _, child in node.iter_children():
                check(child, depth2 + 1)

        check(tree.root, 0)

    def test_parent_pointers_consistent(self, tree):
        random.seed(13)
        keys = random.sample(range(2**56), 800)
        for k in keys:
            tree.insert(k, k)
        for k in keys[:400]:
            tree.remove(k)

        from repro.art.nodes import Leaf as L, Node as N

        def check(node):
            if node is None or isinstance(node, L):
                return
            for byte, child in node.iter_children():
                assert child.parent is node
                assert child.pbyte == byte
                check(child)

        check(tree.root)


class TestMidTreeEntry:
    def test_common_ancestor_and_search_from(self, tree):
        keys = [0x0100, 0x0101, 0x0102, 0x0200, 0x0201]
        for k in keys:
            tree.insert(k, k)
        anc = tree.common_ancestor(0x0100, 0x0102)
        assert anc is not None
        for k in (0x0100, 0x0101, 0x0102):
            assert tree.search(k, from_node=anc) == k

    def test_insert_from_ancestor(self, tree):
        for k in (0x010000, 0x010010, 0x010020):
            tree.insert(k, k)
        anc = tree.common_ancestor(0x010000, 0x010020)
        assert tree.insert(0x010015, 99, from_node=anc)
        assert tree.search(0x010015) == 99
        assert tree.search(0x010015, from_node=anc) == 99

    def test_path_length_shorter_from_ancestor(self, tree):
        random.seed(21)
        base = 0x5500000000000000
        keys = [base + random.randrange(2**24) for _ in range(2000)]
        keys = list(dict.fromkeys(keys))
        for k in keys:
            tree.insert(k, k)
        anc = tree.common_ancestor(min(keys), min(keys) + 2**20)
        k = keys[50]
        full = tree.lookup_path_length(k)
        if anc is not None and anc is not tree.root:
            short = tree.lookup_path_length(k, from_node=anc)
            assert short <= full

    def test_leaf_entry_after_merge_collapse(self, tree):
        """Removing a sibling can path-compression-merge a Node4 into
        its only remaining child — possibly a bare Leaf — and the
        replace notification re-aims fast pointers at it.  A Leaf is
        never a usable mid-tree entry (it can split or be upserted
        without a notification): search and insert fall back to a root
        descent."""
        replacements = []
        tree.add_replace_listener(lambda old, new: replacements.append((old, new)))
        # A pair diverging in the last byte under a root split: the
        # pair's Node4 has a parent, so removing one sibling merges it
        # into the surviving leaf.
        tree.insert(0x0102030405060701, "a")
        tree.insert(0x0102030405060702, "b")
        tree.insert(0x0202030405060701, "c")
        assert tree.remove(0x0102030405060701)
        leaves = [new for _, new in replacements if isinstance(new, Leaf)]
        assert leaves, "merge did not collapse to a leaf"
        leaf = leaves[-1]
        assert tree.search(0x0102030405060702, from_node=leaf) == "b"
        assert tree.search(0x0102030405060701, from_node=leaf) is None
        assert tree.lookup_path_length(0x0102030405060702, from_node=leaf) == 0
        assert tree.insert(0x0102030405060703, "d", from_node=leaf)
        assert tree.search(0x0102030405060703) == "d"

    def test_obsolete_entry_falls_back_to_root(self, tree):
        for k in range(300):
            tree.insert(k * 1000, k)
        # A stale shortcut: a node that was unlinked (and marked
        # obsolete) by a structure modification.  Search must fall back
        # to the root.
        from repro.art.nodes import Node4

        stale = Node4(b"", 0, 0)
        stale.lock.write_lock_or_restart()
        stale.lock.write_unlock_obsolete()
        assert tree.search(5000, from_node=stale) == 5
        assert tree.insert(5001, "n", from_node=stale)
        assert tree.search(5001) == "n"


# Trace counts of ``_op_mix(tree, seed=5)`` on an empty tree, pinned from
# descents that recorded unconditionally: gating the bookkeeping on a
# live tracer must not change what a traced run records.
NODES_VISITED, READS, WRITES = 976, 2_465, 550


def _op_mix(tree: AdaptiveRadixTree, seed: int) -> list:
    """A seeded mix of search/insert/remove/scan over 200 keys that vary
    in three key bytes, so nodes carry prefixes, grow to Node48 and
    shrink; returns every result."""
    rng = random.Random(seed)
    pool = [
        rng.randrange(3) << 40 | rng.randrange(40) << 24 | rng.randrange(6) << 8
        for _ in range(200)
    ]
    out = []
    for _ in range(600):
        key = rng.choice(pool)
        op = rng.random()
        if op < 0.4:
            out.append(tree.insert(key, key))
        elif op < 0.7:
            out.append(tree.search(key))
        elif op < 0.9:
            out.append(tree.remove(key))
        else:
            out.append(tree.scan(key, 8))
    return out


class TestTracing:
    def test_search_records_reads_and_visits(self, tree):
        for k in range(200):
            tree.insert(k * 97, k)
        with tracer() as t:
            tree.search(97 * 50)
        assert t.nodes_visited >= 1
        assert len(t.reads) >= 1

    def test_narrow_range_query_reads_only_its_path(self):
        """``items(lo, hi)`` prunes both ends, so an 11-key range of a
        20K-key tree reads a few dozen lines, not one per node."""
        from repro.baselines.art_index import ArtIndex
        from repro.datasets.generators import dataset

        keys = dataset("osm", 20_000, seed=0)
        idx = ArtIndex.bulk_load(keys, memory=MemoryMap())
        nodes = sum(1 for _ in _all_nodes(idx.tree.root))
        with tracer() as t:
            got = idx.range_query(int(keys[5000]), int(keys[5010]))
        assert [k for k, _ in got] == keys[5000:5011].tolist()
        assert len(t.reads) * 100 < nodes

    def test_insert_records_writes(self, tree):
        tree.insert(1, 1)
        with tracer() as t:
            tree.insert(2**40, 2)
        assert len(t.writes) >= 1

    def test_untraced_descents_skip_the_bookkeeping(self):
        """With no tracer live the four descents record nothing, not even
        into the null sink; under a tracer the same ops on a twin tree
        give the same results and the counts pinned from the fully
        traced descents."""
        untraced = AdaptiveRadixTree(MemoryMap(), "u")
        before = NULL_TRACE.nodes_visited
        got = _op_mix(untraced, seed=5)
        assert NULL_TRACE.nodes_visited == before

        traced = AdaptiveRadixTree(MemoryMap(), "t")
        with tracer() as t:
            assert _op_mix(traced, seed=5) == got
        assert traced.items() == untraced.items()
        assert (t.nodes_visited, len(t.reads), len(t.writes)) == (
            NODES_VISITED,
            READS,
            WRITES,
        )

    def test_untraced_writers_make_no_null_sink_calls(self, monkeypatch):
        """The writer helpers (leaf attach, leaf split, prefix extraction,
        growth, removal, merge and shrink, parent locking) and ``items``
        take the descent's tracer and skip the bookkeeping without one:
        no module-level ``active_tracer`` lookup, no null-sink call."""
        import repro.art.tree as tree_module
        from repro.sim.trace import _NullTrace

        def boom(*args, **kwargs):
            raise AssertionError("tracing call on an untraced path")

        monkeypatch.setattr(tree_module, "active_tracer", boom, raising=False)
        for name in ("read_line", "write_line"):
            monkeypatch.setattr(_NullTrace, name, boom)
        tree = AdaptiveRadixTree(MemoryMap(), "u")
        got = _op_mix(tree, seed=5)
        assert len(tree.items()) == len(tree)
        monkeypatch.undo()
        twin = AdaptiveRadixTree(MemoryMap(), "t")
        assert _op_mix(twin, seed=5) == got


def reachable_bytes(root) -> int:
    """Modeled bytes of the nodes reachable from ``root``."""
    return sum(node.SIZE_BYTES for node in _all_nodes(root))


class TestMemoryAccounting:
    def test_bytes_grow_and_shrink(self):
        mem = MemoryMap()
        tree = AdaptiveRadixTree(mem, "m")
        for k in range(500):
            tree.insert(k * 3, k)
        grown = mem.live_bytes("m")
        assert grown > 500 * 16  # at least the leaves
        for k in range(500):
            tree.remove(k * 3)
        assert mem.live_bytes("m") < grown

    @pytest.mark.parametrize("seed", range(3))
    def test_live_bytes_are_exactly_the_reachable_nodes(self, seed, monkeypatch):
        """Nodes carry no allocation object, so nothing stops one being
        released twice, which would quietly lower the modeled bytes.  A
        seeded mix of leaf splits, prefix extractions, growth through
        all four node types, shrinks, merges and upserts must leave the
        live bytes equal to the reachable nodes' sizes at every step."""
        mem = MemoryMap()
        tree = AdaptiveRadixTree(mem, "x")
        events: set = set()

        def classify(old, new):
            if old.parent is new:
                events.add("extract")
            elif isinstance(old, Node4) and old.count == 1:
                events.add("merge")
            else:
                events.add((type(old).__name__, type(new).__name__))

        tree.add_replace_listener(classify)
        split = tree._insert_at_leaf

        def counting_split(*args):
            new = split(*args)
            events.add("split" if new else "upsert")
            return new

        monkeypatch.setattr(tree, "_insert_at_leaf", counting_split)
        rnd = random.Random(seed)
        bases = [rnd.getrandbits(40) << 24 for _ in range(4)]
        oracle = {}
        for step in range(4000):
            base = rnd.choice(bases)
            r = rnd.random()
            if step < 2000 and r < 0.5 or step >= 2000 and r < 0.15:
                k = base | rnd.randrange(256) << 8 | rnd.randrange(4)  # one byte fans out
            elif r < 0.6:
                k = base | rnd.getrandbits(24)  # diverges inside a prefix
            elif r < 0.7 and oracle:
                k = rnd.choice(sorted(oracle))  # an upsert
            else:
                k = None
            if k is not None:
                tree.insert(k, step, upsert=True)
                oracle[k] = step
            elif oracle:
                k = rnd.choice(sorted(oracle))
                assert tree.remove(k)
                del oracle[k]
            if step % 25 == 0:
                assert mem.live_bytes("x") == reachable_bytes(tree.root)
        assert mem.live_bytes("x") == reachable_bytes(tree.root)
        assert tree.items() == sorted(oracle.items())
        for k in sorted(oracle):
            assert tree.remove(k)
        assert len(tree) == 0 and tree.root is None  # the root collapsed too
        assert mem.live_bytes("x") == 0
        assert events >= {
            "split", "upsert", "extract", "merge",
            ("Node4", "Node16"), ("Node16", "Node48"), ("Node48", "Node256"),
            ("Node256", "Node48"), ("Node48", "Node16"), ("Node16", "Node4"),
        }


@pytest.mark.slow
class TestConcurrentART:
    def test_parallel_disjoint_inserts(self, tree):
        ranges = [(i * 100_000, 2000) for i in range(6)]

        def worker(start, count):
            for k in range(start, start + count):
                tree.insert(k * 7, k)

        threads = [threading.Thread(target=worker, args=r) for r in ranges]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tree) == 12_000
        for start, count in ranges:
            for k in range(start, start + count, 97):
                assert tree.search(k * 7) == k

    def test_readers_during_writes(self, tree):
        for k in range(0, 20_000, 2):
            tree.insert(k, k)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                k = random.randrange(0, 20_000, 2)
                v = tree.search(k)
                if v != k:
                    errors.append((k, v))

        def writer():
            for k in range(1, 20_000, 2):
                tree.insert(k, k)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        w = threading.Thread(target=writer)
        for t in readers:
            t.start()
        w.start()
        w.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert len(tree) == 20_000


def publish(tree, keys=()):
    """Build the empty ``tree`` from sorted ``keys`` (each its own value)
    and publish them as its main run, as ``ALTIndex.bulk_load`` does."""
    keys = np.array(keys, dtype=np.uint64)
    values = np.array(keys.tolist(), dtype=object)
    tree.build_sorted(keys, values)
    tree.publish_main(keys, values)


def run_pairs(tree):
    """The sorted (key, value) pairs the tree's published runs stand for:
    main with the overlay's values and removals applied."""
    mkeys, mvals, okeys, ovals = tree._fresh_runs()
    assert mkeys.dtype == np.uint64 and okeys.dtype == np.uint64
    assert np.all(mkeys[1:] > mkeys[:-1]) and np.all(okeys[1:] > okeys[:-1])
    merged = dict(zip(mkeys.tolist(), mvals.tolist()))
    for k, v in zip(okeys.tolist(), ovals.tolist()):
        if v is _REMOVED:
            merged.pop(k, None)
        else:
            merged[k] = v
    return sorted(merged.items())


def assert_runs_match(tree, probe=()):
    """The runs stand for exactly ``items()``, and ``lookup_sorted``
    answers as ``search`` does on every key of ``probe``."""
    assert run_pairs(tree) == tree.items()
    probe = list(probe)
    assert tree.lookup_sorted(probe) == [tree.search(k) for k in probe]


class TestSortedView:
    """``lookup_sorted`` searches two sorted runs: a frozen main run,
    published after ``build_sorted``, and a small overlay patched from
    the change delta the public mutators record.  Main plus overlay
    must always stand for a fresh walk (``items``)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_differential_against_items(self, tree, seed):
        publish(tree)  # an empty main: the first records fold it
        rnd = random.Random(seed)
        # A small universe so re-inserts and removes of present keys are
        # common; the extremes exercise the uint64 boundaries.
        universe = [rnd.getrandbits(64) for _ in range(150)] + list(range(40))
        universe += [2**64 - 1]
        handed_out = []
        for step in range(700):
            op = rnd.random()
            key = rnd.choice(universe)
            if op < 0.30:
                tree.insert(key, ("v", step))
            elif op < 0.45:
                tree.insert(key, ("u", step), upsert=True)
            elif op < 0.65:
                tree.remove(key)
            elif op < 0.75:
                ks = sorted(set(rnd.sample(universe, rnd.randrange(1, 12))))
                tree.bulk_insert(ks, [("b", step, k) for k in ks], upsert=rnd.random() < 0.5)
            elif op < 0.85:
                ks = sorted(set(rnd.sample(universe, rnd.randrange(1, 12))))
                tree.bulk_remove(ks)
            else:
                assert_runs_match(tree, universe)
                runs = tree._view[0]
                assert len(runs[2]) * _OVERLAY_FRACTION <= len(runs[0])
                handed_out.append((runs, [r.tolist() for r in runs]))
        assert_runs_match(tree, universe)
        # Runs once handed out are never mutated by later merges.
        for runs, lists in handed_out:
            assert [r.tolist() for r in runs] == lists
            assert not any(r.flags.writeable for r in runs)

    def test_unchanged_tree_returns_the_same_view(self, tree):
        publish(tree, range(0, 300, 3))
        runs = tree._fresh_runs()
        assert tree._fresh_runs() is runs
        tree.insert(5, "x", upsert=False)  # new key
        tree.insert(3, "y", upsert=False)  # present, not upserted: no change
        patched = tree._fresh_runs()
        assert patched is not runs and patched[0] is runs[0]  # main kept
        assert patched[2].tolist() == [5]
        assert tree._fresh_runs() is patched
        assert_runs_match(tree, range(300))

    def test_small_writes_patch_the_overlay_not_main(self, tree):
        """Main is rebuilt only when the overlay outgrows its bound; after
        any lookup the overlay is within it."""
        keys = list(range(0, 3200, 10))
        publish(tree, keys)
        main = tree._view[0][0]
        bound = len(main) // _OVERLAY_FRACTION
        for i in range(bound):
            tree.insert(i * 10 + 1, i)  # one new key per lookup
            assert tree.lookup_sorted([i * 10 + 1, 0]) == [i, 0]
            assert tree._view[0][0] is main and len(tree._view[0][2]) == i + 1
        tree.remove(0)
        assert tree.lookup_sorted([0, 10]) == [None, 10]
        runs = tree._view[0]
        assert runs[0] is not main and len(runs[2]) == 0  # folded
        assert len(runs[0]) == len(tree) == len(keys) + bound - 1
        assert_runs_match(tree, range(3200))

    def test_published_main_needs_no_walk(self, tree, monkeypatch):
        keys = [3, 9, 2**40, 2**64 - 1]
        values = ["a", "b", "c", "d"]
        tree.build_sorted(keys, values)
        assert tree._view is None  # not seeded by itself
        tree.publish_main(np.array(keys, dtype=np.uint64), np.array(values, dtype=object))
        monkeypatch.setattr(tree, "search", None)  # a per-key search would fail
        assert tree.lookup_sorted([9, 4, 2**64 - 1]) == ["b", None, "d"]
        tree.remove(9)
        tree.insert(4, "e")
        assert tree.lookup_sorted([9, 4, 3]) == [None, "e", "a"]
        monkeypatch.undo()
        assert_runs_match(tree, keys + [4])

    def test_no_delta_is_recorded_without_a_view(self, tree):
        for k in range(200):
            tree.insert(k, k)
        tree.remove(7)
        tree.bulk_insert([1000, 1001], ["a", "b"])
        assert tree._view is None
        assert tree.lookup_sorted([7, 8, 1001]) == [None, 8, "b"]  # searched
        assert tree._view is None and tree.search_runs(8) is NO_RUNS

    def test_art_baseline_keeps_no_runs(self):
        """The ART baseline never batch-reads the runs, so its bulk load
        seeds none and its writes record no delta."""
        from repro.baselines import ArtIndex

        keys = np.arange(1, 2_000, 3, dtype=np.uint64)
        idx = ArtIndex.bulk_load(keys, memory=MemoryMap())
        assert idx.tree._view is None
        assert idx.insert(2, "x") and idx.remove(1)
        assert idx.batch_get([1, 2, 4]) == [None, "x", 4]
        assert idx.tree._view is None

    def test_delta_larger_than_main_is_folded_not_dropped(self, tree):
        """With no batch reader, the record that grows the delta past
        main's key count folds it into a new main; the runs stay."""
        keys = list(range(0, 500, 10))
        publish(tree, keys)
        main = tree._view[0][0]
        for k in keys:  # 50 changes: the delta equals main's size
            tree.insert(k + 1, k)
        assert tree._view[0][0] is main and len(tree._view[1]) == 50
        tree.remove(0)  # the 51st change outgrows the 50-key main
        assert tree._view is not None
        runs, delta = tree._view
        assert delta == {} and runs[0] is not main and not len(runs[2])
        assert len(runs[0]) == len(tree) == 99
        probe = keys + [k + 1 for k in keys] + [5, 2**64 - 1]
        assert [tree.search_runs(k) for k in probe] == [tree.search(k) for k in probe]
        assert_runs_match(tree, probe)

    @staticmethod
    def _race(reader, writer) -> list:
        """Run ``writer`` against two ``reader(bad)`` threads on a finely
        interleaved schedule; the readers loop until the writer is done
        and append what they found wrong to ``bad``."""
        import sys

        started, done = threading.Event(), threading.Event()
        bad: list = []

        def write():
            started.set()
            writer()
            done.set()

        def read():
            started.wait(10)
            while not done.is_set():
                reader(bad)

        threads = [threading.Thread(target=f) for f in (read, read, write)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return bad

    @staticmethod
    def _churn(tree, hi: int) -> None:
        """Insert every odd key below ``hi`` and remove the even key
        before each odd multiple of 3."""
        for k in range(1, hi, 2):
            tree.insert(k, -k)
            if k % 3 == 0:
                tree.remove(k - 1)

    def test_writer_thread_changes_are_not_lost(self, tree):
        """A writer thread runs while two reader threads merge the delta
        into the runs; keys the writer never touches always resolve, and
        after it joins the runs are exact."""
        publish(tree, range(0, 20_000, 2))
        # Even keys k with (k + 1) % 3 != 0 are never removed.
        stable = [k for k in range(0, 20_000, 2) if (k + 1) % 3][::7]

        def reader(bad):
            if tree.lookup_sorted(stable) != stable:
                bad.append("stable key lost")
            mkeys, _, okeys, _ = tree._fresh_runs()
            if not (np.all(mkeys[1:] > mkeys[:-1]) and np.all(okeys[1:] > okeys[:-1])):
                bad.append("unsorted run")

        assert not self._race(reader, lambda: self._churn(tree, 20_000))
        assert_runs_match(tree, range(20_000))

    def test_writer_thread_folds_are_not_lost(self, tree):
        """As above, but the readers only read the runs, so the writer's
        own records fold the delta into main, several times."""
        publish(tree, range(0, 1_000, 2))
        main = tree._view[0][0]
        stable = [k for k in range(0, 1_000, 2) if (k + 1) % 3]

        def reader(bad):
            for k in stable:
                v = tree.search_runs(k)
                if (tree.search(k) if v is NO_RUNS else v) != k:
                    bad.append(("stable key lost", k, v))
            mkeys = tree._view[0][0]
            if not np.all(mkeys[1:] > mkeys[:-1]):
                bad.append("unsorted main")

        assert not self._race(reader, lambda: self._churn(tree, 16_000))
        assert len(tree._view[0][0]) > 8 * len(main)  # folded by the writer
        assert [tree.search_runs(k) for k in range(16_000)] == [
            tree.search(k) for k in range(16_000)
        ]
        assert_runs_match(tree, range(16_000))


class TestConcurrentInsertRaces:
    """Deterministic replays of races between two concurrent inserts:
    writer B is paused mid-insert while writer A restructures the tree."""

    def test_insert_restarts_when_its_leaf_moved_after_the_descent(self, tree):
        """Writer B descends to the root leaf and pauses before locking;
        writer A then splits that leaf under a new root Node4.  B must
        restart rather than split the leaf at its stale depth, which
        would make the existing key unreachable."""
        tree.insert(0, "zero")
        paused, resume = threading.Event(), threading.Event()
        lock_parent_of = tree._lock_parent_of

        def pausing_lock_parent_of(node, trace):
            if threading.current_thread().name == "b" and not resume.is_set():
                paused.set()
                resume.wait(10)
            return lock_parent_of(node, trace)

        tree._lock_parent_of = pausing_lock_parent_of
        b = threading.Thread(name="b", target=lambda: tree.insert(1, "one"))
        b.start()
        assert paused.wait(10)
        assert tree.insert(0x100000, "a")  # splits the root leaf
        resume.set()
        b.join(10)
        assert not b.is_alive()
        assert tree.search(0) == "zero"
        assert tree.search(1) == "one"
        assert tree.search(0x100000) == "a"
        assert [k for k, _ in tree.items()] == [0, 1, 0x100000]

    def test_descent_restarts_when_the_root_moved_down(self, tree, monkeypatch):
        """B reads the root and pauses before its first node; A's insert
        extracts the root's prefix, pushing the old root one level down.
        B must restart instead of matching that node at depth 0."""
        import repro.chaos

        tree.insert(0, "zero")
        tree.insert(7, "seven")  # root Node4 with a 7-byte prefix
        paused, resume = threading.Event(), threading.Event()
        point = repro.chaos.point

        def pausing_point(name):
            if name == "art.descend" and threading.current_thread().name == "b":
                if not resume.is_set():
                    paused.set()
                    resume.wait(10)
            point(name)

        monkeypatch.setattr(repro.chaos, "point", pausing_point)
        b = threading.Thread(name="b", target=lambda: tree.insert(1, "one"))
        b.start()
        assert paused.wait(10)
        assert tree.insert(0x0AAE60, "a")  # diverges inside the root prefix
        resume.set()
        b.join(10)
        assert not b.is_alive()
        assert [k for k, _ in tree.items()] == [0, 1, 7, 0x0AAE60]
        for k, v in ((0, "zero"), (1, "one"), (7, "seven"), (0x0AAE60, "a")):
            assert tree.search(k) == v


class TestPathCompressionMerge:
    """Removing one of a Node4's two children merges the Node4 into the
    remaining child, whose prefix and match level change under its own
    write lock."""

    GONE = 1 << 56 | 1 << 48  # bytes 01 01 00 .. 00
    KEPT = 1 << 56 | 2 << 48 | 1  # bytes 01 02 00 .. 01
    KEYS = [GONE, KEPT, KEPT + 1, 2 << 56]

    def _tree(self):
        tree = AdaptiveRadixTree(MemoryMap(), "t")
        tree.build_sorted(self.KEYS, self.KEYS)
        return tree

    def test_merge_moves_the_prefix_into_the_child(self):
        tree = self._tree()
        child = tree.root.find_child(1).find_child(2)
        assert (child.prefix, child.match_level) == (bytes(5), 2)
        assert tree.remove(self.GONE)
        assert tree.root.find_child(1) is child
        assert (child.prefix, child.match_level) == (b"\x02" + bytes(5), 1)
        child.lock.read_lock_or_restart()  # unlocked and live: no restart
        assert tree.search(self.KEPT) == self.KEPT

    def test_busy_child_skips_the_merge(self):
        tree = self._tree()
        node = tree.root.find_child(1)
        child = node.find_child(2)
        child.lock.write_lock_or_restart()  # another writer holds the child
        assert tree.remove(self.GONE)
        child.lock.write_unlock()
        assert tree.root.find_child(1) is node and node.count == 1
        assert (child.prefix, child.match_level) == (bytes(5), 2)
        assert [k for k, _ in tree.items()] == self.KEYS[1:]
        assert tree.search(self.KEPT) == self.KEPT

    def test_root_merges_into_its_only_child(self):
        mem = MemoryMap()
        tree = AdaptiveRadixTree(mem, "t")
        tree.build_sorted(self.KEYS, self.KEYS)
        sub = tree.root.find_child(1)
        assert tree.lookup_path_length(self.KEPT) == 3
        assert tree.remove(2 << 56)
        assert tree.root is sub and sub.parent is None
        assert (sub.prefix, sub.match_level) == (b"\x01", 0)
        assert tree.lookup_path_length(self.KEPT) == 2
        assert [k for k, _ in tree.items()] == self.KEYS[:3]
        assert mem.live_bytes("t") == reachable_bytes(tree.root)

    def test_root_left_empty_by_a_skipped_merge_is_freed(self, monkeypatch):
        from repro.concurrency.version_lock import RestartException

        def busy_parent(node, trace):
            raise RestartException

        mem = MemoryMap()
        tree = AdaptiveRadixTree(mem, "t")
        tree.build_sorted([1, 2], [1, 2])
        root = tree.root
        with monkeypatch.context() as m:
            m.setattr(tree, "_lock_parent_of", busy_parent)
            assert tree.remove(1)
        assert tree.root is root and root.count == 1  # the merge was skipped
        assert tree.remove(2)
        assert tree.root is None and mem.live_bytes("t") == 0
        assert tree.insert(3, 3) and tree.search(3) == 3

    def test_inner_node_left_empty_by_a_skipped_merge_is_dropped(self, monkeypatch):
        from repro.concurrency.version_lock import RestartException

        def busy_parent(node, trace):
            raise RestartException

        mem = MemoryMap()
        tree = AdaptiveRadixTree(mem, "t")
        tree.build_sorted(self.KEYS, self.KEYS)
        node = tree.root.find_child(1)
        child = node.find_child(2)
        with monkeypatch.context() as m:
            m.setattr(tree, "_lock_parent_of", busy_parent)
            assert tree.remove(self.KEPT)
        assert node.find_child(2) is child and child.count == 1  # merge skipped
        assert tree.remove(self.KEPT + 1)
        assert node.find_child(2) is None and child.lock.is_obsolete
        assert mem.live_bytes("t") == reachable_bytes(tree.root)
        assert not [n for n in _all_nodes(tree.root) if not isinstance(n, Leaf) and n.count == 0]
        assert tree.items() == [(self.GONE, self.GONE), (2 << 56, 2 << 56)]

    def test_reader_in_the_child_never_misses_on_any_schedule(self):
        """DPOR over a reader inside the child racing the merge: clean on
        every schedule; the planted unlocked merge makes it miss a key."""
        from repro.chaos.dpor import explore_protocol

        clean = explore_protocol("art-merge", max_schedules=2000)
        assert clean.complete and not clean.violations
        assert explore_protocol("art-merge", planted=True).violations


def assert_same_subtree(a, b) -> None:
    """``a`` and ``b`` agree node for node: type, modeled size, edge,
    prefix, match level, child count and layout, and every leaf."""
    assert type(a) is type(b)
    assert (a.SIZE_BYTES, line_count(a.SIZE_BYTES), a.pbyte) == (
        b.SIZE_BYTES, line_count(b.SIZE_BYTES), b.pbyte
    )
    if isinstance(a, Leaf):
        assert (a.key, a.kbytes, a.value) == (b.key, b.kbytes, b.value)
        return
    assert (a.prefix, a.match_level, a.count) == (b.prefix, b.match_level, b.count)
    assert [c is None for c in a.children] == [c is None for c in b.children]
    ca, cb = list(a.iter_children()), list(b.iter_children())
    assert [byte for byte, _ in ca] == [byte for byte, _ in cb]
    for (_, x), (_, y) in zip(ca, cb):
        assert x.parent is a and y.parent is b
        assert_same_subtree(x, y)


@st.composite
def sorted_key_sets(draw):
    """Sorted unique uint64 keys in clusters sharing 0..7 leading bytes,
    plus some of the extremes 0, 1, 2**64-2 and 2**64-1."""
    keys = set(draw(st.lists(st.sampled_from([0, 1, 2**64 - 2, 2**64 - 1]), max_size=4)))
    for _ in range(draw(st.integers(0, 4))):
        low_bits = 8 * draw(st.integers(1, 8))
        base = draw(st.integers(0, 2**64 - 1)) >> low_bits << low_bits
        offsets = draw(st.lists(st.integers(0, 2**low_bits - 1), max_size=80))
        keys.update(base | o for o in offsets)
    return sorted(keys)


class TestBuildSorted:
    """``build_sorted`` must leave exactly the tree the per-key insert
    loop over the same sorted keys leaves, with the same modeled bytes:
    the loop frees each node it outgrows as it replaces it."""

    @staticmethod
    def _both(keys):
        values = [("v", k) for k in keys]
        built_mem, grown_mem = MemoryMap(), MemoryMap()
        built = AdaptiveRadixTree(built_mem, "t")
        built.build_sorted(keys, values)
        grown = AdaptiveRadixTree(grown_mem, "t")
        for k, v in zip(keys, values):
            assert grown.insert(k, v)
        return built, built_mem, grown, grown_mem

    def _check(self, keys):
        built, built_mem, grown, grown_mem = self._both(keys)
        assert len(built) == len(grown) == len(keys)
        if keys:
            assert built.root.parent is None and grown.root.parent is None
            assert_same_subtree(built.root, grown.root)
        else:
            assert built.root is None
        assert built_mem.live_bytes("t") == grown_mem.live_bytes("t")
        return built

    @settings(max_examples=150, deadline=None)
    @given(sorted_key_sets())
    def test_matches_the_insert_loop(self, keys):
        self._check(keys)

    @settings(max_examples=60, deadline=None)
    @given(sorted_key_sets())
    def test_line_ids(self, keys):
        """Every node owns the lines ``[line, line + nlines)``; the build
        makes one allocation per node, as many as the insert loop net of
        the nodes it outgrew; and a traced search reads the header and
        child-pointer lines a :class:`LineSpan` at each node's line gives."""
        built_mem, grown_mem = MemoryMap(), MemoryMap()
        built = AdaptiveRadixTree(built_mem, "t")
        built.build_sorted(keys, keys)
        nodes = list(_all_nodes(built.root))
        ranges = sorted((n.line, n.line + line_count(n.SIZE_BYTES)) for n in nodes)
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        grown = AdaptiveRadixTree(grown_mem, "t")
        outgrown = []
        grown.add_replace_listener(
            lambda old, new: old.parent is new or outgrown.append(old)
        )
        for k in keys:
            grown.insert(k, k)
        assert built_mem.total_allocations == len(nodes)
        assert grown_mem.total_allocations - len(outgrown) == len(nodes)
        for k in keys[:: max(1, len(keys) // 16)]:
            with tracer() as t:
                assert built.search(k) == k
            expect, node, depth, kb = [], built.root, 0, encode_key(k)
            while not isinstance(node, Leaf):
                span = LineSpan(node.line, node.SIZE_BYTES, "t", MemoryMap())
                depth += len(node.prefix)
                byte = kb[depth]
                expect += [span.line(0), span.line(16 + byte * 8 % (node.SIZE_BYTES - 16))]
                node, depth = node.find_child(byte), depth + 1
            assert t.reads == expect + [LineSpan(node.line, 16, "t", MemoryMap()).line(0)]

    @pytest.mark.parametrize(
        "keys",
        [[], [0], [2**64 - 1], [0, 2**64 - 1], [5, 6], [0x0102030405060700, 0x01020304050607FF]],
    )
    def test_small_and_extreme_key_sets(self, keys):
        self._check(keys)

    @pytest.mark.parametrize(
        "fanout,expect",
        [(4, Node4), (5, Node16), (16, Node16), (17, Node48),
         (48, Node48), (49, Node256), (256, Node256)],
    )
    def test_fanout_boundaries(self, fanout, expect):
        rnd = random.Random(fanout)
        fan = sorted(rnd.sample(range(256), fanout))
        shared7 = fan[-1] << 56 | 0xCDEF0123456700  # keys sharing 7 bytes
        keys = sorted({b << 56 for b in fan[:-1]} | {shared7 | b for b in fan})
        built = self._check(keys)
        assert type(built.root) is expect
        deep = built.root.find_child(fan[-1])
        assert type(deep) is expect
        assert deep.prefix == bytes.fromhex("cdef01234567")

    def test_rejects_a_non_empty_tree(self, tree):
        tree.insert(5, 5)
        with pytest.raises(ValueError):
            tree.build_sorted([1, 2], [1, 2])
        fresh = AdaptiveRadixTree(MemoryMap(), "t")
        fresh.build_sorted([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fresh.build_sorted([3], [3])
        assert [k for k, _ in fresh.items()] == [1, 2]

    @pytest.mark.parametrize("keys", [[1, 1], [1, 2, 2, 3], [2, 1], [1, 3, 2]])
    def test_rejects_keys_that_are_not_strictly_increasing(self, tree, keys):
        with pytest.raises(ValueError):
            tree.build_sorted(keys, keys)
        assert tree.root is None and len(tree) == 0

    def test_rejects_misaligned_values(self, tree):
        with pytest.raises(ValueError):
            tree.build_sorted([1, 2, 3], [1, 2])
        assert tree.root is None and len(tree) == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, enabled, monkeypatch):
        """The build pauses the cyclic collector and leaves it as the
        caller had it: enabled, or disabled (as the benchmark harness
        does), also when the build raises part way."""
        import gc

        from repro.art import tree as tree_module

        real = tree_module._build_run
        seen = []

        def spy(*args):
            seen.append(gc.isenabled())
            return real(*args)

        def fail(*args):
            raise MemoryError

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(tree_module, "_build_run", spy)
            AdaptiveRadixTree(MemoryMap(), "t").build_sorted([1, 2, 3], [1, 2, 3])
            assert seen == [False] and gc.isenabled() is enabled
            monkeypatch.setattr(tree_module, "_build_run", fail)
            mem = MemoryMap()
            tree = AdaptiveRadixTree(mem, "t")
            with pytest.raises(MemoryError):
                tree.build_sorted([1, 2, 3], [1, 2, 3])
            assert gc.isenabled() is enabled
            assert tree.root is None and len(tree) == 0 and mem.live_bytes("t") == 0
        finally:
            (gc.enable if was else gc.disable)()

    def test_lines_stay_disjoint_from_a_concurrent_allocator(self):
        """The build reserves all its lines in one call, so a thread
        allocating from the same map while the build runs gets lines
        no node of the tree covers."""
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 2**64 - 1, 60_000, dtype=np.uint64))
        mem = MemoryMap()
        building, stop = threading.Event(), threading.Event()
        lines, during = [], []

        def allocate():
            while not stop.is_set():
                lines.append(mem.reserve(64, "other"))
                if building.is_set():
                    during.append(lines[-1])

        other = threading.Thread(target=allocate)
        other.start()
        while not lines:
            time.sleep(0.001)
        tree = AdaptiveRadixTree(mem, "t")
        building.set()
        tree.build_sorted(keys, keys.tolist())
        building.clear()
        stop.set()
        other.join()
        assert during  # the other thread allocated while the tree was built
        ranges = sorted(
            [(n.line, n.line + line_count(n.SIZE_BYTES)) for n in _all_nodes(tree.root)]
            + [(line, line + 1) for line in lines]
        )
        assert all(end <= start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        assert mem.live_bytes("t") == reachable_bytes(tree.root)

    @pytest.mark.parametrize("seed", range(4))
    def test_writes_after_build_match_a_dict(self, seed):
        """Inserts and removes grow, shrink, merge and prefix-extract
        built nodes; searches from fast pointers taken right after the
        build stay correct throughout."""
        rnd = random.Random(seed)
        bases = [rnd.getrandbits(48) << 16 for _ in range(12)]
        keys = set()
        for base, size in zip(bases, [2, 3, 4, 5, 16, 17, 48, 49, 60, 2, 3, 4]):
            keys.update(base | b for b in rnd.sample(range(256), size))
        keys = sorted(keys)
        tree = AdaptiveRadixTree(MemoryMap(), "t")
        tree.build_sorted(keys, keys)
        oracle = dict(zip(keys, keys))
        built = {id(n): n for n in _inner_nodes(tree.root)}
        events = set()

        def classify(old, new):
            if id(old) not in built or built[id(old)] is not old:
                return
            if old.parent is new:
                events.add("extract")
            elif old.count == 1 and new is old.only_child[1]:
                events.add("merge")
            else:
                events.add("grow" if new.CAPACITY > old.CAPACITY else "shrink")

        tree.add_replace_listener(classify)
        pointers = []
        for base in bases:
            live = sorted(k for k in keys if k >> 16 == base >> 16)
            pointers.append((live[0], live[-1], tree.common_ancestor(live[0], live[-1])))
        pair = [k for k in keys if k >> 16 == bases[0] >> 16]
        assert tree.remove(pair[0])  # merges the built two-leaf Node4
        del oracle[pair[0]]
        for step in range(3000):
            base = rnd.choice(bases)
            r = rnd.random()
            if r < 0.3:
                k = base | rnd.randrange(256)  # same 7 bytes: grows nodes
            elif r < 0.4:
                k = base | rnd.getrandbits(16)  # diverges inside a prefix
            elif r < 0.45:
                k = rnd.getrandbits(64)
            else:
                k = None
            if k is not None:
                tree.insert(k, -k, upsert=True)
                oracle[k] = -k
            elif oracle:
                k = rnd.choice(sorted(oracle))
                assert tree.remove(k)
                del oracle[k]
            if step % 100 == 0:
                for lo, hi, node in pointers:
                    for k in [k for k in oracle if lo <= k <= hi] + [lo, hi]:
                        assert tree.search(k, from_node=node) == oracle.get(k)
        assert tree.items() == sorted(oracle.items())
        for k in rnd.sample(sorted(oracle), min(200, len(oracle))):
            assert tree.search(k) == oracle[k]
        assert events == {"grow", "shrink", "merge", "extract"}


def _inner_nodes(node):
    return (n for n in _all_nodes(node) if not isinstance(n, Leaf))


def _all_nodes(node):
    """Every node reachable from ``node``, in pre-order."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        if not isinstance(node, Leaf):
            stack.extend(reversed([c for _, c in node.iter_children()]))
