"""Scalar ART reads without a re-descent.

An untraced ``ALTIndex.get`` of an ART-resident key is answered from the
ART's sorted runs (``AdaptiveRadixTree.search_runs``), and every ART
range read walks the tree once (``AdaptiveRadixTree.iter_from``).  These
tests pin both against a dict oracle and against the traced paths,
which keep §III-C's fast-pointer descent.
"""

import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import repro.art.tree as tree_module
from repro import ALTIndex
from repro.art.tree import AdaptiveRadixTree
from repro.chaos.dpor import explore_protocol
from repro.concurrency.retry import BoundedRetry
from repro.concurrency.version_lock import RestartException
from repro.datasets.generators import dataset
from repro.sim.trace import MemoryMap, tracer

U64_MAX = 2**64 - 1


def osm_split(n: int = 8000):
    keys = dataset("osm", n, seed=0)
    return keys[::2], [int(k) for k in keys[1::2]]


class Twins:
    """The same ops on two identically loaded indexes, one run untraced
    (reads from the runs) and one under ``tracer()`` (tree descents),
    each checked against a dict oracle."""

    def __init__(self, load: np.ndarray):
        values = [int(k) for k in load]
        self.fast = ALTIndex.bulk_load(load, values, memory=MemoryMap())
        self.traced = ALTIndex.bulk_load(load, values, memory=MemoryMap())
        self.oracle = dict(zip(values, values))

    def do(self, op: str, *args):
        got = getattr(self.fast, op)(*args)
        with tracer():
            assert getattr(self.traced, op)(*args) == got, (op, args)
        d = self.oracle
        if op == "get":
            want = d.get(args[0])
        elif op == "batch_get":
            want = [d.get(int(k)) for k in args[0]]
        elif op == "insert":
            want = args[0] not in d
            d[args[0]] = args[1]
        elif op == "remove":
            want = d.pop(args[0], None) is not None
        else:  # scan
            lo, count = args
            want = sorted((k, v) for k, v in d.items() if k >= lo)[:count]
        assert got == want, (op, args)
        return got

    def check_all(self):
        for k in list(self.oracle)[::7]:
            self.do("get", k)


class TestGetFromTheRuns:
    def test_differential_against_a_dict_and_the_traced_descent(self):
        load, rest = osm_split()
        t = Twins(load)
        art = t.fast.art
        rng = random.Random(3)
        art_keys = [k for k, _ in art.items()]
        assert art_keys and art.search_runs(art_keys[0]) == art_keys[0]
        universe = [int(k) for k in load] + rest[:600]

        # A seeded mix; merging batch reads leave a non-empty overlay.
        for step in range(1500):
            key = rng.choice(art_keys if rng.random() < 0.5 else universe)
            u = rng.random()
            if u < 0.45:
                t.do("get", key)
            elif u < 0.65:
                t.do("insert", key, ("i", step))
            elif u < 0.8:
                t.do("remove", key)
            elif u < 0.95:
                t.do("scan", key, rng.choice((1, 12, 100)))
            else:
                t.do("batch_get", np.array(rng.sample(universe, 16), dtype=np.uint64))
        t.do("batch_get", np.array(art_keys, dtype=np.uint64))
        assert len(art._view[0][2]), "no overlay"
        t.check_all()

        # A fold: enough changes that the merged overlay outgrows its bound.
        main = art._view[0][0]
        for k in art_keys:
            if k in t.oracle:
                t.do("insert", k, ("fold", k))
        t.do("batch_get", np.array(art_keys[:4], dtype=np.uint64))
        assert art._view[0][0] is not main and not len(art._view[0][2]), "no fold"
        t.check_all()

        # Removals shadow main: in the delta, then in the overlay.
        gone = [k for k in art_keys if k in t.oracle][:5]
        assert set(gone) <= set(art._view[0][0].tolist())
        for k in gone:
            assert t.do("remove", k)
            assert t.do("get", k) is None
        t.do("batch_get", np.array(gone, dtype=np.uint64))
        assert set(gone) <= set(art._view[0][0].tolist())
        assert set(gone) <= set(art._view[0][2].tolist())
        assert all(art.search_runs(k) is None for k in gone)
        assert all(t.do("get", k) is None for k in gone)

        # Scans at the ends of the key space.
        t.do("scan", 0, 50)
        t.do("scan", max(t.oracle) + 1, 10)
        t.do("insert", U64_MAX, "top")
        t.do("scan", U64_MAX, 5)
        t.do("scan", U64_MAX - 1, 5)
        t.do("remove", U64_MAX)

        # The runs survive a delta overflow: the write that causes it
        # folds main, and gets keep reading the runs.
        main = art._view[0][0]
        for k, _ in art.items():
            t.do("remove", k)
        for k in rest:  # conflict inserts: new keys in the delta
            t.do("insert", k, ("r", k))
        assert art._view[0][0] is not main, "no fold"
        assert all(art.search_runs(k) == v for k, v in art.items())
        t.do("insert", art_keys[0], "back")
        assert t.do("get", art_keys[0]) == "back"
        t.check_all()

    @pytest.mark.parametrize("write", ["insert", "upsert"])
    def test_a_read_after_a_walk_sees_the_write_the_walk_saw(self, monkeypatch, write):
        """A write lands in the tree before it is recorded for the runs.
        While it is in flight ``get`` and ``batch_get`` search the tree,
        so a read that starts after a scan saw the write sees it too."""
        load, _ = osm_split()
        idx = ALTIndex.bulk_load(load, memory=MemoryMap())
        key = next(k for k, _ in idx.art.items())
        if write == "insert":
            assert idx.remove(key)
        paused, resume = threading.Event(), threading.Event()
        record = AdaptiveRadixTree._record

        def pausing_record(self, changes):
            changes = list(changes)
            if threading.current_thread().name == "writer":
                paused.set()
                resume.wait(10)
            record(self, changes)

        monkeypatch.setattr(AdaptiveRadixTree, "_record", pausing_record)
        writer = threading.Thread(name="writer", target=lambda: idx.insert(key, "new"))
        writer.start()
        try:
            assert paused.wait(10)
            assert idx.scan(key, 1) == [(key, "new")]
            assert idx.get(key) == "new"
            assert idx.batch_get(np.array([key], dtype=np.uint64)) == ["new"]
        finally:
            resume.set()
            writer.join(10)
        assert not writer.is_alive()
        assert idx.art.search_runs(key) == "new"

    @pytest.mark.parametrize("write", ["insert", "upsert"])
    def test_a_write_is_in_flight_until_its_change_is_in_the_delta(self, write):
        """A writer paused inside ``_record``, before its change reaches
        the live delta, still counts as in flight: a ``get`` or
        ``batch_get`` after a scan that saw the write searches the tree
        and sees it too."""
        load, _ = osm_split()
        idx = ALTIndex.bulk_load(load, memory=MemoryMap())
        art = idx.art
        key = next(k for k, _ in art.items())
        if write == "insert":
            assert idx.remove(key)
        idx.batch_get(np.array([key], dtype=np.uint64))  # merge: empty live delta
        paused, resume = threading.Event(), threading.Event()

        class PausingDelta(dict):
            def __setitem__(self, k, v):
                if threading.current_thread().name == "writer":
                    paused.set()
                    resume.wait(10)
                super().__setitem__(k, v)

        runs, delta = art._view
        assert not delta
        art._view = (runs, PausingDelta())
        writer = threading.Thread(name="writer", target=lambda: idx.insert(key, "new"))
        writer.start()
        try:
            assert paused.wait(10)
            assert idx.scan(key, 1) == [(key, "new")]
            assert idx.get(key) == "new"
            assert idx.batch_get(np.array([key], dtype=np.uint64)) == ["new"]
        finally:
            resume.set()
            writer.join(10)
        assert not writer.is_alive()
        assert art.search_runs(key) == "new"

    def test_scan_across_a_model_under_expansion(self):
        load, rest = osm_split()
        t = Twins(load)
        layer = t.fast.layer
        per_model = Counter(layer.route(k)[0] for k, _ in t.fast.art.items())
        i = per_model.most_common(1)[0][0]
        model = layer.models[i]
        lo, hi = model.first_key, layer.next_first_key(i)
        fresh = iter(range(lo + 1, hi))
        while layer.models[i].expansion is None:
            key = next(k for k in fresh if k not in t.oracle)
            t.do("insert", key, ("x", key))
        assert not layer.models[i].expansion.is_complete()
        for start in (0, lo - 1, lo, (lo + hi) // 2):
            t.do("scan", start, 100)
        t.check_all()


class TestOneWalk:
    @pytest.fixture
    def tree(self):
        tree = AdaptiveRadixTree(MemoryMap(), "walk")
        rng = random.Random(7)
        for k in sorted({rng.getrandbits(40) for _ in range(3000)}):
            tree.insert(k, k)
        return tree

    def test_walk_matches_items_from_any_start(self, tree):
        keys = [k for k, _ in tree.items()]
        for lo in (0, keys[0], keys[0] + 1, keys[1500], keys[-1], keys[-1] + 1, U64_MAX):
            want = [(k, k) for k in keys if k >= lo]
            assert list(tree.iter_from(lo)) == want
            assert tree.scan(lo, 37) == want[:37]
        assert tree.scan(0, 0) == [] and tree.scan(0, -1) == []

    def test_forced_restart_mid_walk_resumes_without_duplicates(self, tree, monkeypatch):
        listing = tree_module._list_children
        calls = [0]

        def flaky(node, version, start):
            calls[0] += 1
            if calls[0] in (40, 41, 90):  # two restarts in a row, then one more
                raise RestartException
            return listing(node, version, start)

        monkeypatch.setattr(tree_module, "_list_children", flaky)
        with tracer() as t:
            got = list(tree.iter_from(0))
        assert t.retries == 3
        assert got == tree.items()

    def test_a_walk_past_the_fallback_threshold_serializes_until_its_next_pair(
        self, tree, monkeypatch
    ):
        listing = tree_module._list_children
        calls = [0]
        held_at_next_pair = []

        def flaky(node, version, start):
            calls[0] += 1
            if 30 <= calls[0] < 30 + tree._retry.fallback_after + 2:
                raise RestartException
            return listing(node, version, start)

        monkeypatch.setattr(tree_module, "_list_children", flaky)
        got = []
        with tracer() as t:
            for pair in tree.iter_from(0):
                held_at_next_pair.append(tree._fallback_lock.locked())
                got.append(pair)
        assert t.fallbacks == 1 and not any(held_at_next_pair)
        assert got == tree.items()

    def test_writes_under_the_walk_restart_it_past_the_last_pair(self, tree):
        """Writes between two pairs restart the walk past the last pair:
        no pair repeats, and every key present throughout is yielded."""
        keys = [k for k, _ in tree.items()]
        walk = tree.iter_from(keys[100])
        head = [next(walk) for _ in range(50)]
        last = head[-1][0]
        new = [last - 1, last + 1, keys[700] + 1]
        for k in new:
            tree.insert(k, "new")
        tree.remove(keys[150])
        tree.remove(keys[900])
        with tracer() as t:
            tail = list(walk)
        assert t.retries >= 1
        got = [k for k, _ in head + tail]
        assert got == sorted(set(got))
        assert set(got) <= set(keys) | set(new)
        kept = set(keys[100:]) - {keys[150], keys[900]}
        assert kept <= set(got)

    def test_a_consumer_removing_every_pair_outlasts_the_retry_budget(self, tree):
        """Each removal under the walk restarts it once before the next
        pair; the retry state starts fresh after every pair, so a walk
        that removes far more keys than the budget still completes."""
        tree._retry = BoundedRetry(max_retries=2)
        n = len(tree)
        with tracer() as t:
            for key, _ in tree.iter_from(0):
                assert tree.remove(key)
        assert len(tree) == 0 and t.retries > n // tree_module._WALK_BATCH

    def test_move_home_of_more_keys_than_the_retry_budget(self):
        load, rest = osm_split()
        idx = ALTIndex.bulk_load(load, memory=MemoryMap())
        idx.art._retry = BoundedRetry(max_retries=2)
        layer = idx.layer
        per_model = Counter(layer.route(k)[0] for k, _ in idx.art.items())
        i = max(per_model, key=lambda i: (layer.models[i].build_size > 8, per_model[i]))
        lo, hi = layer.models[i].first_key, layer.next_first_key(i)
        oracle = {int(k): int(k) for k in load}
        spread = range(lo + 1, hi, max((hi - lo) // 5000, 1))
        fresh = (k for k in spread if k not in oracle)
        moved = []
        move_home = idx._move_home

        def counting_move_home(i, model):
            before = len(idx.art)
            move_home(i, model)
            moved.append(before - len(idx.art))

        idx._move_home = counting_move_home
        while not moved:  # insert until the expansion swaps
            key = next(fresh)
            idx.insert(key, key)
            oracle[key] = key
        assert moved[0] > 2  # more keys than the retry budget moved home
        assert all(idx.get(k) == v for k, v in oracle.items())


ROUNDS = 100


@pytest.mark.slow
class TestViewRace:
    def test_getters_never_read_an_older_upsert_during_a_merge(self):
        """Getters of ART-resident keys run while a writer thread upserts
        increasing versions and merges them with ``batch_get``.  One
        getter must never see a key's version go back: a read racing a
        merge must still see every change recorded before it."""
        load, _ = osm_split()
        idx = ALTIndex.bulk_load(load, [0] * len(load), memory=MemoryMap())
        keys = [k for k, _ in idx.art.items()]  # a merge of all of them is slow
        probe = np.array(keys, dtype=np.uint64)
        stop = threading.Event()
        bad: list = []

        def writer():
            try:
                for version in range(1, ROUNDS + 1):
                    for k in keys:
                        idx.insert(k, version)
                    idx.batch_get(probe)
            finally:
                stop.set()

        def getter():
            seen = dict.fromkeys(keys, 0)
            while not stop.is_set():
                for k in keys:
                    v = idx.get(k)
                    if v is None or v < seen[k]:
                        bad.append((k, seen[k], v))
                        return
                    seen[k] = v

        threads = [threading.Thread(target=f) for f in (writer, getter, getter)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(120)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not bad, bad[:3]
        assert idx.batch_get(probe) == [ROUNDS] * len(keys)


class TestViewSchedules:
    def test_no_schedule_breaks_the_view_and_the_mutant_is_found(self):
        clean = explore_protocol("view", max_schedules=300)
        assert not clean.violations
        assert explore_protocol("view", planted=True).violations
