"""Protocol conformance tests run against EVERY index implementation.

Each index — ALT-index and all competitors — must behave identically as
an ordered key-value map.  The harness depends on it.
"""

import sys
import threading

import numpy as np
import pytest

from repro.bench.runner import INDEX_FACTORIES
from repro.sim.trace import MemoryMap

ALL_INDEXES = list(INDEX_FACTORIES.values())
IDS = list(INDEX_FACTORIES)


@pytest.fixture(params=ALL_INDEXES, ids=IDS)
def built(request, sorted_keys):
    cls = request.param
    half = sorted_keys[::2].copy()
    rest = sorted_keys[1::2]
    idx = cls.bulk_load(half, memory=MemoryMap())
    return idx, half, rest


class TestProtocol:
    def test_get_after_bulk(self, built):
        idx, half, _ = built
        for k in half[::7]:
            assert idx.get(int(k)) == int(k)

    def test_get_missing(self, built):
        idx, half, rest = built
        present = set(half.tolist())
        misses = [int(k) for k in rest[:300] if int(k) not in present]
        for k in misses:
            assert idx.get(k) is None

    def test_insert_new_returns_true(self, built):
        idx, _, rest = built
        for k in rest[:500]:
            assert idx.insert(int(k), int(k) * 3)
        for k in rest[:500]:
            assert idx.get(int(k)) == int(k) * 3

    def test_insert_existing_returns_false_and_updates(self, built):
        idx, half, _ = built
        k = int(half[33])
        assert not idx.insert(k, "updated")
        assert idx.get(k) == "updated"

    def test_update_protocol(self, built):
        idx, half, rest = built
        k = int(half[44])
        assert idx.update(k, "u2")
        assert idx.get(k) == "u2"
        absent = int(rest[7])
        if idx.get(absent) is None:
            assert not idx.update(absent, "x")
            assert idx.get(absent) is None

    def test_remove_protocol(self, built):
        idx, half, _ = built
        k = int(half[55])
        assert idx.remove(k)
        assert idx.get(k) is None
        assert not idx.remove(k)

    def test_len_tracks_mutations(self, built):
        idx, half, rest = built
        n0 = len(idx)
        assert n0 == len(half)
        idx.insert(int(rest[0]), 1)
        assert len(idx) == n0 + 1
        idx.remove(int(half[0]))
        assert len(idx) == n0

    def test_scan_sorted_from_key(self, built):
        idx, half, rest = built
        for k in rest[:800]:
            idx.insert(int(k), int(k))
        live = sorted(set(half.tolist()) | {int(k) for k in rest[:800]})
        import bisect

        lo = live[123]
        got = [k for k, _ in idx.scan(lo, 60)]
        i = bisect.bisect_left(live, lo)
        assert got == live[i : i + 60]

    def test_scan_count_zero(self, built):
        idx, half, _ = built
        assert idx.scan(int(half[0]), 0) == []

    def test_range_query_inclusive(self, built):
        idx, half, _ = built
        lo, hi = int(half[20]), int(half[40])
        got = [k for k, _ in idx.range_query(lo, hi)]
        assert got == [int(k) for k in half if lo <= int(k) <= hi]

    @pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
    def test_range_query_reaches_the_largest_key(self, cls):
        top = 2**64 - 1
        keys = np.array([1, 5, 9, top - 1, top], dtype=np.uint64)
        idx = cls.bulk_load(keys, memory=MemoryMap())
        assert [k for k, _ in idx.range_query(0, top)] == keys.tolist()
        assert [k for k, _ in idx.range_query(top - 1, top)] == [top - 1, top]

    def test_memory_accounted(self, built):
        idx, _, _ = built
        assert idx.memory_bytes() > 0

    def test_stats_returns_dict(self, built):
        idx, _, _ = built
        assert isinstance(idx.stats(), dict)

    def test_mixed_random_ops_match_dict(self, built):
        """Randomized model check: the index behaves like a dict."""
        idx, half, rest = built
        rng = np.random.default_rng(99)
        model = {int(k): int(k) for k in half}
        pool = list(model) + [int(k) for k in rest[:1500]]
        for _ in range(2500):
            op = rng.integers(0, 4)
            k = pool[int(rng.integers(0, len(pool)))]
            if op == 0:
                assert idx.get(k) == model.get(k)
            elif op == 1:
                expect_new = k not in model
                assert idx.insert(k, k + 7) == expect_new
                model[k] = k + 7
            elif op == 2:
                assert idx.remove(k) == (k in model)
                model.pop(k, None)
            else:
                assert idx.update(k, k - 1) == (k in model)
                if k in model:
                    model[k] = k - 1
        for k in pool[::11]:
            assert idx.get(k) == model.get(k)


@pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
def test_batch_remove_races_scalar_inserts(cls):
    """A batch call is as thread-safe as the scalar calls it is made of.

    One thread scalar-inserts the unloaded half of the keys while another
    ``batch_remove``s half of the loaded keys in 64-key batches and a
    third ``batch_insert``s each pending key plus one (for ALT-index
    mostly the same predicted slot) in 64-key batches.  All start on a
    barrier with a tiny switch interval, so their steps interleave.
    Afterwards every victim must have been reported removed, every
    batch key inserted, and the index must hold exactly the dict
    oracle's pairs: no exception, no key lost or wrongly deleted, and an
    exact ``len()``.
    """
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            keys = np.sort(rng.choice(2**40, size=4096, replace=False)).astype(np.uint64)
            loaded, pending = keys[::2].copy(), keys[1::2].tolist()
            victims = rng.choice(loaded, size=len(loaded) // 2, replace=False)
            fresh = np.setdiff1d(keys[1::2] + np.uint64(1), keys)
            idx = cls.bulk_load(loaded, memory=MemoryMap())
            barrier = threading.Barrier(3)
            errors: list[BaseException] = []
            flags: list[bool] = []
            new_flags: list[bool] = []

            def run(work):
                try:
                    barrier.wait()
                    work()
                except BaseException as exc:  # surfaced by the assert below
                    errors.append(exc)

            def insert_pending():
                for k in pending:
                    idx.insert(k, k)

            def remove_victims():
                for i in range(0, len(victims), 64):
                    flags.extend(idx.batch_remove(victims[i : i + 64]).tolist())

            def insert_fresh():
                for i in range(0, len(fresh), 64):
                    new_flags.extend(idx.batch_insert(fresh[i : i + 64]).tolist())

            threads = [
                threading.Thread(target=run, args=(work,))
                for work in (insert_pending, remove_victims, insert_fresh)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), f"seed {seed}: a worker hung"
            assert not errors, f"seed {seed}: {errors[0]!r}"
            assert flags.count(True) == len(victims), f"seed {seed}"
            assert new_flags.count(True) == len(fresh), f"seed {seed}"
            oracle = {int(k): int(k) for k in np.concatenate([keys, fresh])}
            for k in victims.tolist():
                del oracle[k]
            assert idx.range_query(0, 2**64 - 1) == sorted(oracle.items()), f"seed {seed}"
            assert len(idx) == len(oracle), f"seed {seed}"
    finally:
        sys.setswitchinterval(old_interval)


@pytest.mark.parametrize("cls", ALL_INDEXES, ids=IDS)
class TestEdgeCases:
    def test_tiny_bulk(self, cls):
        keys = np.array([5, 10, 15], dtype=np.uint64)
        idx = cls.bulk_load(keys, memory=MemoryMap())
        assert [idx.get(k) for k in (5, 10, 15)] == [5, 10, 15]
        assert idx.get(7) is None

    def test_single_key_bulk(self, cls):
        idx = cls.bulk_load(np.array([42], dtype=np.uint64), memory=MemoryMap())
        assert idx.get(42) == 42
        idx.insert(43, 43)
        assert idx.get(43) == 43

    def test_huge_keys(self, cls):
        base = 2**62
        keys = np.array([base + i * 1000 for i in range(100)], dtype=np.uint64)
        idx = cls.bulk_load(keys, memory=MemoryMap())
        for k in keys[::9]:
            assert idx.get(int(k)) == int(k)

    def test_dense_consecutive_keys(self, cls):
        keys = np.arange(1000, 3000, dtype=np.uint64)
        idx = cls.bulk_load(keys, memory=MemoryMap())
        for k in range(1000, 3000, 77):
            assert idx.get(k) == k
        got = [k for k, _ in idx.scan(1500, 10)]
        assert got == list(range(1500, 1510))
