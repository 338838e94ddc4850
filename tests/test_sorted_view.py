"""Unit tests for the shared batch-probe helpers in ``repro.common``:
``sorted_hits``, ``first_occurrences`` and ``SortedView``."""

import numpy as np

from repro.baselines.xindex import XIndex
from repro.common import SortedView, first_occurrences, sorted_hits
from repro.sim.trace import MemoryMap

U64_MAX = 2**64 - 1


def u64(*keys):
    return np.array(keys, dtype=np.uint64)


class _Box:
    """A stand-in container: the view only ever hands it back."""

    def __init__(self, name):
        self.name = name


def parts_of(*groups):
    """``build`` callable yielding one part per ``(container, keys)``."""
    return lambda: (
        (box, u64(*keys), np.arange(len(keys), dtype=np.int64)) for box, keys in groups
    )


class TestSortedHits:
    def test_empty_keys_hit_nothing(self):
        pos, hit = sorted_hits(u64(), u64(0, 5, U64_MAX))
        assert pos.tolist() == [0, 0, 0]
        assert hit.tolist() == [False, False, False]

    def test_probes_outside_and_at_the_ends(self):
        keys = u64(10, 20, 30)
        probe = u64(0, 9, 10, 25, 30, 31, U64_MAX)
        pos, hit = sorted_hits(keys, probe)
        assert pos.tolist() == [0, 0, 0, 2, 2, 3, 3]
        assert hit.tolist() == [False, False, True, False, True, False, False]

    def test_zero_and_max_as_stored_keys(self):
        keys = u64(0, 7, U64_MAX)
        pos, hit = sorted_hits(keys, u64(U64_MAX, 0, 1, U64_MAX - 1))
        assert pos.tolist() == [2, 0, 1, 2]
        assert hit.tolist() == [True, True, False, False]

    def test_duplicate_probes(self):
        pos, hit = sorted_hits(u64(3, 6), u64(6, 6, 4, 4, 3))
        assert pos.tolist() == [1, 1, 1, 1, 0]
        assert hit.tolist() == [True, True, False, False, True]


class TestFirstOccurrences:
    def test_no_duplicates(self):
        first, dup_idx = first_occurrences(u64(9, 1, 5))
        assert first.tolist() == [True, True, True]
        assert dup_idx == []

    def test_all_duplicates(self):
        first, dup_idx = first_occurrences(u64(4, 4, 4, 4))
        assert first.tolist() == [True, False, False, False]
        assert dup_idx == [1, 2, 3]

    def test_mixed_and_empty(self):
        first, dup_idx = first_occurrences(u64(2, 8, 2, 8, 1))
        assert first.tolist() == [True, True, False, False, True]
        assert dup_idx == [2, 3]
        first, dup_idx = first_occurrences(u64())
        assert first.tolist() == [] and dup_idx == []


class TestSortedView:
    def test_empty_view(self):
        view = SortedView(lambda: iter(()))
        keys, owners, slots = view.arrays()
        assert len(keys) == len(owners) == len(slots) == 0
        hit_i, conts, found = view.find(u64(0, 1, U64_MAX))
        assert hit_i.tolist() == [] and conts == [] and found == []

    def test_find_returns_container_and_slot(self):
        a, b = _Box("a"), _Box("b")
        view = SortedView(parts_of((a, [0, 5]), (b, [9, U64_MAX])))
        hit_i, conts, slots = view.find(u64(U64_MAX, 3, 5, 0, 9, 9))
        assert hit_i.tolist() == [0, 2, 3, 4, 5]
        assert [c.name for c in conts] == ["b", "a", "a", "b", "b"]
        assert slots == [1, 1, 0, 0, 0]

    def test_empty_parts_are_skipped(self):
        a, empty, b = _Box("a"), _Box("empty"), _Box("b")
        view = SortedView(parts_of((empty, []), (a, [1, 2]), (empty, []), (b, [3])))
        keys, owners, slots = view.arrays()
        assert keys.tolist() == [1, 2, 3]
        assert [o.name for o in owners] == ["a", "a", "b"]
        assert slots.tolist() == [0, 1, 0]

    def test_arrays_are_cached_until_invalidate(self):
        a, b = _Box("a"), _Box("b")
        groups = [(a, [10, 20])]
        builds = []

        def build():
            builds.append(1)
            return parts_of(*groups)()

        view = SortedView(build)
        assert view.find(u64(30))[0].tolist() == []
        groups.append((b, [30]))
        assert view.find(u64(30))[0].tolist() == [], "stale until invalidated"
        assert len(builds) == 1
        view.invalidate()
        hit_i, conts, slots = view.find(u64(30, 10))
        assert hit_i.tolist() == [0, 1]
        assert [c.name for c in conts] == ["b", "a"] and slots == [0, 0]
        assert len(builds) == 2


class TestXIndexBufferParts:
    def test_buffer_entries_resolve_after_group_local_sort(self):
        """Delta-buffer keys interleave with a group's data array; the
        group's part is sorted locally and buffer slot ``b`` is encoded as
        ``-(b + 1)``."""
        base = np.arange(1_000, 1_000 + 64 * 40, 40, dtype=np.uint64)
        idx = XIndex.bulk_load(base, group_size=16, buffer_threshold=8, memory=MemoryMap())
        extra = [int(k) + 7 for k in base[16:32:3]]  # all in group 1, below threshold
        for k in extra:
            assert idx.insert(k, -k)
        group = idx._groups[1]
        assert sorted(group.buf_keys) == sorted(extra) and group.compactions == 0
        keys, owners, slots = idx._view.arrays()
        assert np.all(keys[:-1] < keys[1:]), "view must be globally sorted"
        probe = np.array(extra + [int(base[20]), int(base[20]) + 1], dtype=np.uint64)
        hit_i, conts, found = idx._view.find(probe)
        assert hit_i.tolist() == list(range(len(extra) + 1))
        assert all(c is group for c in conts)
        for k, s in zip(extra, found):
            assert s < 0 and group.buf_keys[-s - 1] == k
        assert found[-1] == 4  # base[20] is slot 4 of group 1's data array
        assert idx.batch_get(probe) == [-k for k in extra] + [int(base[20]), None]
