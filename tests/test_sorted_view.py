"""Unit tests for the shared batch-probe helpers in ``repro.common``
(``sorted_hits`` and ``first_occurrences``), and for batch probes that
resolve XIndex delta-buffer entries."""

import numpy as np

from repro.baselines.xindex import XIndex
from repro.common import first_occurrences, sorted_hits
from repro.sim.trace import MemoryMap

U64_MAX = 2**64 - 1


def u64(*keys):
    return np.array(keys, dtype=np.uint64)


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


class TestXIndexBufferParts:
    def test_buffer_entries_resolve_after_group_local_sort(self):
        """Delta-buffer keys interleave with a group's data array; each is
        found in the group's sorted buffer, not its array, and a batch probe
        resolves buffer, array and absent keys alike."""
        base = np.arange(1_000, 1_000 + 64 * 40, 40, dtype=np.uint64)
        idx = XIndex.bulk_load(base, group_size=16, buffer_threshold=8, memory=MemoryMap())
        extra = [int(k) + 7 for k in base[16:32:3]]  # all in group 1, below threshold
        for k in extra:
            assert idx.insert(k, -k)
        group = idx._groups[1]
        assert group.buf_keys == sorted(extra) and group.compactions == 0
        for k in extra:
            assert idx._group_for(k) is group
            assert group.find_in_array(k) == -1
            b = group.find_in_buffer(k)
            assert b >= 0 and group.buf_keys[b] == k
        assert group.find_in_array(int(base[20])) == 4  # slot 4 of group 1's array
        probe = np.array(extra + [int(base[20]), int(base[20]) + 1], dtype=np.uint64)
        assert idx.batch_get(probe) == [-k for k in extra] + [int(base[20]), None]
