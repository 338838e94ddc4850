"""Plain ART with optimistic lock coupling as an index (Table I, Fig. 7).

This is the same :class:`~repro.art.tree.AdaptiveRadixTree` substrate
ALT-index uses for its ART-OPT layer, but standing alone: every lookup
descends from the root, which is the "node traversal" limitation the
paper's Table I attributes to ART.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.art.tree import AdaptiveRadixTree
from repro.common import OrderedIndex, as_value_array, unique_tag
from repro.obs.spans import current_profile
from repro.sim.trace import MemoryMap, global_memory


class ArtIndex(OrderedIndex):
    """Adaptive Radix Tree with optimistic lock coupling."""

    NAME = "ART"

    def __init__(self, *, memory: MemoryMap | None = None, tag: str | None = None):
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("art")
        self._tree = AdaptiveRadixTree(self._memory, self.mem_tag)

    @classmethod
    def bulk_load(
        cls, keys: np.ndarray, values: Sequence | None = None, **options
    ) -> "ArtIndex":
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        index = cls(**options)
        index._tree.build_sorted(keys, values)
        return index

    def get(self, key: int):
        prof = current_profile()
        if prof is not None:
            with prof.span("art.descend"):
                return self._tree.search(key)
        return self._tree.search(key)

    def insert(self, key: int, value) -> bool:
        prof = current_profile()
        if prof is not None:
            with prof.span("art.descend"):
                return self._tree.insert(key, value, upsert=True)
        return self._tree.insert(key, value, upsert=True)

    def remove(self, key: int) -> bool:
        prof = current_profile()
        if prof is not None:
            with prof.span("art.descend"):
                return self._tree.remove(key)
        return self._tree.remove(key)

    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        prof = current_profile()
        if prof is not None:
            with prof.span("art.descend"):
                return self._tree.scan(lo, count)
        return self._tree.scan(lo, count)

    def range_query(self, lo: int, hi: int) -> list[tuple[int, object]]:
        return self._tree.items(lo, hi)

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def tree(self) -> AdaptiveRadixTree:
        return self._tree

    def stats(self) -> dict:
        return {
            "node_counts": self._tree.node_counts(),
            "height": self._tree.height(),
            "memory_bytes": self.memory_bytes(),
        }
