"""Fast pointer buffer: GPL-model → ART-subtree shortcuts (§III-C).

When a lookup misses in the learned layer, ALT-index jumps straight into
the ART-OPT layer *mid-tree*: each GPL model holds an index into this
buffer, and the buffer entry points at the deepest ART node common to the
lookup footprints of the model's first key and its right neighbour's
first key.  Every key routed to that model descends below that node, so
the root-ward portion of the ART walk — the "redundant node traversals"
of challenge 3 — is skipped.

Two schemes from the paper:

- **Merge scheme** (§III-C2): adjacent models frequently share the same
  ancestor node; pointers are deduplicated by target so the buffer stays
  far smaller than the model count (Fig. 10b) and a structure
  modification has exactly one entry to repair.
- **Invalidation repair** (§III-C3): the buffer subscribes to the ART's
  structure-modification notifications.  On prefix extraction the entry
  is moved up to the newly created parent (scenario ①); on node
  expansion it is swapped to the replacement node (scenario ②).

Appends take a spin lock (§III-E); entry reads are lock-free.
"""

from __future__ import annotations

from repro import chaos
from repro.art.nodes import Leaf, Node
from repro.art.tree import AdaptiveRadixTree
from repro.concurrency.spinlock import SpinLock
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_CHUNK_ENTRIES = 512
_ENTRY_BYTES = 8


class FastPointerBuffer:
    """Append-only, merge-deduplicated array of ART node pointers."""

    def __init__(
        self,
        art: AdaptiveRadixTree,
        merge: bool = True,
        memory: MemoryMap | None = None,
        tag: str = "alt/fastptr",
    ):
        self._art = art
        self._merge = merge
        self._memory = memory or global_memory()
        self._tag = tag
        self._pointers: list = []
        self._node_index: dict[int, int] = {}
        self._spans: list = []
        self._lock = SpinLock()
        self.raw_count = 0  # pointers requested before merging (Fig. 10b)
        self.repairs = 0  # invalidations repaired via SMO notifications
        self.lookups = 0  # entry() calls (health: hit-rate denominator)
        self.hits = 0  # entry() calls that returned a live node
        art.add_replace_listener(self._on_replace)

    def __len__(self) -> int:
        return len(self._pointers)

    # -- construction --------------------------------------------------------
    def build_for_layer(self, layer) -> None:
        """§III-C1: pair each model with its right neighbour's first key
        and register the common-ancestor pointer."""
        for i, model in enumerate(layer.models):
            nxt = layer.next_first_key(i)
            model.fast_index = self.register(model.first_key, nxt)

    def register(self, first_key: int, next_first_key: int | None) -> int:
        """Create (or merge into) a pointer for a model's key range.

        Returns the buffer index, or -1 when no useful shortcut exists
        (empty ART, or the paths diverge at the root anyway).
        """
        if next_first_key is None:
            next_first_key = 2**64 - 1
        node = self._art.common_ancestor(first_key, next_first_key)
        if node is None or isinstance(node, Leaf):
            return -1
        chaos.point("fastptr.register")
        with self._lock:
            # Safe to interleave here: SpinLock acquisition is cooperative
            # (bounded try-acquire with chaos points), so a paused holder
            # never deadlocks the schedule.
            chaos.point("fastptr.locked")
            self.raw_count += 1
            if self._merge:
                existing = self._node_index.get(id(node))
                if existing is not None:
                    return existing
            idx = len(self._pointers)
            self._pointers.append(node)
            self._node_index[id(node)] = idx
            if idx % _CHUNK_ENTRIES == 0:
                self._spans.append(
                    self._memory.alloc(_CHUNK_ENTRIES * _ENTRY_BYTES, self._tag)
                )
            t = current_tracer()
            if t is not None:
                t.writes.append(self._entry_line(idx))
            return idx

    # -- lookup ----------------------------------------------------------------
    def entry(self, fast_index: int):
        """The ART node a model's shortcut points at, or None."""
        self.lookups += 1
        if fast_index < 0 or fast_index >= len(self._pointers):
            return None
        t = current_tracer()
        if t is not None:
            t.reads.append(self._entry_line(fast_index))
        node = self._pointers[fast_index]
        if not isinstance(node, Node) or node.lock.is_obsolete:
            # A remove-side merge can repoint an entry at a bare Leaf,
            # which later splits or upserts without a notification, so
            # a Leaf target may be stale: start at the root instead.
            # Obsolete nodes are a safety net; callbacks normally repair.
            return None
        self.hits += 1
        return node

    def _entry_line(self, idx: int) -> int:
        span = self._spans[idx // _CHUNK_ENTRIES]
        return span.line((idx % _CHUNK_ENTRIES) * _ENTRY_BYTES)

    # -- invalidation repair (§III-C3) -------------------------------------------
    def _on_replace(self, old, new) -> None:
        chaos.point("fastptr.repair")
        idx = self._node_index.pop(id(old), None)
        if idx is None:
            return
        self._pointers[idx] = new
        self._node_index[id(new)] = idx
        self.repairs += 1
        t = current_tracer()
        if t is not None:
            t.writes.append(self._entry_line(idx))

    # -- introspection --------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "pointers": len(self._pointers),
            "raw_pointers": self.raw_count,
            "repairs": self.repairs,
            "merge_enabled": self._merge,
            "lookups": self.lookups,
            "hits": self.hits,
        }
