"""Dynamic retraining via temporal expansion buffers (§III-F).

A GPL model is expanded when its runtime insertions exceed its build
size — the signal that the model is crowded and further inserts would
spill to the ART layer.  Expansion is incremental (no blocking rebuild):

1. **Expansion preparation** — allocate a temporal buffer with twice the
   slots and twice the training slope of the old model.
2. **Data eviction** — while expanding, each insert goes directly to the
   buffer; if the insert's predicted slot in the *old* model is occupied,
   that old occupant is evicted to the buffer too (keys that collide in
   the buffer fall through to the ART layer, as always).
3. **Expansion finishing** — once the buffer has absorbed as many
   insertions as the old model held, the old model's remaining keys are
   migrated and the model pointer is swapped.

The new model keeps the old one's first key, so routing is unchanged, and
the new model inherits the fast pointer index.  The retired model keeps
pointing at the expansion, so a reader still inside it reaches the
buffer.  After a swap, ART keys
of the model's range whose slot in the new model is EMPTY must move home
at once (``ALTIndex.insert`` does so right after :func:`finish_expansion`):
an insert writes an EMPTY slot without consulting the ART, so such a key
would otherwise get a second home.  ART keys whose new slot is a
tombstone migrate back lazily via the write-back path of Algorithm 2
(lines 10-13).
"""

from __future__ import annotations

from typing import Callable

from repro import chaos
from repro.core.learned_layer import FULL, GPLModel, LearnedLayer
from repro.obs import metrics as obs_metrics
from repro.sim.trace import MemoryMap

SpillFn = Callable[[int, object], None]


def expansion_threshold(model: GPLModel) -> int:
    """The expansion trigger: a model expands once its runtime inserts
    exceed this many, and its expansion finishes after absorbing as many
    (the model's build size)."""
    return max(model.build_size, 1)


class ExpansionBuffer:
    """Temporal buffer that incrementally replaces a crowded GPL model."""

    def __init__(self, model: GPLModel, memory: MemoryMap, tag: str):
        self.old = model
        self.buffer = GPLModel(
            model.first_key,
            model.slope_eff * 2.0,
            max(model.n_slots * 2, 4),
            memory,
            tag,
        )
        # The buffer becomes the live model at the swap; sharing the
        # lock keeps writers queued on the old model serialized with it.
        self.buffer.writer_lock = model.writer_lock
        self.inserted = 0

    def absorb(self, key: int, value, spill: SpillFn) -> bool:
        """Step 2: route one runtime insert through the expansion.

        ``spill(key, value)`` receives anything that collides inside the
        buffer (it goes to the ART-OPT layer) and returns True when the
        spilled key was new there.  Returns True when ``key`` was new.
        """
        chaos.point("retrain.absorb")
        old = self.old
        old_slot = old.slot_of(key)
        state, resident, resident_val = old.read_slot(old_slot)
        if state == FULL and resident == key:
            old.write_slot(old_slot, key, value)  # in-place update
            return False
        if state == FULL:
            # Evict the old occupant to the buffer, tombstoning its slot.
            self._place(resident, resident_val, spill)
            old.clear_slot(old_slot)
        new = self._place(key, value, spill)
        self.inserted += 1
        return new

    def _place(self, key: int, value, spill: SpillFn) -> bool:
        """Write ``key`` into its buffer slot, or ``spill`` it when another
        key holds the slot; True when the key was new there."""
        buf = self.buffer
        slot = buf.slot_of(key)
        state, resident, _ = buf.read_slot(slot)
        if state == FULL and resident != key:
            return spill(key, value)
        buf.write_slot(slot, key, value)
        return state != FULL

    def _resident(self, key: int) -> tuple[int, object] | None:
        """``(slot, value)`` of ``key`` in the buffer, or None when the
        buffer does not hold it."""
        slot = self.buffer.slot_of(key)
        state, resident, value = self.buffer.read_slot(slot)
        return (slot, value) if state == FULL and resident == key else None

    def lookup(self, key: int):
        """(found, value) for a key that may live in the buffer."""
        hit = self._resident(key)
        return (False, None) if hit is None else (True, hit[1])

    def update(self, key: int, value) -> bool:
        """In-place update of a buffer-resident key."""
        hit = self._resident(key)
        if hit is not None:
            self.buffer.write_slot(hit[0], key, value)
        return hit is not None

    def remove(self, key: int) -> bool:
        """Tombstone a buffer-resident key."""
        hit = self._resident(key)
        if hit is not None:
            self.buffer.clear_slot(hit[0])
        return hit is not None

    @property
    def needed(self) -> int:
        """Absorbs required before the buffer may replace the old model."""
        return expansion_threshold(self.old)

    def remaining(self) -> int:
        """Absorbs still outstanding (the health monitor's backlog unit)."""
        return max(self.needed - self.inserted, 0)

    def is_complete(self) -> bool:
        """Step 3 trigger: buffer insertions reached the old build size."""
        return self.inserted >= self.needed

    def finish(self, spill: SpillFn) -> GPLModel:
        """Migrate the old model's remaining keys and return the new model."""
        for key, value in self.old.iter_slots():
            chaos.point("retrain.migrate")
            self._place(key, value, spill)
        self.buffer.build_size = self.buffer.occupancy()
        self.buffer.insert_count = 0
        return self.buffer


def maybe_start_expansion(
    model: GPLModel, memory: MemoryMap, tag: str
) -> ExpansionBuffer | None:
    """Begin an expansion when runtime inserts exceed the build size."""
    if model.expansion is not None:
        return model.expansion
    if model.insert_count <= expansion_threshold(model):
        return None
    model.expansion = ExpansionBuffer(model, memory, tag)
    obs_metrics.inc("retrain.started")
    obs_metrics.observe("retrain.old_slots", model.n_slots)
    return model.expansion


def finish_expansion(layer: LearnedLayer, index: int, spill: SpillFn) -> GPLModel:
    """Swap the finished buffer in as the layer's model at ``index``."""
    model = layer.models[index]
    exp = model.expansion
    assert exp is not None
    new_model = exp.finish(spill)
    # The migrate-then-swap order is the §III-F handoff invariant: a
    # concurrent reader must find every key in the old model (pre-swap)
    # or the new one (post-swap), never neither.
    chaos.point("retrain.swap")
    layer.replace_model(index, new_model)
    # The retired model keeps its ``expansion``: a reader that routed to
    # it and read an eviction's tombstone still looks the key up in the
    # buffer, which is now the live model.  Dropping the buffer's
    # back-pointer breaks the model -> expansion -> model cycle, so the
    # retired model is freed as soon as no reader holds it.
    exp.old = None
    obs_metrics.inc("retrain.finished")
    obs_metrics.observe("retrain.new_slots", new_model.n_slots)
    return new_model
