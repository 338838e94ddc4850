"""ALT-index: the hybrid learned index / ART facade (§III, Algorithm 2).

Two tiers:

- the **learned index layer** (:mod:`repro.core.learned_layer`) holds the
  linearly-predictable data with *zero* prediction error — every resident
  key sits exactly at its predicted slot;
- the **ART-OPT layer** (:mod:`repro.art`) hosts conflict data — bulk-load
  collisions and runtime inserts whose predicted slot is taken — reached
  through the fast pointer buffer (:mod:`repro.core.fast_pointer`) so a
  learned-layer miss skips the root-ward portion of the ART descent.

Every operation follows Algorithm 2: binary-search the upper model for a
GPL model, compute the predicted slot with one linear calculation, then
branch on the slot state.  There is never an in-model secondary search.

Options mirror the paper's ablation axes::

    ALTIndex.bulk_load(keys,
                       epsilon=...,         # default: the N/1000 rule
                       fast_pointers=True,  # §III-C shortcut buffer
                       merge_pointers=True, # §III-C2 merge scheme
                       retraining=True)     # §III-F dynamic retraining
"""

from __future__ import annotations

import contextlib
import threading
from typing import Sequence

import numpy as np

from repro import chaos
from repro.art.tree import NO_RUNS, AdaptiveRadixTree
from repro.common import (
    BatchIndex,
    OrderedIndex,
    as_value_array,
    first_occurrences,
    unique_tag,
)
from repro.concurrency.retry import StuckWriterError, acquire_writer_lock
from repro.core.analysis import suggest_error_bound
from repro.core.fast_pointer import FastPointerBuffer
from repro.core.learned_layer import EMPTY, FULL, TOMBSTONE, LearnedLayer
from repro.core.retrain import expansion_threshold, finish_expansion, maybe_start_expansion
from repro.obs import health as obs_health
from repro.obs import metrics as obs_metrics
from repro.sim.trace import MemoryMap, current_tracer, global_memory

_UINT64_MAX = 2**64 - 1


class ALTIndex(OrderedIndex):
    """A hybrid Learned-index + ART concurrent ordered index."""

    NAME = "ALT-index"

    def __init__(
        self,
        *,
        epsilon: float,
        fast_pointers: bool = True,
        merge_pointers: bool = True,
        retraining: bool = True,
        memory: MemoryMap | None = None,
        tag: str | None = None,
    ):
        self.epsilon = epsilon
        self._memory = memory or global_memory()
        self.mem_tag = tag or unique_tag("alt")
        self._retraining = retraining
        self._layer = LearnedLayer(self._memory, f"{self.mem_tag}/learned")
        self._art = AdaptiveRadixTree(self._memory, f"{self.mem_tag}/art")
        self._fastptr: FastPointerBuffer | None = None
        if fast_pointers:
            self._fastptr = FastPointerBuffer(
                self._art, merge_pointers, self._memory, f"{self.mem_tag}/fastptr"
            )
        self._size = 0
        self._size_lock = threading.Lock()
        # Serializes the first insert into an empty index.
        self._bootstrap_lock = threading.Lock()
        self.conflict_inserts = 0
        self.writebacks = 0
        self.expansions = 0
        self.recoveries = 0  # stuck-writer latches broken + repatriated

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        keys: np.ndarray,
        values: Sequence | None = None,
        *,
        epsilon: float | None = None,
        fast_pointers: bool = True,
        merge_pointers: bool = True,
        retraining: bool = True,
        memory: MemoryMap | None = None,
        tag: str | None = None,
    ) -> "ALTIndex":
        """Build from sorted duplicate-free keys.

        ε defaults to the paper's ``len(keys) / 1000`` recommendation
        (§III-D).  Keys that collide at their predicted slot become the
        initial conflict data of the ART-OPT layer, built bottom-up from
        that sorted run; the fast pointer buffer is built once both
        layers exist (§III-C1).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        if epsilon is None:
            epsilon = suggest_error_bound(len(keys))
        index = cls(
            epsilon=epsilon,
            fast_pointers=fast_pointers,
            merge_pointers=merge_pointers,
            retraining=retraining,
            memory=memory,
            tag=tag,
        )
        layer, ckeys, cvals = LearnedLayer.bulk_build(
            keys, values, epsilon, index._memory, f"{index.mem_tag}/learned"
        )
        index._layer = layer
        index._art.build_sorted(ckeys, cvals)
        # Batch reads resolve ART keys from the sorted runs: seed main.
        index._art.publish_main(ckeys, cvals)
        if index._fastptr is not None:
            index._fastptr.build_for_layer(layer)
        index._size = len(keys)
        return index

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bump(self, delta: int) -> None:
        with self._size_lock:
            self._size += delta

    def _entry_for(self, index: int, model, key: int) -> object | None:
        """Resolve (lazily registering) the model's fast-pointer entry.

        A key below the first model's first key routes to that model by
        clamping but lies outside its pointer's subtree, so it gets no
        entry and its ART descent starts at the root.
        """
        if self._fastptr is None or key < model.first_key:
            return None
        if model.fast_index < 0:
            model.fast_index = self._fastptr.register(
                model.first_key, self._layer.next_first_key(index)
            )
        return self._fastptr.entry(model.fast_index)

    def _art_insert(self, key: int, value, index: int, model) -> bool:
        entry = self._entry_for(index, model, key)
        new = self._art.insert(key, value, from_node=entry, upsert=True)
        self.conflict_inserts += 1
        obs_metrics.inc("alt.conflict_inserts")
        return new

    def _route(self, key: int):
        if not self._layer.models:
            return None, None
        return self._layer.route(key)

    def _lock_model(self, key: int, i: int, model):
        """Take the writer lock of ``key``'s live model; returns ``(i, model)``.

        Scalar writers serialize per model: the seqlock makes one slot
        write atomic, but reading a slot EMPTY and then writing it (and
        an expansion's start, absorb, finish and move-home) is not.  The
        lock stands in for the versioned slot CAS of a native build, so
        it records no modeled cost.  A writer that waited while an
        expansion swapped the model out re-routes to the live one.
        """
        while True:  # bounded: each retry follows a finished expansion swap
            lock = model.writer_lock
            acquire_writer_lock(lock, "alt.writer_lock")
            if self._layer.models[i] is model:
                return i, model
            lock.release()
            i, model = self._layer.route(key)

    def _bootstrap_model(self, key: int):
        """First insert into an empty index: seed a minimal GPL model.

        Two first inserts can both see no model; the lock and the
        re-check let only one of them append it.  Returns the route of
        ``key`` once a model exists.
        """
        with self._bootstrap_lock:
            if not self._layer.models:
                self._layer.append_overflow_model(key, 1.0, 64)
        return self._layer.route(key)

    def _move_home(self, index: int, model) -> None:
        """After an expansion swap, move every ART key of the model's
        range whose slot in the new ``model`` is EMPTY into that slot.

        A scalar insert writes an EMPTY slot without consulting the ART,
        so leaving such a key in the ART would give it two homes once
        it is re-inserted.  As in ``_write_back``, the slot is written
        before the ART copy is removed, so a reader finds the key in one
        of the two throughout; the caller holds the model's writer lock,
        which every writer of this key range takes.  Keys whose new slot
        is a tombstone still migrate lazily.
        """
        lo = model.first_key if index else 0  # model 0 also takes keys below it
        hi = self._layer.next_first_key(index)
        # Walk first, then move: a removal under the walk would restart it.
        pairs = []
        for pair in self._art.iter_from(lo):
            if hi is not None and pair[0] >= hi:
                break
            pairs.append(pair)
        for key, value in pairs:
            slot = model.slot_of(key)
            if model.state_mv[slot] == EMPTY:
                model.write_slot(slot, key, value)
                self._art.remove(key)

    # -- stuck-writer recovery (crash-induced odd versions) --------------
    def _recover_stuck_slot(self, model, slot: int, locked: bool) -> None:
        """A reader timed out on a latched slot: the writer died mid-write.

        Break the latch, tombstone the (possibly torn) slot, and
        repatriate whatever pair was salvageable into the ART-OPT layer
        — the write-back path migrates it home on a later lookup.  The
        tombstone is a slot write, so a reader (``locked=False``) first
        takes the model's writer lock, which the arena compaction
        (``LearnedLayer._compact``) also holds while it copies slots.
        """
        chaos.point("alt.recover")
        lock = model.writer_lock
        if not locked:
            acquire_writer_lock(lock, "alt.writer_lock")
        try:
            pair = model.recover_slot(slot)
            self.recoveries += 1
            obs_metrics.inc("alt.recoveries")
            if pair is not None:
                self._art.insert(pair[0], pair[1], upsert=True)
        finally:
            if not locked:
                lock.release()

    def _read_slot_recovering(self, model, slot: int, locked: bool = True):
        """``model.read_slot`` with stuck-writer detection and recovery;
        ``locked`` tells whether the caller holds the model's writer lock."""
        try:
            return model.read_slot(slot)
        except StuckWriterError:
            self._recover_stuck_slot(model, slot, locked)
            return model.read_slot(slot)

    def _write_back(self, model, slot: int, key: int, value) -> None:
        """Algorithm 2 lines 10-13: repatriate an ART-resident key into its
        free predicted slot, under the model's writer lock."""
        chaos.point("alt.writeback")
        model.write_slot(slot, key, value)
        self._art.remove(key)
        self.writebacks += 1
        obs_metrics.inc("alt.writebacks")

    # ------------------------------------------------------------------
    # Algorithm 2: Search
    # ------------------------------------------------------------------
    def get(self, key: int):
        obs_health.tick(self)
        i, model = self._route(key)
        if model is None:
            return self._art.search(key)
        slot = model.slot_of(key)
        state, resident, value = self._read_slot_recovering(model, slot, False)
        if state == FULL and resident == key:
            return value
        exp = model.expansion
        if exp is not None:
            found, bval = exp.lookup(key)
            if found:
                return bval
        # The write-back below is a write: it needs the model's writer
        # lock across the ART lookup, and is skipped when the lock is busy.
        lock = model.writer_lock
        locked = exp is None and state != FULL and lock.acquire(blocking=False)
        try:
            chaos.point("alt.art_fallback")
            # Untraced, the ART's sorted runs answer without a descent;
            # a traced read keeps §III-C's fast-pointer descent, and only
            # a descent resolves the model's fast-pointer entry.
            value = NO_RUNS
            if current_tracer() is None:
                value = self._art.search_runs(key)
            if value is NO_RUNS:
                value = self._art.search(key, from_node=self._entry_for(i, model, key))
            if value is None:
                # A write-back (or move-home) writes the slot, then drops
                # the ART copy: a key that missed the slot above and the
                # ART here was moved home meanwhile, into this slot or,
                # after a swap, into the buffer that replaced the model.
                # Unvalidated key peeks (untraced, like the state
                # checks) keep a plain miss free of extra slot reads.
                if model.keys_mv[slot] == key:  # an absent key reads 0
                    state, resident, value = self._read_slot_recovering(model, slot, locked)
                    if state == FULL and resident == key:
                        return value
                exp = model.expansion
                if exp is not None:
                    buf = exp.buffer
                    if buf.keys_mv[buf.slot_of(key)] == key:
                        return exp.lookup(key)[1]
                return None
            if (
                locked
                and model.expansion is None
                and model.state_mv[slot] != FULL
                and self._layer.models[i] is model
            ):
                self._write_back(model, slot, key, value)
        finally:
            if locked:
                lock.release()
        return value

    # ------------------------------------------------------------------
    # Batch search (vectorized Algorithm 2)
    # ------------------------------------------------------------------
    def batch_get(self, keys) -> list:
        """Vectorized lookup: one learned-layer probe for the whole batch,
        falling through to the ART-OPT layer only for the conflict subset.

        Equivalent to ``[self.get(k) for k in keys]`` — including the
        Algorithm-2 write-back side effect — and delegates to exactly
        that loop under an active tracer so CostTrace totals match the
        per-key path.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return []
        if current_tracer() is not None or not self._layer.models:
            return BatchIndex.batch_get(self, keys)
        obs_health.tick(self, n)
        layer = self._layer
        version = layer.version
        midx, slots, flat, state, resident = layer.probe_live(keys)
        # Every hit's value in one gather from the layer's value arena.
        # A hit needs its key, then its slot FULL (probe_live gathers
        # in that order) before that gather and the key still in place
        # after it: a fill publishes the state after its key and value,
        # and a clear drops the key before the value, so the value read
        # between is the key's.
        vals = layer.np_values[flat]
        hit = (state == FULL) & (resident == keys) & (layer.np_keys[flat] == keys)
        if bool(hit.all()):
            return vals.tolist()
        miss = np.flatnonzero(~hit)
        vals[miss] = None
        out = vals.tolist()
        # Conflict remainder (Algorithm 2 lines 5-13): the expansion
        # buffer, then the ART.  A miss whose slot is free may be written
        # back, which is a write: as scalar ``get`` does, it takes the
        # model's writer lock without blocking and holds it across the
        # ART lookup, and a busy lock skips the write-back.
        models = layer.models
        mi_l = midx.tolist()
        keys_l = keys.tolist()
        st_l = state.tolist()
        miss_i: list[int] = []
        miss_keys: list[int] = []
        held: dict[int, object] = {}  # model index -> model whose lock is held
        try:
            for i in miss.tolist():
                mi = mi_l[i]
                model = models[mi]
                exp = model.expansion
                if exp is not None:
                    found, bval = exp.lookup(keys_l[i])
                    if found:
                        out[i] = bval
                        continue
                elif st_l[i] != FULL and mi not in held and model.writer_lock.acquire(
                    blocking=False
                ):
                    held[mi] = model
                miss_i.append(i)
                miss_keys.append(keys_l[i])
            if not miss_keys:
                return out
            # One searchsorted per ART run resolves every conflict key.
            sl_l = slots.tolist()
            for i, value in zip(miss_i, self._art.lookup_sorted(miss_keys)):
                if value is None:
                    continue
                out[i] = value
                model = held.get(mi_l[i])
                # Write-back (Algorithm 2 lines 10-13) into the predicted
                # slot, re-read live: an earlier write-back in this batch
                # may have filled it (two conflict keys can share a
                # predicted slot, or a key can repeat).  An unchanged
                # layer version means the probed model is still live.
                if (
                    model is not None
                    and layer.version == version
                    and model.expansion is None
                    and model.state_mv[sl_l[i]] != FULL
                ):
                    self._write_back(model, sl_l[i], keys_l[i], value)
        finally:
            for model in held.values():
                model.writer_lock.release()
        # A miss may be a key that moved while this batch looked for it:
        # into its slot from the ART after the probe (a write-back or
        # move-home writes the slot, then drops the ART copy), or into a
        # model swapped in since the probe.  Replay every unresolved one
        # on the scalar path, which re-reads the slot after an ART miss.
        for i in miss_i:
            if out[i] is None:
                out[i] = self.get(keys_l[i])
        return out

    # ------------------------------------------------------------------
    # Batch insert / remove (vectorized Algorithm 2, write path)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _locked_probe(self, keys: np.ndarray, first_mask: np.ndarray):
        """Probe ``keys`` unlocked (the probe may compact, which takes
        every writer lock), then hold the writer locks of the models the
        ``first_mask`` keys route to (:meth:`LearnedLayer.writer_locks`).
        Yields the probe with state and key re-read under the locks, as
        scalar writers read them, or None when a swap or append since
        the probe moved slots: the caller then replays the batch through
        the scalar writers, after the locks are released."""
        layer = self._layer
        version = layer.version
        midx, slots, flat, _, _ = layer.probe_live(keys)
        held = [layer.models[mi] for mi in np.unique(midx[first_mask]).tolist()]
        with layer.writer_locks(held, version, "alt.writer_lock") as live:
            yield (midx, slots, flat, layer.np_state[flat], layer.np_keys[flat]) if live else None

    def batch_insert(self, keys, values=None) -> np.ndarray:
        """Vectorized insert: one learned-layer probe predicts every slot,
        free slots are filled columnwise, and conflict keys are routed to
        the ART-OPT layer in one sorted pass (``AdaptiveRadixTree.bulk_insert``),
        all under the touched models' writer locks (:meth:`_locked_probe`).

        Equivalent to the scalar insert loop — flags, values, counters and
        the one-home invariant all match — and delegates to exactly that
        loop under an active tracer so CostTrace totals stay identical.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = as_value_array(keys, values)
        n = len(keys)
        if n == 0:
            return np.empty(0, dtype=bool)
        if current_tracer() is not None or not self._layer.models:
            return BatchIndex.batch_insert(self, keys, values)
        obs_health.tick(self, n)
        out = np.zeros(n, dtype=bool)

        # Later occurrences of a duplicate key are value updates whose
        # target (slot vs ART) only the live structures know; they replay
        # through the scalar path after the batch, preserving per-key
        # order (first occurrence inserts, later ones update).
        vec_mask, dup_idx = first_occurrences(keys)
        keys_l = keys.tolist()
        firsts = np.flatnonzero(vec_mask).tolist()
        scalar_is = firsts  # all of them when slots moved since the probe
        new_count = 0
        with self._locked_probe(keys, vec_mask) as probe:
            if probe is not None:
                midx, slots, flat, state, resident = probe
                models = self._layer.models
                # Models whose expansion could engage during this batch
                # keep the scalar path: the retrain trigger is re-checked
                # before every scalar insert, so the fast path only
                # handles models where no key of this batch can flip it.
                unsafe: set[int] = set()
                if self._retraining:
                    routed = np.bincount(midx, minlength=len(models))
                    for mi in np.flatnonzero(routed).tolist():
                        m = models[mi]
                        if m.expansion is not None or (
                            m.insert_count + int(routed[mi]) > expansion_threshold(m)
                        ):
                            unsafe.add(mi)
                mi_l, sl_l, flat_l = midx.tolist(), slots.tolist(), flat.tolist()
                st_l, res_l = state.tolist(), resident.tolist()
                scalar_is = []  # unsafe models -> scalar replay
                empty_is: list[int] = []  # EMPTY slot -> columnwise placement
                upsert_is: list[int] = []  # FULL, same key -> in-place value write
                conflict_is: list[int] = []  # FULL, other key -> ART (+insert_count)
                tomb_is: list[int] = []  # TOMBSTONE -> ART (one-home invariant)
                claimed: set[int] = set()  # flat slots won earlier in this batch
                for i in firsts:
                    if mi_l[i] in unsafe:
                        scalar_is.append(i)
                    elif st_l[i] == FULL:
                        (upsert_is if res_l[i] == keys_l[i] else conflict_is).append(i)
                    elif st_l[i] == TOMBSTONE:
                        tomb_is.append(i)
                    elif flat_l[i] in claimed:
                        # EMPTY, but won by an earlier key of this batch:
                        # the rest see it FULL, exactly the scalar order.
                        conflict_is.append(i)
                    else:
                        claimed.add(flat_l[i])
                        empty_is.append(i)
                for i in empty_is:
                    model = models[mi_l[i]]
                    model.write_slot(sl_l[i], keys_l[i], values[i])
                    model.insert_count += 1
                out[empty_is] = True
                new_count = len(empty_is)
                for i in upsert_is:
                    models[mi_l[i]].write_slot(sl_l[i], keys_l[i], values[i])
                route_is = conflict_is + tomb_is
                if route_is:
                    # Batched conflict routing: group the overflow keys,
                    # sort them, and repatriate to the ART in one pass.
                    route_is.sort(key=keys_l.__getitem__)
                    out[route_is] = self._art.bulk_insert(
                        [keys_l[i] for i in route_is],
                        [values[i] for i in route_is],
                        upsert=True,
                    )
                    new_count += int(np.count_nonzero(out[route_is]))
                    self.conflict_inserts += len(route_is)
                    obs_metrics.inc("alt.conflict_inserts", len(route_is))
                    for i in conflict_is:
                        if out[i]:
                            models[mi_l[i]].insert_count += 1
        if new_count:
            self._bump(new_count)
        obs_metrics.inc("alt.batch_inserts")
        for i in scalar_is + dup_idx:
            out[i] = self.insert(keys_l[i], values[i])
        return out

    def batch_remove(self, keys) -> np.ndarray:
        """Vectorized remove: columnwise tombstoning of learned-resident
        keys plus one sorted ``AdaptiveRadixTree.bulk_remove`` pass for
        the rest.  Tombstone/recovery semantics are the scalar ones —
        cleared slots become tombstones, so the Algorithm-2 write-back
        and the remove-then-reinsert ART detour still apply.

        Like scalar ``remove``, it classifies and removes under the
        writer locks of the models it touches (:meth:`_locked_probe`), so
        a concurrent scalar writer cannot start an expansion, write back
        or swap in between.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0:
            return np.empty(0, dtype=bool)
        if current_tracer() is not None or not self._layer.models:
            return BatchIndex.batch_remove(self, keys)
        obs_health.tick(self, n)
        out = np.zeros(n, dtype=bool)
        vec_mask, dup_idx = first_occurrences(keys)
        keys_l = keys.tolist()
        firsts = np.flatnonzero(vec_mask).tolist()
        scalar_is = firsts  # all of them when slots moved since the probe
        removed = 0
        with self._locked_probe(keys, vec_mask) as probe:
            if probe is not None:
                midx, slots, _, state, resident = probe
                models = self._layer.models
                mi_l, sl_l = midx.tolist(), slots.tolist()
                st_l, res_l = state.tolist(), resident.tolist()
                scalar_is = []  # models under expansion -> scalar replay
                clear_is: list[int] = []  # FULL, same key -> tombstone the slot
                art_is: list[int] = []  # everything else -> batched ART removal
                for i in firsts:
                    if models[mi_l[i]].expansion is not None:
                        scalar_is.append(i)
                    elif st_l[i] == FULL and res_l[i] == keys_l[i]:
                        clear_is.append(i)
                    else:
                        art_is.append(i)
                for i in clear_is:
                    models[mi_l[i]].clear_slot(sl_l[i])
                out[clear_is] = True
                removed = len(clear_is)
                if art_is:
                    art_is.sort(key=keys_l.__getitem__)
                    out[art_is] = self._art.bulk_remove([keys_l[i] for i in art_is])
                    removed += int(np.count_nonzero(out[art_is]))
        if removed:
            self._bump(-removed)
        obs_metrics.inc("alt.batch_removes")
        for i in scalar_is + dup_idx:
            out[i] = self.remove(keys_l[i])
        return out

    # ------------------------------------------------------------------
    # Algorithm 2: Insert
    # ------------------------------------------------------------------
    def insert(self, key: int, value) -> bool:
        obs_health.tick(self)
        i, model = self._route(key)
        if model is None:
            i, model = self._bootstrap_model(key)
        i, model = self._lock_model(key, i, model)
        try:
            return self._insert_locked(key, value, i, model)
        finally:
            model.writer_lock.release()

    def _insert_locked(self, key: int, value, i: int, model) -> bool:
        """Algorithm 2's insert body, under ``model``'s writer lock."""
        if self._retraining:
            exp = model.expansion
            if exp is None:
                exp = maybe_start_expansion(
                    model, self._memory, f"{self.mem_tag}/learned"
                )
                if exp is not None:
                    self.expansions += 1
                    obs_metrics.inc("alt.expansions")
            if exp is not None:
                spilled_self = False

                def spill(k, v):
                    nonlocal spilled_self
                    if k == key:
                        spilled_self = True
                    return self._art_insert(k, v, i, model)

                new = exp.absorb(key, value, spill)
                if new and not spilled_self and self._art.remove(key):
                    # The key already lived in ART (its old predicted
                    # slot was full); the buffer copy supersedes it.
                    new = False
                model.insert_count += 1
                if exp.is_complete():
                    new_model = finish_expansion(
                        self._layer,
                        i,
                        lambda k, v: self._art_insert(k, v, i, model),
                    )
                    self._move_home(i, new_model)
                if new:
                    self._bump(1)
                return new

        slot = model.slot_of(key)
        state, resident, _ = self._read_slot_recovering(model, slot)
        if state == FULL:
            if resident == key:
                model.write_slot(slot, key, value)  # in-place upsert
                return False
            new = self._art_insert(key, value, i, model)
            if new:  # an upsert of a key already in the ART adds nothing
                model.insert_count += 1
                self._bump(1)
            return new
        if state == TOMBSTONE:
            # The key may still live in ART (pre-write-back); upserting
            # there keeps the one-home invariant for removed-then-
            # reinserted conflict keys.
            new = self._art_insert(key, value, i, model)
            if new:
                self._bump(1)
            return new
        model.write_slot(slot, key, value)
        model.insert_count += 1
        self._bump(1)
        return True

    # ------------------------------------------------------------------
    # update / remove (§III-G)
    # ------------------------------------------------------------------
    def update(self, key: int, value) -> bool:
        obs_health.tick(self)
        i, model = self._route(key)
        if model is None:
            return False
        i, model = self._lock_model(key, i, model)
        try:
            slot = model.slot_of(key)
            state, resident, _ = self._read_slot_recovering(model, slot)
            if state == FULL and resident == key:
                model.write_slot(slot, key, value)
                return True
            exp = model.expansion
            if exp is not None and exp.update(key, value):
                return True
            entry = self._entry_for(i, model, key)
            if self._art.search(key, from_node=entry) is None:
                return False
            self._art.insert(key, value, from_node=entry, upsert=True)
            return True
        finally:
            model.writer_lock.release()

    def remove(self, key: int) -> bool:
        obs_health.tick(self)
        i, model = self._route(key)
        if model is None:
            removed = self._art.remove(key)
            if removed:
                self._bump(-1)
            return removed
        i, model = self._lock_model(key, i, model)
        try:
            slot = model.slot_of(key)
            state, resident, _ = self._read_slot_recovering(model, slot)
            removed = False
            if state == FULL and resident == key:
                model.clear_slot(slot)
                removed = True
            elif model.expansion is not None and model.expansion.remove(key):
                removed = True
            if not removed:
                removed = self._art.remove(key)
        finally:
            model.writer_lock.release()
        if removed:
            self._bump(-1)
        return removed

    # ------------------------------------------------------------------
    # range operations (§III-G Range Query)
    # ------------------------------------------------------------------
    def scan(self, lo: int, count: int) -> list[tuple[int, object]]:
        """Dual scan: GPL models and ART merged in key order."""
        gpl = self._layer.items(lo, _UINT64_MAX)
        art = self._art.iter_from(lo)
        out: list[tuple[int, object]] = []
        a = next(gpl, None)
        b = next(art, None)
        while len(out) < count and (a is not None or b is not None):
            if b is None or (a is not None and a[0] <= b[0]):
                if b is not None and a[0] == b[0]:
                    b = next(art, None)  # GPL copy shadows a stale ART twin
                out.append(a)
                a = next(gpl, None)
            else:
                out.append(b)
                b = next(art, None)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def art_path_length(self, key: int) -> int:
        """ART nodes visited for ``key`` using the fast pointer (Fig. 10a)."""
        i, model = self._route(key)
        entry = self._entry_for(i, model, key) if model is not None else None
        return self._art.lookup_path_length(key, from_node=entry)

    @property
    def art(self) -> AdaptiveRadixTree:
        return self._art

    @property
    def layer(self) -> LearnedLayer:
        return self._layer

    @property
    def fast_pointers(self) -> FastPointerBuffer | None:
        return self._fastptr

    def stats(self) -> dict:
        learned = self._layer.occupancy()
        art = len(self._art)
        stats = {
            "epsilon": self.epsilon,
            "model_count": self._layer.model_count,
            "learned_keys": learned,
            "art_keys": art,
            "learned_fraction": learned / max(learned + art, 1),
            "total_slots": self._layer.total_slots(),
            "conflict_inserts": self.conflict_inserts,
            "writebacks": self.writebacks,
            "expansions": self.expansions,
            "recoveries": self.recoveries,
            "memory_bytes": self.memory_bytes(),
        }
        if self._fastptr is not None:
            stats["fast_pointers"] = self._fastptr.stats()
        # Health snapshot (drift, occupancy, spill, backlog): sampled
        # here so --emit-metrics documents carry it without a separate
        # flag; publishes the health.* gauges when a registry is active.
        stats["health"] = obs_health.sample_health(self)
        reg = obs_metrics.active_registry()
        if reg is not None:
            reg.set_gauge("alt.model_count", stats["model_count"])
            reg.set_gauge("alt.learned_fraction", stats["learned_fraction"])
            reg.set_gauge("alt.memory_bytes", stats["memory_bytes"])
            reg.set_gauge("alt.art_keys", stats["art_keys"])
        return stats
