"""Crash recovery: writers dying mid-latch, detection, repatriation.

Satellite (c) of ISSUE 2: kill a writer between ``write_begin`` and
``write_end`` under the chaos scheduler, verify readers detect the stuck
odd version (bounded timeout, not a hang), and verify the slot is
recoverable — at the model level and through the full ALTIndex lookup
path (salvage → ART repatriation → write-back migration home).
"""

import threading
import time

import numpy as np
import pytest

from repro.chaos import ChaosScheduler
from repro.concurrency.retry import BoundedRetry, StuckWriterError
from repro.concurrency.version_lock import SlotVersionArray
from repro.core.alt_index import ALTIndex
from repro.core.learned_layer import FULL, TOMBSTONE, GPLModel
from repro.sim.trace import MemoryMap

FAST = BoundedRetry(
    spin_budget=2, max_retries=24, fallback_after=4,
    backoff_base_s=1e-9, backoff_max_s=1e-8,
)


def _model(n_slots: int = 8) -> GPLModel:
    m = GPLModel(
        first_key=0, slope_eff=1.0, n_slots=n_slots,
        memory=MemoryMap(), tag="test/crash",
    )
    m.versions = SlotVersionArray(n_slots, retry=FAST)  # fast timeouts
    return m


def _crash_writer(model: GPLModel, slot: int, point: str, seed: int = 3) -> ChaosScheduler:
    sched = ChaosScheduler(seed=seed)
    sched.spawn("writer", lambda: model.write_slot(slot, slot, "doomed"))
    sched.crash_at(point, task="writer")
    sched.run()
    assert sched.crashed_tasks() == ["writer"]
    return sched


class TestStuckWriterDetection:
    def test_crash_after_latch_leaves_slot_odd(self):
        model = _model()
        _crash_writer(model, 3, "slot.write_latched")
        assert model.versions.odd_slots() == [3]

    def test_reader_times_out_instead_of_hanging(self):
        model = _model()
        _crash_writer(model, 3, "slot.write_latched")
        with pytest.raises(StuckWriterError) as ei:
            model.read_slot(3)
        assert ei.value.slot == 3

    def test_crash_mid_fields_can_tear(self):
        """Dying between the key and value field writes leaves a torn
        pair behind the latch — exactly why recovery must tombstone."""
        model = _model()
        model.write_slot(4, 4, "old")
        _crash_writer(model, 4, "gpl.slot_fields")
        assert model.versions.odd_slots() == [4]
        # Torn: new key visible, stale value still in place.
        assert model.keys[4] == 4
        assert model.values[4] == "old"


class TestModelRecovery:
    def test_recover_empty_slot_salvages_nothing(self):
        # The writer died mid-write to a never-published slot: the op
        # never linearized, so recovery drops it (crashed ops may have
        # no effect) and just clears the latch.
        model = _model()
        _crash_writer(model, 3, "gpl.slot_fields")
        assert model.recover_slot(3) is None
        assert model.versions.odd_slots() == []
        state, key, value = model.read_slot(3)  # readable again
        assert state == TOMBSTONE

    def test_recover_occupied_slot_salvages_torn_pair(self):
        model = _model()
        model.write_slot(4, 4, "old")
        _crash_writer(model, 4, "gpl.slot_fields")
        pair = model.recover_slot(4)
        assert pair == (4, "old")  # torn: new key, stale value
        assert model.versions.odd_slots() == []
        assert model.read_slot(4)[0] == TOMBSTONE

    def test_recover_slot_noop_when_not_stuck(self):
        model = _model()
        model.write_slot(2, 2, "v")
        assert model.recover_slot(2) is None
        assert model.read_slot(2) == (FULL, 2, "v")

    def test_recovered_slot_is_rewritable(self):
        model = _model()
        _crash_writer(model, 5, "slot.write_latched")
        model.recover_slot(5)
        model.write_slot(5, 5, "fresh")
        assert model.read_slot(5) == (FULL, 5, "fresh")


class TestIndexRecovery:
    @pytest.fixture
    def index(self):
        keys = np.arange(0, 4000, 8, dtype=np.uint64)
        idx = ALTIndex.bulk_load(keys, memory=MemoryMap())
        # Fast stuck-writer timeouts for every model.
        for m in idx._layer.models:
            m.versions = SlotVersionArray(m.n_slots, retry=FAST)
        return idx

    def _wedge(self, idx: ALTIndex, key: int) -> tuple:
        """Simulate a writer that died holding ``key``'s slot latch."""
        i, model = idx._route(key)
        slot = model.slot_of(key)
        assert model.read_slot(slot)[0] == FULL
        model.versions.write_begin(slot)  # latch... and "die"
        return model, slot

    def test_get_recovers_and_still_answers(self, index):
        key = 1600
        model, slot = self._wedge(index, key)
        assert index.get(key) == key  # detect, recover, repatriate, answer
        assert index.recoveries == 1
        assert model.versions.odd_slots() == []

    def test_get_recovers_only_under_the_writer_lock(self, index):
        """The recovery tombstone is a slot write, so a reader takes the
        model's writer lock first — the lock the arena fold holds while
        it copies the slot arrays."""
        key = 2000
        model, slot = self._wedge(index, key)
        answers = []
        with model.writer_lock:
            reader = threading.Thread(target=lambda: answers.append(index.get(key)))
            reader.start()
            time.sleep(0.2)  # ample time to time out on the latch
            assert reader.is_alive()
            assert model.versions.odd_slots() == [slot]
            assert index.recoveries == 0
        reader.join(10)
        assert not reader.is_alive()
        assert answers == [key]
        assert model.versions.odd_slots() == []
        assert index.recoveries == 1

    def test_salvaged_pair_repatriated_to_art(self, index):
        key = 2400
        model, slot = self._wedge(index, key)
        index.get(key)
        # After recovery the key lives on — either already written back
        # into its (tombstoned then refilled) home slot or in the ART.
        state, resident, value = model.read_slot(slot)
        in_home = state == FULL and resident == key and value == key
        assert in_home or index._art.search(key) == key

    def test_writeback_migrates_key_home_again(self, index):
        key = 3200
        model, slot = self._wedge(index, key)
        index.get(key)
        index.get(key)  # second lookup completes the write-back migration
        assert model.read_slot(slot) == (FULL, key, key)
        assert index._art.search(key) is None
        assert index.get(key) == key

    def test_recoveries_visible_in_stats(self, index):
        key = 800
        self._wedge(index, key)
        index.get(key)
        assert index.stats()["recoveries"] == 1
