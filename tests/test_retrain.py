"""Tests for dynamic retraining (§III-F expansion buffers)."""

import numpy as np
import pytest

from repro.core.learned_layer import EMPTY, FULL, TOMBSTONE, GPLModel, LearnedLayer
from repro.core.retrain import (
    ExpansionBuffer,
    finish_expansion,
    maybe_start_expansion,
)
from repro.sim.trace import MemoryMap


@pytest.fixture
def mem():
    return MemoryMap()


def make_model(mem, n_keys=32):
    keys = np.arange(0, n_keys * 4, 4, dtype=np.uint64)
    m = GPLModel(0, 0.5, n_keys * 2, mem, "t")
    m.place_bulk(keys, keys)
    return m, keys


class TestExpansionBuffer:
    def test_buffer_geometry_doubles(self, mem):
        m, _ = make_model(mem)
        exp = ExpansionBuffer(m, mem, "t")
        assert exp.buffer.n_slots == m.n_slots * 2
        assert exp.buffer.slope_eff == pytest.approx(m.slope_eff * 2)
        assert exp.buffer.first_key == m.first_key

    def test_absorb_new_key_goes_to_buffer(self, mem):
        m, _ = make_model(mem)
        exp = ExpansionBuffer(m, mem, "t")
        spilled = []
        assert exp.absorb(1, 1, lambda k, v: spilled.append((k, v)) or True)
        found, val = exp.lookup(1)
        assert found and val == 1
        assert exp.inserted == 1

    def test_absorb_evicts_old_occupant(self, mem):
        m, keys = make_model(mem)
        exp = ExpansionBuffer(m, mem, "t")
        victim = int(keys[4])
        slot = m.slot_of(victim)
        assert m.read_slot(slot)[0] == FULL
        # a new key predicted to the same old slot evicts the occupant
        colliding = victim + 1
        assert m.slot_of(colliding) == slot
        exp.absorb(colliding, colliding, lambda k, v: True)
        assert m.read_slot(slot)[0] == TOMBSTONE
        assert exp.lookup(victim) == (True, victim)
        assert exp.lookup(colliding) == (True, colliding)

    def test_absorb_update_in_place(self, mem):
        m, keys = make_model(mem)
        exp = ExpansionBuffer(m, mem, "t")
        k = int(keys[3])
        assert not exp.absorb(k, "new", lambda a, b: True)
        slot = m.slot_of(k)
        assert m.read_slot(slot) == (FULL, k, "new")

    def test_buffer_collision_spills(self, mem):
        m, _ = make_model(mem, n_keys=4)
        exp = ExpansionBuffer(m, mem, "t")
        spilled = []

        def spill(k, v):
            spilled.append(k)
            return True

        # Fill one buffer slot then force a second key into it.
        b = exp.buffer
        k1 = 1
        s1 = b.slot_of(k1)
        exp.absorb(k1, k1, spill)
        # find another key mapping to the same buffer slot but a
        # different old-model slot state
        k2 = None
        for cand in range(2, 400):
            if b.slot_of(cand) == s1 and cand != k1:
                k2 = cand
                break
        if k2 is not None:
            exp.absorb(k2, k2, spill)
            assert spilled and spilled[0] == k2

    def test_is_complete_threshold(self, mem):
        m, _ = make_model(mem, n_keys=4)
        exp = ExpansionBuffer(m, mem, "t")
        for i in range(m.build_size):
            exp.absorb(1000 + i * 16, i, lambda k, v: True)
        assert exp.is_complete()

    def test_finish_migrates_remaining(self, mem):
        m, keys = make_model(mem)
        exp = ExpansionBuffer(m, mem, "t")
        exp.absorb(2, 2, lambda k, v: True)
        new_model = exp.finish(lambda k, v: True)
        resident = {k for k, _ in new_model.iter_slots()}
        for k in keys:
            assert int(k) in resident or exp.buffer is not new_model
        assert 2 in resident
        assert new_model.insert_count == 0
        assert new_model.build_size == new_model.occupancy()

    def test_update_and_remove_in_buffer(self, mem):
        m, _ = make_model(mem)
        exp = ExpansionBuffer(m, mem, "t")
        exp.absorb(7, 7, lambda k, v: True)
        assert exp.update(7, "x")
        assert exp.lookup(7) == (True, "x")
        assert exp.remove(7)
        assert exp.lookup(7) == (False, None)
        assert not exp.remove(7)


class TestTriggering:
    def test_not_started_below_threshold(self, mem):
        m, _ = make_model(mem)
        m.insert_count = m.build_size  # equal: not strictly above
        assert maybe_start_expansion(m, mem, "t") is None

    def test_started_above_threshold(self, mem):
        m, _ = make_model(mem)
        m.insert_count = m.build_size + 1
        exp = maybe_start_expansion(m, mem, "t")
        assert exp is not None
        assert m.expansion is exp
        # idempotent
        assert maybe_start_expansion(m, mem, "t") is exp


class TestFinishExpansion:
    def test_layer_swap(self, mem):
        keys = np.arange(0, 4000, 4, dtype=np.uint64)
        layer, _, _ = LearnedLayer.bulk_build(keys, keys, 32, mem, "t")
        m = layer.models[0]
        m.fast_index = 3
        m.insert_count = m.build_size + 1
        exp = maybe_start_expansion(m, mem, "t")
        exp.absorb(1, 1, lambda k, v: True)
        new_model = finish_expansion(layer, 0, lambda k, v: True)
        assert layer.models[0] is new_model
        assert new_model.fast_index == 3
        assert new_model.expansion is None
        # old resident keys survive the swap
        resident = {k for k, _ in new_model.iter_slots()}
        assert 1 in resident


class TestUpsertsDoNotTrigger:
    """Rewriting keys that already live in the ART inserts nothing, so it
    must not count toward a model's expansion trigger: before, ten
    rounds of upserting the 288 ART keys of a 4,000-key osm load started
    60 expansions and grew the layer to 41,954,654 slots."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_rewriting_art_keys_never_expands(self, batch):
        from repro import ALTIndex
        from repro.datasets.generators import dataset

        load = dataset("osm", 8000, seed=0)[::2]
        idx = ALTIndex.bulk_load(load, [0] * len(load), memory=MemoryMap())
        art = np.array([k for k, _ in idx.art.items()], dtype=np.uint64)
        slots = idx.layer.total_slots()
        for version in range(1, 11):
            if batch:
                assert not idx.batch_insert(art, [version] * len(art)).any()
            else:
                assert not any(idx.insert(int(k), version) for k in art)
        assert idx.expansions == 0 and idx.layer.total_slots() == slots
        assert len(idx) == len(load)
        assert idx.batch_get(art) == [10] * len(art)
