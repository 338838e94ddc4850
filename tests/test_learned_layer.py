"""Tests for GPL models and the flattened learned layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import as_value_array
from repro.core.learned_layer import (
    EMPTY,
    FULL,
    TOMBSTONE,
    GPLModel,
    LearnedLayer,
    model_bytes,
)
from repro.sim.trace import CostTrace, MemoryMap, tracer


@pytest.fixture
def mem():
    return MemoryMap()


def build_layer(keys, eps=None, mem=None):
    keys = np.asarray(keys, dtype=np.uint64)
    eps = eps or max(len(keys) // 100, 8)
    layer, ckeys, _ = LearnedLayer.bulk_build(keys, keys, eps, mem or MemoryMap(), "t")
    return layer, ckeys.tolist()


class TestGPLModel:
    def test_slot_of_monotone_and_clamped(self, mem):
        m = GPLModel(100, 0.5, 10, mem, "t")
        slots = [m.slot_of(100 + d) for d in range(0, 40, 2)]
        assert slots == sorted(slots)
        assert m.slot_of(50) == 0  # below first key clamps to 0
        assert m.slot_of(10**9) == 9  # beyond range clamps to last

    def test_slot_states(self, mem):
        m = GPLModel(0, 1.0, 8, mem, "t")
        assert m.read_slot(3) == (EMPTY, None, None)
        m.write_slot(3, 3, "v")
        assert m.read_slot(3) == (FULL, 3, "v")
        m.clear_slot(3)
        assert m.read_slot(3) == (TOMBSTONE, None, None)

    def test_write_over_tombstone(self, mem):
        m = GPLModel(0, 1.0, 4, mem, "t")
        m.write_slot(1, 1, "a")
        m.clear_slot(1)
        m.write_slot(1, 1, "b")
        assert m.read_slot(1) == (FULL, 1, "b")

    def test_place_bulk_conflicts_are_collisions(self, mem):
        keys = np.array([0, 1, 2, 3, 100], dtype=np.uint64)
        # slope 0.5 -> keys 0/1 collide at slot 0, 2/3 at slot 1
        m = GPLModel(0, 0.5, 60, mem, "t")
        ckeys, cvals = m.place_bulk(keys, keys)
        assert ckeys.tolist() == cvals.tolist() == [1, 3]
        assert m.build_size == 3
        assert m.read_slot(0)[1] == 0
        assert m.read_slot(1)[1] == 2

    def test_place_bulk_agrees_with_slot_of(self, mem):
        """Placement and lookup arithmetic must agree, including for
        keys above 2^53 where float64 rounding bites."""
        base = np.uint64(2**61)
        keys = base + np.arange(0, 5000, 7, dtype=np.uint64)
        m = GPLModel(int(keys[0]), 0.31, 2000, mem, "t")
        m.place_bulk(keys, keys)
        for k in keys[::13]:
            s = m.slot_of(int(k))
            state, resident, _ = m.read_slot(s)
            if state == FULL and resident == int(k):
                continue
            # collided keys are allowed to be absent, but a present key
            # must always be found at its predicted slot
            assert int(m.np_keys[s]) != int(k), "key placed at wrong slot"

    def test_occupancy_counts_live_keys_only(self, mem):
        m = GPLModel(0, 1.0, 10, mem, "t")
        m.write_slot(0, 0, "a")
        m.write_slot(5, 5, "b")
        m.clear_slot(5)
        assert m.occupancy() == 1

    def test_occupancy_from_mirror_matches_lists(self, mem):
        """occupancy() counts FULL arena states; it must equal the slots
        read_slot calls FULL, each holding its key in the key arena and
        every other slot key 0, through writes, clears, tombstones,
        refills and stuck-writer recovery."""
        m = GPLModel(0, 1.0, 32, mem, "t")

        def listed():
            reads = [m.read_slot(s) for s in range(32)]
            assert m.np_keys.tolist() == [k if st == FULL else 0 for st, k, _ in reads]
            return sum(1 for st, _, _ in reads if st == FULL)

        rng = np.random.default_rng(7)
        for step in range(200):
            s = int(rng.integers(32))
            op = step % 4
            if op in (0, 1):
                m.write_slot(s, s, step)
            elif op == 2:
                m.clear_slot(s)
            else:
                m.versions.write_begin(s)  # a writer dies holding the latch
                m.recover_slot(s)
            assert m.occupancy() == listed()
        assert 0 < m.occupancy() < 32

    def test_iter_slots_sorted(self, mem):
        m = GPLModel(0, 1.0, 100, mem, "t")
        for k in (5, 50, 20):
            m.write_slot(m.slot_of(k), k, k)
        assert [k for k, _ in m.iter_slots()] == [5, 20, 50]

    def test_model_bytes_formula(self):
        assert model_bytes(0) == 64
        assert model_bytes(8) == 64 + 128 + 1  # versions live in slots

    def test_read_traces_lines(self, mem):
        m = GPLModel(0, 1.0, 64, mem, "t")
        with tracer() as t:
            m.read_slot(10)
        assert t.model_calcs == 1
        assert len(t.reads) == 2  # bitmap line + slot line


def per_key_placement(model, keys: np.ndarray, values) -> list:
    """The per-key placement loop bulk loading ran before it became array
    ops, kept as the reference: the first key of each run of keys
    predicted onto one slot takes it, the rest are returned as pairs."""
    if len(keys) == 0:
        return []
    rel = (keys - np.uint64(model.first_key)).astype(np.float64)
    slots = (model.slope_eff * rel).astype(np.int64)
    np.clip(slots, 0, model.n_slots - 1, out=slots)
    win = np.ones(len(keys), dtype=bool)
    win[1:] = slots[1:] != slots[:-1]
    conflicts = []
    for i in range(len(keys)):
        k = int(keys[i])
        if win[i]:
            s = int(slots[i])
            model.np_keys[s] = k
            model.values[s] = values[i]
            model.np_state[s] = FULL
        else:
            conflicts.append((k, values[i]))
    model.build_size = int(win.sum())
    return conflicts


def same_value(a, b) -> bool:
    """The same object, or equal NumPy scalars of one type (a numeric
    value array hands out a new scalar per element read)."""
    return a is b or (type(a) is type(b) and isinstance(a, np.generic) and a == b)


@st.composite
def placement_inputs(draw):
    """Sorted keys in clusters of dense runs (which share slots) and
    sparse strays, from a base that may lie above 2^53; values as none,
    a list, or an object array of tuples; and an ε."""
    high = draw(st.sampled_from([0, 2**53, 2**63]))
    keys = set()
    for _ in range(draw(st.integers(1, 5))):
        base = high + draw(st.integers(0, 2**52))
        if draw(st.booleans()):
            keys.update(base + i for i in range(draw(st.integers(1, 40))))
        else:
            keys.update(base + o for o in draw(st.lists(st.integers(0, 2**20), max_size=40)))
    keys = np.array(sorted(keys), dtype=np.uint64)
    kind = draw(st.sampled_from(["none", "list", "tuples"]))
    if kind == "none":
        values = None
    elif kind == "list":
        values = [f"v{i}" for i in range(len(keys))]
    else:
        values = np.empty(len(keys), dtype=object)
        for i, k in enumerate(keys.tolist()):
            values[i] = (k, i)
    return keys, values, draw(st.sampled_from([1.0, 2.0, 8.0, 64.0]))


class TestPlacementParity:
    """Array placement against the per-key loop: same slots, keys, build
    sizes and conflict order, and the same value objects."""

    @staticmethod
    def _assert_same_model(m, ref):
        assert np.array_equal(m.np_keys, ref.np_keys)
        assert np.array_equal(m.np_state, ref.np_state)
        full = np.flatnonzero(m.np_state == FULL).tolist()
        assert all(type(m.read_slot(s)[1]) is int for s in full)
        assert all(same_value(a, b) for a, b in zip(m.values, ref.values))
        assert m.build_size == ref.build_size

    @staticmethod
    def _assert_same_conflicts(ckeys, cvals, ref):
        assert ckeys.dtype == np.uint64 and cvals.dtype == object
        assert ckeys.tolist() == [k for k, _ in ref]
        assert all(same_value(a, b) for a, (_, b) in zip(cvals, ref))

    @settings(max_examples=120, deadline=None)
    @given(placement_inputs())
    def test_bulk_build_matches_the_per_key_loop(self, case):
        keys, values, eps = case
        values = as_value_array(keys, values)
        layer, ckeys, cvals = LearnedLayer.bulk_build(keys, values, eps, MemoryMap(), "t")
        firsts = np.array([m.first_key for m in layer.models], dtype=np.uint64)
        bounds = np.searchsorted(keys, firsts).tolist() + [len(keys)]
        ref_conflicts = []
        for m, lo, hi in zip(layer.models, bounds, bounds[1:]):
            ref = GPLModel(m.first_key, m.slope_eff, m.n_slots, MemoryMap(), "r")
            ref_conflicts += per_key_placement(ref, keys[lo:hi], values[lo:hi])
            self._assert_same_model(m, ref)
        self._assert_same_conflicts(ckeys, cvals, ref_conflicts)
        # place_bulk is the same routine for one model.
        first, n_slots = int(keys[0]) if len(keys) else 0, max(len(keys) // 2, 2)
        one = GPLModel(first, 0.37, n_slots, MemoryMap(), "o")
        ref = GPLModel(first, 0.37, n_slots, MemoryMap(), "r")
        self._assert_same_conflicts(
            *one.place_bulk(keys, values), per_key_placement(ref, keys, values)
        )
        self._assert_same_model(one, ref)

    def test_one_key_segments(self):
        keys = np.array([0, 1, 2**40, 2**41, 3 * 2**41 + 7], dtype=np.uint64)
        layer, ckeys, _ = LearnedLayer.bulk_build(keys, keys, 0.5, MemoryMap(), "t")
        assert [m.n_slots for m in layer.models].count(2) >= 1  # a one-key model
        assert ckeys.tolist() == [] and layer.occupancy() == len(keys)


class TestLearnedLayerBuild:
    def test_empty(self):
        layer, conflicts = build_layer([])
        assert layer.model_count == 0
        assert conflicts == []

    def test_all_keys_resident_or_conflict(self, sorted_keys):
        layer, conflicts = build_layer(sorted_keys)
        assert layer.occupancy() + len(conflicts) == len(sorted_keys)

    def test_conflicts_not_resident(self, sorted_keys):
        layer, conflicts = build_layer(sorted_keys)
        resident = {k for k, _ in layer.items(0, 2**64 - 1)}
        for k in conflicts:
            assert k not in resident

    def test_models_sorted_by_first_key(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        firsts = [m.first_key for m in layer.models]
        assert firsts == sorted(firsts)

    def test_linear_data_single_model(self):
        keys = np.arange(0, 50_000, 5, dtype=np.uint64)
        layer, conflicts = build_layer(keys, eps=64)
        assert layer.model_count == 1
        assert conflicts == []  # gapped linear placement is collision-free

    def test_bigger_epsilon_fewer_models_more_conflicts(self, sorted_keys):
        small, c_small = build_layer(sorted_keys, eps=16)
        big, c_big = build_layer(sorted_keys, eps=512)
        assert big.model_count <= small.model_count
        assert len(c_big) >= len(c_small)  # Eq. (3): conflicts grow with eps


class TestRouting:
    def test_route_matches_bisect(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        firsts = [m.first_key for m in layer.models]
        import bisect

        for k in sorted_keys[::37]:
            i, m = layer.route(int(k))
            expect = max(bisect.bisect_right(firsts, int(k)) - 1, 0)
            assert i == expect

    def test_route_below_first_key(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        i, m = layer.route(0)
        assert i == 0

    def test_route_empty_layer_raises(self):
        layer, _ = build_layer([])
        with pytest.raises(LookupError):
            layer.route(1)

    def test_route_traced_matches_untraced(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        for k in sorted_keys[::101]:
            plain = layer.route(int(k))
            with tracer():
                traced = layer.route(int(k))
            assert plain[0] == traced[0]

    def test_route_trace_records_probes(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        with tracer() as t:
            layer.route(int(sorted_keys[500]))
        assert t.comparisons >= 1
        assert len(t.reads) == t.comparisons


class TestRouteMirror:
    """The untraced ``route`` bisects a Python-list mirror of the model
    first keys.  It must pick the same model as the traced walk and as
    ``np.searchsorted`` over the first keys, through every structural
    change: bulk build, overflow append (empty-index bootstrap included)
    and an expansion's ``replace_model``."""

    @staticmethod
    def _assert_routes_agree(layer):
        fks = [m.first_key for m in layer.models]
        probes = {0, 2**64 - 1, min(fks[-1] + 1, 2**64 - 1), *fks, *(f - 1 for f in fks if f)}
        arr = np.array(fks, dtype=np.uint64)
        for k in sorted(probes):
            ref = max(int(np.searchsorted(arr, np.uint64(k), side="right")) - 1, 0)
            plain = layer.route(k)
            with tracer():
                traced = layer.route(k)
            assert plain[0] == traced[0] == ref, k
            assert plain[1] is traced[1] is layer.models[ref]

    def test_bulk_built_layer(self, sorted_keys):
        layer, _ = build_layer(sorted_keys + np.uint64(1000))
        assert layer.models[0].first_key > 1  # a key below model 0 exists
        self._assert_routes_agree(layer)

    def test_after_overflow_append(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        layer.append_overflow_model(int(sorted_keys[-1]) + 1000, 1.0, 16)
        self._assert_routes_agree(layer)
        layer.append_overflow_model(2**64 - 1, 1.0, 16)
        self._assert_routes_agree(layer)

    def test_empty_layer_bootstrap(self):
        layer, _ = build_layer([])
        layer.append_overflow_model(1 << 40, 1.0, 64)
        self._assert_routes_agree(layer)
        layer.append_overflow_model((1 << 40) + 5000, 1.0, 64)
        self._assert_routes_agree(layer)

    def test_after_replace_model(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        for i in (0, len(layer.models) // 2, len(layer.models) - 1):
            old = layer.models[i]
            layer.replace_model(i, GPLModel(old.first_key, old.slope_eff, 2 * old.n_slots, MemoryMap(), "t"))
            self._assert_routes_agree(layer)

    def test_after_expansions_of_a_bootstrapped_index(self, rng):
        from repro.core.alt_index import ALTIndex

        idx = ALTIndex(epsilon=16, memory=MemoryMap())
        k0 = 1 << 40
        for k in (k0 + rng.choice(64, 40, replace=False)).tolist():
            idx.insert(k, k)
            self._assert_routes_agree(idx._layer)
        assert idx._layer._version > 1, "no expansion replaced the overflow model"

    def test_after_expansions_of_a_bulk_loaded_index(self, small_keys):
        from repro.core.alt_index import ALTIndex

        idx = ALTIndex.bulk_load(small_keys, memory=MemoryMap())
        version = idx._layer._version
        for d in (1, 2):  # off-by-one neighbours: the normal absorb path
            for k in small_keys[1:].tolist():
                idx.insert(k + d, k)
        assert idx._layer._version > version, "no expansion finished"
        self._assert_routes_agree(idx._layer)


class TestLayerItems:
    def test_items_full_range_sorted(self, sorted_keys):
        layer, conflicts = build_layer(sorted_keys)
        got = [k for k, _ in layer.items(0, 2**64 - 1)]
        assert got == sorted(got)
        assert len(got) == layer.occupancy()

    def test_items_subrange(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        lo, hi = int(sorted_keys[100]), int(sorted_keys[200])
        got = [k for k, _ in layer.items(lo, hi)]
        assert all(lo <= k <= hi for k in got)
        full = [k for k, _ in layer.items(0, 2**64 - 1) if lo <= k <= hi]
        assert got == full


class TestOverflowAndReplace:
    def test_append_overflow_model(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        last = layer.models[-1]
        m = layer.append_overflow_model(int(sorted_keys[-1]) + 1000, 1.0, 16)
        assert layer.models[-1] is m
        i, routed = layer.route(int(sorted_keys[-1]) + 2000)
        assert routed is m

    def test_append_out_of_order_rejected(self, sorted_keys):
        from repro.core.errors import KeysNotSortedError

        layer, _ = build_layer(sorted_keys)
        with pytest.raises(KeysNotSortedError):
            layer.append_overflow_model(0, 1.0, 16)

    def test_replace_model_keeps_fast_index(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        old = layer.models[0]
        old.fast_index = 7
        new = GPLModel(old.first_key, old.slope_eff, old.n_slots, MemoryMap(), "t")
        layer.replace_model(0, new)
        assert layer.models[0] is new
        assert new.fast_index == 7


def reference_probe(layer, key):
    """What ``LearnedLayer.probe`` inlines: route, slot_of, read_slot."""
    i, model = layer.route(key)
    slot = model.slot_of(key)
    return (i, model, slot, *model.read_slot(slot))


class TestProbe:
    """``LearnedLayer.probe`` inlines Algorithm 2 lines 2-4 for untraced
    reads; it must answer exactly as ``route`` + ``slot_of`` +
    ``read_slot`` do, and traced it must record their touches."""

    @staticmethod
    def _assert_matches_reference(layer, probes) -> set:
        states = set()
        for k in probes:
            got = layer.probe(k)
            ref = reference_probe(layer, k)
            assert got[:4] == ref[:4], k
            assert got[4] == ref[4] and same_value(got[5], ref[5]), k
            t_ref, t_got = CostTrace(), CostTrace()
            with tracer(t_ref):
                reference_probe(layer, k)
            with tracer(t_got):
                assert layer.probe(k)[:5] == ref[:5]
            assert t_got.scalars() == t_ref.scalars() and t_got.reads == t_ref.reads
            states.add(got[3])
        return states

    @staticmethod
    def _probes(keys) -> list[int]:
        """Each key and its neighbours (which mostly predict free slots)."""
        ks = np.asarray(keys, dtype=np.uint64).tolist()
        return sorted({k + d for k in ks for d in (-1, 0, 1) if 0 <= k + d < 2**64})

    def test_full_empty_and_tombstone_slots(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        for k in sorted_keys[::50].tolist():
            _, model, slot, state, resident, _ = layer.probe(k)
            if state == FULL and resident == k:
                model.clear_slot(slot)
        states = self._assert_matches_reference(layer, self._probes(sorted_keys[::7]))
        assert states == {EMPTY, FULL, TOMBSTONE}

    def test_keys_below_model_zero_and_clamped_to_a_last_slot(self, sorted_keys):
        layer, _ = build_layer(sorted_keys + np.uint64(1000))
        fks = [m.first_key for m in layer.models]
        probes = [0, 1, 999, fks[0] - 1, *(f - 1 for f in fks[1:]), fks[-1] + 2**40, 2**64 - 1]
        self._assert_matches_reference(layer, probes)
        assert layer.probe(0)[:3] == (0, layer.models[0], 0)
        last = layer.models[-1]
        assert layer.probe(2**64 - 1)[1:3] == (last, last.n_slots - 1)

    def test_key_zero_in_slot_zero(self, sorted_keys):
        keys = np.concatenate([np.zeros(1, dtype=np.uint64), sorted_keys])
        layer, _ = build_layer(keys)
        _, model, slot, state, resident, value = layer.probe(0)
        assert (slot, state, resident, value) == (0, FULL, 0, 0)
        self._assert_matches_reference(layer, [0, 1, 2])
        model.clear_slot(0)
        assert layer.probe(0)[3:] == (TOMBSTONE, None, None)
        self._assert_matches_reference(layer, [0, 1, 2])

    def test_model_under_expansion(self, small_keys):
        from repro.core.alt_index import ALTIndex

        idx = ALTIndex.bulk_load(small_keys, memory=MemoryMap())
        for k in small_keys[1:].tolist():
            idx.insert(k + 1, k)  # off-by-one neighbours start an expansion
            if any(m.expansion is not None for m in idx.layer.models):
                break
        i = next(i for i, m in enumerate(idx.layer.models) if m.expansion is not None)
        model = idx.layer.models[i]
        hi = idx.layer.next_first_key(i) or 2**64 - 1
        inside = [k for k in small_keys.tolist() if model.first_key <= k < hi]
        states = self._assert_matches_reference(idx.layer, self._probes(inside))
        assert TOMBSTONE in states  # the expansion's evictions

    def test_waits_out_a_parked_writer(self, sorted_keys, monkeypatch):
        """A writer parked at ``gpl.slot_fields`` holds the slot's version
        odd with the key written and the value stale: the probe waits it
        out and returns the written pair, never the torn one."""
        import threading

        from repro import chaos

        layer, _ = build_layer(sorted_keys)
        key = int(sorted_keys[1234])
        _, model, slot, state, resident, old = layer.probe(key)
        assert (state, resident) == (FULL, key)
        parked, release = threading.Event(), threading.Event()

        def point(name):
            if name == "gpl.slot_fields" and threading.current_thread().name == "writer":
                parked.set()
                release.wait(timeout=5)

        monkeypatch.setattr(chaos, "point", point)
        writer = threading.Thread(
            target=model.write_slot, args=(slot, key, "new"), name="writer"
        )
        writer.start()
        assert parked.wait(timeout=5)
        assert model.versions.odd_slots() == [slot]
        got = []
        reader = threading.Thread(target=lambda: got.append(layer.probe(key)))
        reader.start()
        reader.join(timeout=0.05)
        assert reader.is_alive()  # waiting on the odd version
        release.set()
        writer.join(timeout=5)
        reader.join(timeout=5)
        assert not writer.is_alive() and not reader.is_alive()
        assert got[0][1:] == (model, slot, FULL, key, "new")

    def test_rereads_a_slot_written_under_the_read(self, sorted_keys, monkeypatch):
        """A write that completes between the probe's version read and
        its validation sends it on to ``read_slot``, which counts one
        retry and returns the new pair."""
        from repro import chaos
        from repro.obs.metrics import metrics_registry

        layer, _ = build_layer(sorted_keys)
        key = int(sorted_keys[4321])
        _, model, slot, *_ = layer.probe(key)
        fired = []

        def point(name):
            fired.append(name)
            if name == "gpl.read_fields" and fired.count(name) == 1:
                model.write_slot(slot, key, "new")

        monkeypatch.setattr(chaos, "point", point)
        with metrics_registry() as reg:
            got = layer.probe(key)
        assert got[3:] == (FULL, key, "new")
        assert fired.count("gpl.read_fields") == 2
        assert "gpl.read_slot.retry" in fired
        assert reg.snapshot()["counters"]["retry.attempts"] == 1
