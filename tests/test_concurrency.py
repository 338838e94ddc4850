"""Tests for the concurrency primitives (real threads, real protocols)."""

import threading

import pytest

from repro.concurrency.epoch import EpochManager
from repro.concurrency.spinlock import SpinLock
from repro.concurrency.version_lock import (
    OptimisticLock,
    RestartException,
    SlotVersionArray,
)
from repro.sim.trace import CostTrace, tracer


class TestSlotVersion:
    """The seqlock protocol of one slot of a :class:`SlotVersionArray`."""

    def test_initial_readable(self):
        v = SlotVersionArray(1)
        assert v.read_begin(0) == 0
        assert v.read_validate(0, 0)

    def test_write_cycle_bumps_twice(self):
        v = SlotVersionArray(1)
        v.write_begin(0)
        assert v.odd_slots() == [0]
        v.write_end(0)
        assert v.odd_slots() == []
        assert v.read_begin(0) == 2

    def test_read_validation_fails_after_write(self):
        v = SlotVersionArray(1)
        snap = v.read_begin(0)
        v.write_begin(0)
        v.write_end(0)
        assert not v.read_validate(0, snap)

    def test_write_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            SlotVersionArray(1).write_end(0)

    def test_concurrent_writers_serialize(self):
        v = SlotVersionArray(1)
        counter = [0]

        def writer():
            for _ in range(500):
                v.write_begin(0)
                counter[0] += 1
                v.write_end(0)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter[0] == 4000
        assert v.read_begin(0) == 8000  # two bumps per write


class TestSlotVersionArray:
    def test_independent_slots(self):
        arr = SlotVersionArray(4)
        arr.write_begin(1)
        assert arr.read_begin(0) == 0  # other slots unaffected
        arr.write_end(1)
        assert arr.read_begin(1) == 2

    def test_validate(self):
        arr = SlotVersionArray(2)
        snap = arr.read_begin(0)
        assert arr.read_validate(0, snap)
        arr.write_begin(0)
        arr.write_end(0)
        assert not arr.read_validate(0, snap)

    def test_write_end_idle_raises(self):
        with pytest.raises(RuntimeError):
            SlotVersionArray(2).write_end(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SlotVersionArray(-1)

    def test_traces_atomic_rmw(self):
        arr = SlotVersionArray(2)
        with tracer() as t:
            arr.write_begin(0)
            arr.write_end(0)
        assert t.atomic_rmw == 1


class TestOptimisticLock:
    def test_read_cycle(self):
        lock = OptimisticLock()
        v = lock.read_lock_or_restart()
        lock.read_unlock_or_restart(v)  # no intervening write: OK

    def test_read_restarts_after_write(self):
        lock = OptimisticLock()
        v = lock.read_lock_or_restart()
        lock.write_lock_or_restart()
        lock.write_unlock()
        with pytest.raises(RestartException):
            lock.read_unlock_or_restart(v)

    def test_read_restarts_while_locked(self):
        lock = OptimisticLock()
        lock.write_lock_or_restart()
        with pytest.raises(RestartException):
            lock.read_lock_or_restart()
        lock.write_unlock()

    def test_upgrade_fails_on_stale_version(self):
        lock = OptimisticLock()
        v = lock.read_lock_or_restart()
        lock.write_lock_or_restart()
        lock.write_unlock()
        with pytest.raises(RestartException):
            lock.upgrade_to_write_lock_or_restart(v)

    def test_obsolete_blocks_readers(self):
        lock = OptimisticLock()
        lock.write_lock_or_restart()
        lock.write_unlock_obsolete()
        assert lock.is_obsolete
        with pytest.raises(RestartException):
            lock.read_lock_or_restart()

    def test_unlock_without_lock_raises(self):
        with pytest.raises(RuntimeError):
            OptimisticLock().write_unlock()

    def test_version_advances_per_write(self):
        lock = OptimisticLock()
        v0 = lock.read_lock_or_restart()
        lock.write_lock_or_restart()
        lock.write_unlock()
        v1 = lock.read_lock_or_restart()
        assert v1 != v0


class TestSpinLock:
    def test_mutual_exclusion(self):
        lock = SpinLock()
        counter = [0]

        def worker():
            for _ in range(1000):
                with lock:
                    counter[0] += 1

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter[0] == 8000
        assert lock.acquisitions == 8000
        assert not lock.locked

    def test_traces_atomic(self):
        lock = SpinLock()
        with tracer() as t:
            with lock:
                pass
        assert t.atomic_rmw == 1


class TestEpochManager:
    def test_retire_frees_at_once(self):
        em = EpochManager()
        freed = []
        em.retire(lambda: freed.append(1))
        assert freed == [1]
        assert em.pending() == 0
