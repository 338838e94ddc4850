"""Versioned optimistic locks: per-slot seqlocks and OLC node locks.

Two protocols from the paper:

- :class:`SlotVersionArray` — §III-E's per-data-slot atomic version
  numbers in the GPL model.  Even = idle, odd = writer
  active.  Writers spin the version odd, write, then bump it even; readers
  snapshot the version, read, and revalidate.

- :class:`OptimisticLock` — the versioned node lock of "The ART of
  practical synchronization" (Leis et al. 2016), used for optimistic lock
  coupling in the ART-OPT layer.  The lock word packs
  ``version << 2 | obsolete << 1 | locked``.

CPython's GIL does not make ``x += 1`` atomic (it compiles to separate
load/add/store bytecodes), so compare-and-swap is emulated with a private
mutex held only for the transition itself; the spinning/retry *protocol*
is faithful and is exercised by real threads in the test suite.

Every spin is bounded: loops run through a
:class:`repro.concurrency.retry.BoundedRetry` policy that yields the GIL,
backs off, and — when a slot stays latched past the budget, the signature
of a writer that died mid-latch — raises
:class:`repro.concurrency.retry.StuckWriterError` so callers can recover
(:meth:`SlotVersionArray.force_recover`) instead of hanging.  Named chaos
points (:func:`repro.chaos.point`) mark the protocol transitions for
deterministic schedule exploration.
"""

from __future__ import annotations

import threading

from repro import chaos
from repro.concurrency.retry import DEFAULT_RETRY, BoundedRetry
from repro.sim.trace import active_tracer


class RestartException(Exception):
    """Raised when an optimistic read/write must restart from the root."""


class SlotVersionArray:
    """Dense array of slot versions for a GPL model's data slots.

    A single guard mutex emulates CAS for the whole array — contention on
    the guard is negligible under the GIL, and the protocol semantics
    (spin-while-odd, publish-on-even) are identical to per-slot CAS.
    """

    __slots__ = ("_versions", "_cas", "_retry")

    def __init__(self, n_slots: int, retry: BoundedRetry | None = None):
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        self._versions = [0] * n_slots
        self._cas = threading.Lock()
        self._retry = retry or DEFAULT_RETRY

    def __len__(self) -> int:
        return len(self._versions)

    def read_begin(self, slot: int) -> int:
        versions = self._versions
        v = versions[slot]
        if v % 2 == 0:
            return v
        state = self._retry.begin("slot.read_begin")
        while True:
            state.step(slot=slot, stuck=True)
            v = versions[slot]
            if v % 2 == 0:
                return v

    def read_validate(self, slot: int, version: int) -> bool:
        return self._versions[slot] == version

    def write_begin(self, slot: int) -> None:
        active_tracer().atomic_rmw += 1
        chaos.point("slot.write_cas")
        state = None
        while True:
            latched = False
            with self._cas:
                if self._versions[slot] % 2 == 0:
                    self._versions[slot] += 1
                    latched = True
            if latched:
                # Point deliberately outside the CAS mutex: a crash here
                # models a writer dying with the latch held (odd version).
                chaos.point("slot.write_latched")
                return
            if state is None:
                state = self._retry.begin("slot.write_begin")
            state.step(slot=slot, stuck=True)

    def write_end(self, slot: int) -> None:
        chaos.point("slot.write_publish")
        with self._cas:
            if self._versions[slot] % 2 == 0:
                raise RuntimeError(f"write_end on idle slot {slot}")
            self._versions[slot] += 1

    def force_recover(self, slot: int) -> bool:
        """Break a dead writer's latch on ``slot`` (odd → even).

        Returns True if a latch was actually broken.  Part of the
        stuck-writer recovery path; see
        :meth:`repro.core.learned_layer.GPLModel.recover_slot`.
        """
        with self._cas:
            if self._versions[slot] % 2 == 0:
                return False
            self._versions[slot] += 1
            return True

    def odd_slots(self) -> list[int]:
        """Slots currently latched (odd version) — stuck-writer suspects.

        A live writer also shows up here briefly; the *detector* meaning
        comes from sampling while no writer should be active, or from a
        reader's :class:`repro.concurrency.retry.StuckWriterError`.
        """
        return [i for i, v in enumerate(self._versions) if v % 2 == 1]


_LOCKED = 0b01
_OBSOLETE = 0b10


class OptimisticLock:
    """Versioned node lock for optimistic lock coupling (OLC).

    Readers proceed without writing shared state: they snapshot the
    version, do their work, and revalidate; any intervening writer bumps
    the version and forces a :class:`RestartException`.  Writers lock by
    setting the low bit via emulated CAS.

    Restart bounding lives one level up: the ART's public operations run
    their restart loops through :class:`repro.concurrency.retry.BoundedRetry`
    (this lock only ever *signals* a restart, it never spins).
    """

    __slots__ = ("_word", "_cas")

    def __init__(self) -> None:
        self._word = 0
        self._cas = threading.Lock()

    # -- reader side -------------------------------------------------------
    def read_lock_or_restart(self) -> int:
        """Snapshot a stable (unlocked, live) version or restart."""
        word = self._word
        if word & _LOCKED:
            active_tracer().retries += 1
            raise RestartException
        if word & _OBSOLETE:
            raise RestartException
        return word

    def read_unlock_or_restart(self, version: int) -> None:
        """Validate that the node did not change since the snapshot."""
        if self._word != version:
            active_tracer().retries += 1
            raise RestartException

    check_or_restart = read_unlock_or_restart

    # -- writer side -------------------------------------------------------
    def upgrade_to_write_lock_or_restart(self, version: int) -> None:
        """Atomically move from a validated read to a write lock."""
        active_tracer().atomic_rmw += 1
        chaos.point("olc.upgrade")
        with self._cas:
            if self._word != version:
                raise RestartException
            self._word |= _LOCKED
        chaos.point("olc.write_locked")

    def write_lock_or_restart(self) -> None:
        version = self.read_lock_or_restart()
        self.upgrade_to_write_lock_or_restart(version)

    def write_unlock(self) -> None:
        """Release the write lock, bumping the version."""
        chaos.point("olc.write_unlock")
        with self._cas:
            if not self._word & _LOCKED:
                raise RuntimeError("write_unlock without write lock")
            self._word = (self._word & ~_LOCKED) + 0b100

    def write_unlock_obsolete(self) -> None:
        """Release and mark the node dead (it was replaced/merged away)."""
        chaos.point("olc.write_unlock")
        with self._cas:
            if not self._word & _LOCKED:
                raise RuntimeError("write_unlock_obsolete without write lock")
            self._word = ((self._word & ~_LOCKED) + 0b100) | _OBSOLETE

    @property
    def is_obsolete(self) -> bool:
        return bool(self._word & _OBSOLETE)
