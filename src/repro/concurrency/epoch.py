"""Epoch-based memory reclamation, kept as a verified protocol model.

Optimistic readers may hold references to nodes that writers have already
unlinked (e.g. an ART node replaced by expansion).  In C++ the node's
memory cannot be freed until no reader can still observe it; the standard
solution — used by the native OLC ART the paper builds on — is
epoch-based reclamation.  This repository's ART does not need it: CPython
refcounting keeps an unlinked node alive while any reader holds it, so
:class:`~repro.art.tree.AdaptiveRadixTree` frees a replaced node's
modeled span where it unlinks it.  :class:`EpochManager` stays as the
model of the native protocol, checked by the ``epoch`` chaos and DPOR
case (:func:`repro.chaos.protocols.build_epoch_case`).
"""

from __future__ import annotations

import threading
from typing import Callable

from repro import chaos
from repro.obs import metrics as obs_metrics


class EpochGuard:
    """RAII participation of one thread in the current epoch."""

    __slots__ = ("_manager", "_tid")

    def __init__(self, manager: "EpochManager", tid: int):
        self._manager = manager
        self._tid = tid

    def __enter__(self) -> "EpochGuard":
        return self

    def __exit__(self, *exc) -> None:
        self._manager._exit(self._tid)


class EpochManager:
    """Three-epoch deferred reclamation.

    Writers retire objects into the current epoch's limbo list; a retired
    object's ``free()`` callback runs at the advance that moves the
    global epoch two past the retiring epoch (retired at *e*, freed
    entering *e+2*).  That is the earliest safe moment: the advance into
    *e+1* may still run while a reader pinned at *e* (which could hold a
    reference) is active, but the advance into *e+2* requires every
    active thread to have entered at *e+1* or later — after the retire.

    Concretely, an object retired at epoch *e* lives in limbo slot
    ``e % 3``; the advance that sets the epoch to *e+2* frees slot
    ``(e+2+1) % 3 == e % 3``, so each slot is emptied exactly one epoch
    before new retirees reuse it.
    """

    def __init__(self) -> None:
        self._epoch = 0
        self._active: dict[int, int] = {}  # thread id -> epoch it entered
        self._limbo: dict[int, list[Callable[[], None]]] = {0: [], 1: [], 2: []}
        self._lock = threading.Lock()
        self.reclaimed = 0

    @property
    def current_epoch(self) -> int:
        return self._epoch

    def enter(self) -> EpochGuard:
        """Pin the calling thread to the current epoch."""
        chaos.point("epoch.enter")
        tid = threading.get_ident()
        with self._lock:
            self._active[tid] = self._epoch
        return EpochGuard(self, tid)

    def _exit(self, tid: int) -> None:
        with self._lock:
            self._active.pop(tid, None)

    def retire(self, free: Callable[[], None]) -> None:
        """Schedule ``free()`` to run once no reader can observe the object."""
        chaos.point("epoch.retire")
        obs_metrics.inc("epoch.retired")
        with self._lock:
            self._limbo[self._epoch % 3].append(free)

    def try_advance(self) -> bool:
        """Advance the epoch if every active thread has caught up.

        Returns True if the epoch advanced (and the oldest limbo list —
        objects retired two epochs before the new epoch — was reclaimed).
        """
        chaos.point("epoch.advance")
        with self._lock:
            if any(e < self._epoch for e in self._active.values()):
                return False
            self._epoch += 1
            # Slot (epoch+1) % 3 holds objects retired at epoch-2:
            # (epoch-2) % 3 == (epoch+1) % 3.  Freeing the new
            # epoch's own slot instead (the old behaviour) delayed
            # every free by one extra advance.
            oldest = self._limbo[(self._epoch + 1) % 3]
            self._limbo[(self._epoch + 1) % 3] = []
        for free in oldest:
            free()
        with self._lock:
            self.reclaimed += len(oldest)
        obs_metrics.inc("epoch.advances")
        if oldest:
            obs_metrics.inc("epoch.reclaimed", len(oldest))
        return True

    def pending(self) -> int:
        """Retired objects whose ``free()`` has not run yet.

        A growing limbo population means ``try_advance`` is losing to a
        pinned (stalled) reader or nobody is advancing at all.
        """
        with self._lock:
            return sum(len(batch) for batch in self._limbo.values())

    def drain(self) -> int:
        """Force-reclaim everything (quiescent shutdown). Returns count."""
        freed = 0
        for _ in range(3):
            with self._lock:
                self._epoch += 1
                batch = self._limbo[(self._epoch + 1) % 3]
                self._limbo[(self._epoch + 1) % 3] = []
            for free in batch:
                free()
            freed += len(batch)
        with self._lock:
            self.reclaimed += freed
        if freed:
            obs_metrics.inc("epoch.reclaimed", freed)
        return freed
