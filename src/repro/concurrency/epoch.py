"""Reclamation as this repository runs it: free at once.

The native OLC ART defers freeing an unlinked node until no reader can
still observe it (epoch-based reclamation).  Python needs no deferral:
refcounting keeps an unlinked object alive while any reader holds it, so
:class:`~repro.art.tree.AdaptiveRadixTree` frees a replaced node where it
unlinks it and ``LearnedLayer.replace_model`` frees the old model at the
swap.  The ``retrain`` and ``art-merge`` chaos cases check those frees
under concurrent readers.

:class:`EpochManager` is what is left of the deferred model: the two
names the wall-clock benchmark reads (``EpochManager.retire`` as a traced
layer and ``art.epoch.pending()`` as the ``epoch.pending`` gauge).  The
benchmark change that drops the ``epoch.*`` rows deletes this class with
them.
"""

from __future__ import annotations

from typing import Callable


class EpochManager:
    """Immediate reclamation behind the deferred-reclamation interface."""

    def retire(self, free: Callable[[], None]) -> None:
        """Run ``free()`` now, as every unlink in the index does."""
        free()

    def pending(self) -> int:
        """Retired objects whose ``free()`` has not run: always 0."""
        return 0
