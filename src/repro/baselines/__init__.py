"""Competitor indexes the paper evaluates against (§IV-A3).

All are full reimplementations of the published designs, instrumented
with the same cost tracing and implementing the same
:class:`repro.common.OrderedIndex` protocol as ALT-index:

- :mod:`repro.baselines.alex` — ALEX+ (gapped data nodes, exponential
  search, data shifting, node splits; optimistic per-node locks).
- :mod:`repro.baselines.lipp` — LIPP+ (precise positions, conflict child
  nodes, per-node statistics counters, subtree rebuilds).
- :mod:`repro.baselines.xindex` — XIndex (2-stage RMI over groups, per-
  group delta buffers, background compaction).
- :mod:`repro.baselines.finedex` — FINEdex (LPA models, per-slot level
  bins).
- :mod:`repro.baselines.art_index` — plain ART with optimistic lock
  coupling.
- :mod:`repro.baselines.rmi` — the static two-stage RMI substrate.
"""

from repro.baselines.alex import AlexIndex
from repro.baselines.art_index import ArtIndex
from repro.baselines.finedex import FINEdex
from repro.baselines.lipp import LippIndex
from repro.baselines.rmi import TwoStageRMI
from repro.baselines.xindex import XIndex

__all__ = [
    "AlexIndex",
    "ArtIndex",
    "FINEdex",
    "LippIndex",
    "TwoStageRMI",
    "XIndex",
]
