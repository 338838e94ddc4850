"""Unified observability: spans, metrics, timelines, health, recorder.

Five instruments, one package (see docs/OBSERVABILITY.md):

- :mod:`repro.obs.spans` — hierarchical spans composing with the ambient
  :class:`~repro.sim.trace.CostTrace`, attributing every modeled event
  to a named layer (``alt.model_probe``, ``alt.gpl_probe``, …).
- :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges,
  and log-bucketed histograms with snapshot/delta export.
- :mod:`repro.obs.timeline` — Chrome trace-event (Perfetto) export of
  the simulator's virtual-time schedule and chaos schedule logs.
- :mod:`repro.obs.health` — periodic index health sampling (prediction
  drift, occupancy, conflict spill, retrain backlog) with an
  :class:`~repro.obs.health.IndexDoctor` producing diagnoses.
- :mod:`repro.obs.recorder` — a per-thread flight recorder whose rings
  freeze into replayable JSON postmortems on crashes and check failures
  (``python -m repro.obs.recorder`` pretty-prints them).

All follow the repository's ambient-instrumentation rule: hot paths pay
a module-global load and a ``None`` test when the instrument is
disabled, and nothing else.  Spans go further: the structures carry no
span code, and :func:`~repro.obs.spans.profiled` wraps the entry points
that :data:`~repro.obs.taxonomy.SPAN_TARGETS` names only while a
profile is active.

The legal span and metric names live in :mod:`repro.obs.taxonomy`;
``repro.tools.check_spans`` (tier-1) keeps code and taxonomy in sync.
"""

from __future__ import annotations

from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    inc,
    metrics_registry,
    observe,
    set_gauge,
)
from repro.obs.spans import (
    NULL_SPAN,
    SpanProfile,
    SpanStats,
    current_profile,
    profiled,
    span,
)
from repro.obs.taxonomy import (
    CHAOS_EXEMPT_PREFIXES,
    CHAOS_SPAN_MAP,
    METRIC_TAXONOMY,
    SPAN_TAXONOMY,
    is_exempt_point,
    is_registered_metric,
    span_for_point,
)
from repro.obs.timeline import (
    TimelineRecorder,
    timeline_from_chaos,
    validate_timeline,
)
from repro.obs.recorder import (
    FlightRecorder,
    active_recorder,
    flight_recorder,
)
from repro.obs.health import (
    HealthMonitor,
    HealthReport,
    IndexDoctor,
    active_monitor,
    health_monitoring,
    sample_health,
)

__all__ = [
    "CHAOS_EXEMPT_PREFIXES",
    "CHAOS_SPAN_MAP",
    "FlightRecorder",
    "HealthMonitor",
    "HealthReport",
    "IndexDoctor",
    "METRIC_TAXONOMY",
    "MetricsRegistry",
    "NULL_SPAN",
    "SPAN_TAXONOMY",
    "SpanProfile",
    "SpanStats",
    "TimelineRecorder",
    "active_monitor",
    "active_recorder",
    "active_registry",
    "current_profile",
    "flight_recorder",
    "health_monitoring",
    "inc",
    "is_exempt_point",
    "is_registered_metric",
    "metrics_registry",
    "observe",
    "profiled",
    "sample_health",
    "set_gauge",
    "span",
    "span_for_point",
    "timeline_from_chaos",
    "validate_timeline",
]
