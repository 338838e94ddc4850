"""Index health telemetry: drift sampling, gauges, and diagnoses.

ALT-Index is only fast while its learned layer stays accurate: the GPL
slots must keep absorbing most keys, predictions must stay inside the
trained epsilon bound, and the escape hatches (ART conflict path,
expansion buffers) must stay rare and shallow.  None
of that is visible from throughput alone — a drifting model shows up as
a slow creep in conflict-path traffic long before it shows up as a p999
cliff.  This module measures it directly:

- :func:`sample_health` snapshots per-model prediction-error drift
  (epsilon-exceed rate and RMSE against the trained fit, both in key
  positions), slot occupancy/tombstone fractions, conflict spill to the
  ART layer, fast-pointer hit rate, and retrain backlog and expansion
  age.  When a :class:`~repro.obs.metrics.
  MetricsRegistry` is active the snapshot also feeds the ``health.*``
  gauges and histograms registered in :mod:`repro.obs.taxonomy`.
- :class:`IndexDoctor` turns a snapshot into actionable diagnoses
  ("model 17 error drift 4.2x trained bound — retrain starved") held in
  a :class:`HealthReport`.
- :class:`HealthMonitor` samples periodically — every ``interval``
  index operations — via a tick hook in the ALT-index hot paths that
  costs one module-global load and a ``None`` test when no monitor is
  installed (the same ambient pattern as :func:`repro.chaos.point`).

Sampling never perturbs measurements: :func:`sample_health` runs its
own structure walks under a private throwaway :class:`~repro.sim.trace.
CostTrace`, so the ambient operation trace stays byte-identical whether
or not a monitor is active, and the monitor skips automatic samples
while a chaos schedule is running so seeded interleavings stay
deterministic.

Drift is measured against the *current* key population of each model:
for the merged sorted set of GPL-resident and ART-spilled keys covered
by a model, the predicted slot divided by the gap factor should track
the key's rank to within epsilon (that is the PGM fit guarantee at
build time).  ``drift_ratio`` is the RMSE of that error over epsilon —
about <= 1.0 on a fresh bulk load, growing as churn reshapes the key
distribution under a stale fit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.sim.trace import CostTrace, tracer


#: snapshot path -> gauge name, published when a registry is active.
_GAUGES = {
    "occupancy": "health.gpl_occupancy",
    "tombstone_fraction": "health.tombstone_fraction",
    "spill_fraction": "health.spill_fraction",
}


def _model_health(
    index_no: int,
    model,
    art_keys: np.ndarray,
    lo_bound: int | None,
    hi_bound: int | None,
    gap: float,
    epsilon: float,
    full: int,
    tombstone: int,
) -> dict:
    """Drift/occupancy snapshot for one GPL model.

    ``art_keys`` is the full sorted spill population; ``lo_bound`` /
    ``hi_bound`` delimit this model's routing range (``None`` means
    unbounded, i.e. the first/last model).  Keys absorbed into an open
    expansion buffer are not counted — the buffer replaces the model
    wholesale on finish, at which point drift resets anyway.
    """
    state = model.np_state
    n_slots = model.n_slots
    live = int(np.count_nonzero(state == full))
    tombs = int(np.count_nonzero(state == tombstone))
    resident = model.np_keys[state == full]  # slot order == key order

    lo_i = (
        0
        if lo_bound is None
        else int(np.searchsorted(art_keys, np.uint64(lo_bound), side="left"))
    )
    hi_i = (
        len(art_keys)
        if hi_bound is None
        else int(np.searchsorted(art_keys, np.uint64(hi_bound), side="left"))
    )
    spill = art_keys[lo_i:hi_i]

    pop = np.sort(np.concatenate([resident, spill]))
    count = int(pop.size)
    if count:
        first = np.uint64(model.first_key)
        rel = np.where(pop < first, np.uint64(0), pop - first).astype(np.float64)
        predicted = np.clip(np.floor(rel * model.slope_eff), 0, n_slots - 1)
        rank = np.arange(count, dtype=np.float64)
        err = predicted / gap - rank  # error in key positions
        rmse = float(np.sqrt(np.mean(err * err)))
        eps_exceed = float(np.mean(np.abs(err) > epsilon))
    else:
        rmse = 0.0
        eps_exceed = 0.0
    return {
        "model": index_no,
        "n_slots": n_slots,
        "live": live,
        "tombstones": tombs,
        "occupancy": live / max(n_slots, 1),
        "tombstone_fraction": tombs / max(n_slots, 1),
        "keys": count,
        "spill_keys": int(spill.size),
        "spill_fraction": int(spill.size) / max(count, 1),
        "rmse": rmse,
        "eps_exceed_rate": eps_exceed,
        "drift_ratio": rmse / max(epsilon, 1e-9),
    }


def sample_health(index, max_models: int = 32) -> dict:
    """One health snapshot of an :class:`~repro.core.alt_index.ALTIndex`.

    At most ``max_models`` models are drift-sampled (evenly strided);
    occupancy/spill aggregates always cover the whole index.  Publishes
    the ``health.*`` gauges when a metrics registry is active.
    """
    from repro.core.learned_layer import FULL, GAP, TOMBSTONE

    layer = index.layer
    models = layer.models
    # Private trace: the sampling walk (ART iteration, slot reads) must
    # never leak into the ambient operation trace.
    with tracer(CostTrace()):
        art_keys = index.art.sorted_keys()

        total_slots = 0
        total_live = 0
        total_tombs = 0
        for m in models:
            total_slots += m.n_slots
            total_live += int(np.count_nonzero(m.np_state == FULL))
            total_tombs += int(np.count_nonzero(m.np_state == TOMBSTONE))

        n_models = len(models)
        stride = max(1, -(-n_models // max_models)) if n_models else 1
        sampled = []
        for i in range(0, n_models, stride):
            model = models[i]
            lo = None if i == 0 else model.first_key
            hi = layer.next_first_key(i)
            sampled.append(
                _model_health(
                    i, model, art_keys, lo, hi,
                    GAP, index.epsilon, FULL, TOMBSTONE,
                )
            )

        active = 0
        backlog = 0
        age_max = 0
        for m in models:
            exp = m.expansion
            if exp is not None:
                active += 1
                backlog += exp.remaining()
                age_max = max(age_max, exp.inserted)

    art = int(art_keys.size)
    total_keys = total_live + art
    drift = {
        "rmse_max": max((m["rmse"] for m in sampled), default=0.0),
        "eps_exceed_max": max((m["eps_exceed_rate"] for m in sampled), default=0.0),
        "ratio_max": max((m["drift_ratio"] for m in sampled), default=0.0),
        "worst_model": max(
            sampled, key=lambda m: m["drift_ratio"], default={"model": -1}
        )["model"],
    }
    snapshot = {
        "model_count": n_models,
        "models_sampled": len(sampled),
        "total_slots": total_slots,
        "live_slots": total_live,
        "occupancy": total_live / max(total_slots, 1),
        "tombstone_fraction": total_tombs / max(total_slots, 1),
        "learned_keys": total_live,
        "art_keys": art,
        "spill_fraction": art / max(total_keys, 1),
        "retraining_enabled": bool(getattr(index, "_retraining", False)),
        "drift": drift,
        "models": sampled,
        "retrain": {"active": active, "backlog": backlog, "age_max": age_max},
    }

    fastptr = index.fast_pointers
    if fastptr is not None:
        lookups = fastptr.lookups
        snapshot["fast_pointers"] = {
            "lookups": lookups,
            "hits": fastptr.hits,
            "hit_rate": fastptr.hits / max(lookups, 1),
        }
    else:
        snapshot["fast_pointers"] = None

    publish_health(snapshot)
    return snapshot


def publish_health(snapshot: dict) -> None:
    """Feed a snapshot into the active metrics registry, if any."""
    reg = obs_metrics.active_registry()
    if reg is None:
        return
    reg.inc("health.samples")
    for path, gauge in _GAUGES.items():
        reg.set_gauge(gauge, snapshot[path])
    drift = snapshot["drift"]
    reg.set_gauge("health.drift_rmse_max", drift["rmse_max"])
    reg.set_gauge("health.eps_exceed_max", drift["eps_exceed_max"])
    reg.set_gauge("health.drift_ratio_max", drift["ratio_max"])
    retrain = snapshot["retrain"]
    reg.set_gauge("health.retrain_backlog", retrain["backlog"])
    reg.set_gauge("health.active_expansions", retrain["active"])
    reg.set_gauge("health.expansion_age_max", retrain["age_max"])
    fp = snapshot["fast_pointers"]
    if fp is not None:
        reg.set_gauge("health.fastptr_hit_rate", fp["hit_rate"])
    for m in snapshot["models"]:
        reg.observe("health.model_drift_ratio", m["drift_ratio"] * 100.0)
        reg.observe("health.model_occupancy", m["occupancy"] * 100.0)


@dataclass
class HealthReport:
    """A snapshot plus the doctor's diagnoses (empty means healthy)."""

    snapshot: dict
    diagnoses: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnoses

    def summary(self) -> str:
        s = self.snapshot
        head = (
            f"{s['model_count']} models, occupancy {s['occupancy']:.0%}, "
            f"spill {s['spill_fraction']:.0%}, "
            f"drift {s['drift']['ratio_max']:.2f}x"
        )
        if self.ok:
            return f"healthy: {head}"
        return f"{len(self.diagnoses)} finding(s): {head}\n" + "\n".join(
            f"  - {d}" for d in self.diagnoses
        )


@dataclass
class IndexDoctor:
    """Threshold-based triage of health snapshots into diagnoses."""

    drift_ratio_limit: float = 3.0
    eps_exceed_limit: float = 0.5
    spill_limit: float = 0.25
    occupancy_limit: float = 0.90
    tombstone_limit: float = 0.25
    fastptr_hit_floor: float = 0.5
    fastptr_min_lookups: int = 64
    retrain_backlog_limit: int = 4096

    def diagnose(self, snapshot: dict) -> list[str]:
        out: list[str] = []
        retrain = snapshot["retrain"]
        if not snapshot["retraining_enabled"]:
            drift_cause = "retraining disabled"
        elif retrain["active"]:
            drift_cause = "expansion in flight"
        else:
            drift_cause = "retrain starved"
        for m in snapshot["models"]:
            if m["drift_ratio"] > self.drift_ratio_limit:
                out.append(
                    f"model {m['model']} error drift "
                    f"{m['drift_ratio']:.1f}x trained bound — {drift_cause}"
                )
            elif m["eps_exceed_rate"] > self.eps_exceed_limit:
                out.append(
                    f"model {m['model']} epsilon-exceed rate "
                    f"{m['eps_exceed_rate']:.0%} — predictions past the "
                    "trained error bound"
                )
        if snapshot["spill_fraction"] > self.spill_limit:
            out.append(
                f"{snapshot['spill_fraction']:.0%} of keys served from the "
                "ART conflict path — learned layer losing coverage"
            )
        if snapshot["occupancy"] > self.occupancy_limit:
            out.append(
                f"GPL occupancy {snapshot['occupancy']:.0%} — further "
                "inserts will spill to the conflict path"
            )
        if snapshot["tombstone_fraction"] > self.tombstone_limit:
            out.append(
                f"{snapshot['tombstone_fraction']:.0%} of slots tombstoned "
                "— expansion/write-back not reclaiming space"
            )
        fp = snapshot["fast_pointers"]
        if (
            fp is not None
            and fp["lookups"] >= self.fastptr_min_lookups
            and fp["hit_rate"] < self.fastptr_hit_floor
        ):
            out.append(
                f"fast-pointer hit rate {fp['hit_rate']:.0%} over "
                f"{fp['lookups']} lookups — buffer stale, repairs lagging"
            )
        if retrain["backlog"] > self.retrain_backlog_limit:
            out.append(
                f"retrain backlog {retrain['backlog']} absorbs across "
                f"{retrain['active']} open expansion(s) — retrain starved"
            )
        return out

    def examine(self, snapshot: dict) -> HealthReport:
        return HealthReport(snapshot, self.diagnose(snapshot))


class HealthMonitor:
    """Periodic sampler driven by a tick hook in the index hot paths.

    Every ``interval`` operations on ``index`` the monitor takes a
    snapshot, publishes gauges, and keeps the doctor's last ``history``
    reports.  Install with :class:`health_monitoring`; when none is
    installed the per-op cost is one global load and a ``None`` test.
    """

    def __init__(
        self,
        index,
        interval: int = 2048,
        max_models: int = 32,
        doctor: IndexDoctor | None = None,
        history: int = 16,
    ):
        self.index = index
        self.interval = interval
        self.max_models = max_models
        self.doctor = doctor if doctor is not None else IndexDoctor()
        self.reports: deque[HealthReport] = deque(maxlen=history)
        self.samples = 0
        self._ops = 0

    @property
    def last(self) -> HealthReport | None:
        return self.reports[-1] if self.reports else None

    def sample(self) -> HealthReport:
        snapshot = sample_health(self.index, max_models=self.max_models)
        report = self.doctor.examine(snapshot)
        self.reports.append(report)
        self.samples += 1
        return report

    def _tick(self, index, n: int) -> None:
        if index is not self.index:
            return
        self._ops += n
        if self._ops >= self.interval:
            self._ops = 0
            # Never sample mid-schedule: the walk would cross chaos
            # points and perturb the seeded interleaving.
            from repro import chaos

            if not chaos.is_active():
                self.sample()


_active: HealthMonitor | None = None


def active_monitor() -> HealthMonitor | None:
    return _active


def tick(index, n: int = 1) -> None:
    """Hot-path hook: count ``n`` operations against the monitor."""
    m = _active
    if m is not None:
        m._tick(index, n)


class health_monitoring:
    """``with health_monitoring(monitor):`` installs the ambient
    monitor for the duration of the block (nestable)."""

    def __init__(self, monitor: HealthMonitor):
        self.monitor = monitor
        self._prev: HealthMonitor | None = None

    def __enter__(self) -> HealthMonitor:
        global _active
        self._prev = _active
        _active = self.monitor
        return self.monitor

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._prev
