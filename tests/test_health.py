"""Index health telemetry (repro.obs.health).

Covers the acceptance properties of the health tier:

1. **Honest snapshots** — a fresh bulk load reports near-perfect fit
   (drift ratio within the PGM epsilon bound) and zero spill; churn that
   forces conflict-path traffic moves the spill/drift numbers.
2. **Doctor triage** — threshold crossings produce the documented
   diagnosis strings, a healthy snapshot produces none.
3. **Ambient sampling** — the tick hook samples every ``interval`` ops
   for the monitored index only, publishes ``health.*`` gauges when a
   registry is active, and costs nothing when no monitor is installed.
"""

import numpy as np
import pytest

from repro.core.alt_index import ALTIndex
from repro.obs.health import (
    HealthMonitor,
    IndexDoctor,
    active_monitor,
    health_monitoring,
    sample_health,
)
from repro.obs.metrics import metrics_registry


def _keys(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(2**40, size=n, replace=False).astype(np.uint64))


def _healthy_snapshot(**overrides):
    """A synthetic snapshot the doctor should call healthy."""
    snap = {
        "model_count": 4,
        "models_sampled": 4,
        "total_slots": 1000,
        "live_slots": 500,
        "occupancy": 0.5,
        "tombstone_fraction": 0.01,
        "learned_keys": 500,
        "art_keys": 10,
        "spill_fraction": 0.02,
        "retraining_enabled": True,
        "drift": {
            "rmse_max": 1.0,
            "eps_exceed_max": 0.0,
            "ratio_max": 0.2,
            "worst_model": 0,
        },
        "models": [
            {
                "model": 0,
                "n_slots": 250,
                "live": 125,
                "tombstones": 2,
                "occupancy": 0.5,
                "tombstone_fraction": 0.008,
                "keys": 130,
                "spill_keys": 5,
                "spill_fraction": 0.04,
                "rmse": 1.0,
                "eps_exceed_rate": 0.0,
                "drift_ratio": 0.2,
            }
        ],
        "retrain": {"active": 0, "backlog": 0, "age_max": 0},
        "fast_pointers": {"lookups": 100, "hits": 90, "hit_rate": 0.9},
        "epoch": {"pending": 0, "lag": 0},
    }
    snap.update(overrides)
    return snap


class TestSampleHealth:
    def test_fresh_bulk_load_is_near_perfect(self):
        index = ALTIndex.bulk_load(_keys())
        snap = sample_health(index)
        assert snap["model_count"] >= 1
        assert snap["models_sampled"] >= 1
        assert 0.0 < snap["occupancy"] <= 1.0
        # PGM fit guarantee: positional error stays within epsilon at
        # build time, so the drift ratio starts at or below ~1.
        assert snap["drift"]["ratio_max"] <= 1.5
        assert snap["drift"]["eps_exceed_max"] <= 0.05
        # Build-time conflict keys land in the ART from the start; the
        # learned layer must still hold the clear majority.
        assert snap["spill_fraction"] < 0.5
        assert snap["tombstone_fraction"] == 0.0
        assert snap["retrain"] == {"active": 0, "backlog": 0, "age_max": 0}
        assert snap["epoch"] is not None

    def test_conflict_churn_moves_spill_and_drift(self):
        keys = _keys(3000)
        index = ALTIndex.bulk_load(keys)
        base = sample_health(index)
        # Off-by-one neighbours of resident keys predict to occupied
        # slots and spill to the ART conflict path.
        for k in keys[1:800]:
            index.insert(int(k) + 1, 0)
        churned = sample_health(index)
        assert churned["art_keys"] > base["art_keys"]
        assert churned["spill_fraction"] > base["spill_fraction"]
        # Spilled keys reshape the rank structure the stale fit predicts.
        assert churned["drift"]["rmse_max"] >= base["drift"]["rmse_max"]

    def test_max_models_strides_sampling(self):
        index = ALTIndex.bulk_load(_keys(6000))
        full = sample_health(index)
        if full["model_count"] < 2:
            pytest.skip("dataset built a single model")
        strided = sample_health(index, max_models=1)
        assert strided["models_sampled"] < full["models_sampled"]
        # Aggregates always cover the whole index regardless of stride.
        assert strided["total_slots"] == full["total_slots"]
        assert strided["learned_keys"] == full["learned_keys"]

    def test_snapshot_in_stats_and_metrics_gauges(self):
        index = ALTIndex.bulk_load(_keys(1500))
        with metrics_registry() as reg:
            stats = index.stats()
        assert "health" in stats
        snap = reg.snapshot()
        assert snap["counters"]["health.samples"] == 1
        assert snap["gauges"]["health.gpl_occupancy"] == pytest.approx(
            stats["health"]["occupancy"]
        )
        assert "health.drift_ratio_max" in snap["gauges"]
        assert snap["histograms"]["health.model_occupancy"]["count"] >= 1

    def test_fast_pointer_hit_rate_tracked(self):
        keys = _keys(1500)
        index = ALTIndex.bulk_load(keys)
        if index.fast_pointers is None:
            pytest.skip("fast pointers disabled in this configuration")
        for k in keys[:200]:
            index.get(int(k))
        snap = sample_health(index)
        fp = snap["fast_pointers"]
        assert fp is not None
        assert fp["lookups"] >= 0
        assert 0.0 <= fp["hit_rate"] <= 1.0


class TestBulkLoadLimbo:
    """A bulk load builds its ART bottom-up and retires nothing, so a
    fresh index has an empty epoch limbo list and no lag diagnosis.
    (Runtime churn still retires nodes that are never reclaimed; this
    case does not drain the epoch, so it does not cover that.)"""

    N = 200_000

    def test_alt_bulk_load_leaves_nothing_pending(self):
        from repro.datasets.generators import dataset

        index = ALTIndex.bulk_load(dataset("osm", self.N, seed=0))
        assert len(index.art) > 1024  # enough conflicts to have tripped it
        assert index.art.epoch.pending() == 0
        assert not [d for d in IndexDoctor().diagnose(sample_health(index)) if "epoch" in d]

    def test_sharded_bulk_load_leaves_nothing_pending(self):
        from repro.datasets.generators import dataset
        from repro.shard.sharded import ShardedALTIndex

        index = ShardedALTIndex.bulk_load(dataset("osm", self.N, seed=0), shards=4)
        for shard in index.shards:
            assert shard.art.epoch.pending() == 0
            assert not [d for d in IndexDoctor().diagnose(sample_health(shard)) if "epoch" in d]


class TestIndexDoctor:
    def test_healthy_snapshot_has_no_diagnoses(self):
        report = IndexDoctor().examine(_healthy_snapshot())
        assert report.ok
        assert report.summary().startswith("healthy")

    def test_drift_diagnosis_names_model_and_cause(self):
        snap = _healthy_snapshot()
        snap["models"][0].update({"model": 17, "drift_ratio": 4.2, "rmse": 21.0})
        snap["retraining_enabled"] = False
        report = IndexDoctor().examine(snap)
        assert not report.ok
        assert any(
            "model 17 error drift 4.2x trained bound" in d
            and "retraining disabled" in d
            for d in report.diagnoses
        )
        # With retraining on and no open expansion, the cause flips.
        snap["retraining_enabled"] = True
        diags = IndexDoctor().diagnose(snap)
        assert any("retrain starved" in d for d in diags)

    def test_spill_occupancy_tombstone_diagnoses(self):
        doctor = IndexDoctor()
        assert any(
            "ART conflict path" in d
            for d in doctor.diagnose(_healthy_snapshot(spill_fraction=0.4))
        )
        assert any(
            "GPL occupancy" in d
            for d in doctor.diagnose(_healthy_snapshot(occupancy=0.95))
        )
        assert any(
            "tombstoned" in d
            for d in doctor.diagnose(_healthy_snapshot(tombstone_fraction=0.4))
        )

    def test_fastptr_and_epoch_diagnoses(self):
        doctor = IndexDoctor()
        snap = _healthy_snapshot(
            fast_pointers={"lookups": 100, "hits": 10, "hit_rate": 0.1}
        )
        assert any("fast-pointer hit rate" in d for d in doctor.diagnose(snap))
        # Too few lookups: not enough evidence, no diagnosis.
        quiet = _healthy_snapshot(
            fast_pointers={"lookups": 5, "hits": 0, "hit_rate": 0.0}
        )
        assert not any("fast-pointer" in d for d in doctor.diagnose(quiet))
        lagging = _healthy_snapshot(epoch={"pending": 5000, "lag": 3})
        assert any("epoch reclamation lagging" in d for d in doctor.diagnose(lagging))

    def test_retrain_backlog_diagnosis(self):
        snap = _healthy_snapshot(
            retrain={"active": 2, "backlog": 10_000, "age_max": 5_000}
        )
        assert any("retrain backlog" in d for d in IndexDoctor().diagnose(snap))


class TestHealthMonitor:
    def test_tick_samples_every_interval(self):
        keys = _keys(1500)
        index = ALTIndex.bulk_load(keys)
        monitor = HealthMonitor(index, interval=50)
        assert active_monitor() is None
        with health_monitoring(monitor):
            assert active_monitor() is monitor
            for k in keys[:120]:
                index.get(int(k))
        assert active_monitor() is None
        assert monitor.samples == 2
        assert monitor.last is not None
        assert monitor.last.snapshot["model_count"] >= 1

    def test_batch_ops_tick_by_batch_size(self):
        keys = _keys(1500)
        index = ALTIndex.bulk_load(keys)
        monitor = HealthMonitor(index, interval=100)
        with health_monitoring(monitor):
            index.batch_get(keys[:120])
        assert monitor.samples == 1

    def test_other_index_does_not_tick(self):
        keys = _keys(1500)
        index = ALTIndex.bulk_load(keys)
        other = ALTIndex.bulk_load(_keys(1500, seed=1))
        monitor = HealthMonitor(index, interval=10)
        with health_monitoring(monitor):
            for k in _keys(1500, seed=1)[:50]:
                other.get(int(k))
        assert monitor.samples == 0

    def test_reports_bounded_by_history(self):
        index = ALTIndex.bulk_load(_keys(1200))
        monitor = HealthMonitor(index, interval=1, history=3)
        with health_monitoring(monitor):
            for k in _keys(1200)[:8]:
                index.get(int(k))
        assert monitor.samples == 8
        assert len(monitor.reports) == 3
