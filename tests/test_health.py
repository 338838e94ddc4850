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

    def test_art_keys_from_the_runs_match_a_walk(self, monkeypatch):
        """The spill population comes from the ART's sorted runs (main
        with the overlay folded in), not a whole-tree walk: after scalar
        and batch churn the keys equal the walk's, and the snapshot and
        ``stats()`` are the ones a walk gives."""
        from repro.art.tree import AdaptiveRadixTree

        keys = _keys(6000)
        index = ALTIndex.bulk_load(keys[::2])
        art = index.art
        for k in keys[2:1200:2].tolist():
            index.insert(k + 1, k)  # spills to the ART
        index.batch_insert(keys[1200:2400:2] + np.uint64(1))
        index.batch_remove(keys[600:1800:4] + np.uint64(1))
        for k in keys[2:400:4].tolist():
            index.remove(k + 1)
        index.batch_get(keys[::3])  # merges the delta (folds main)
        for k in keys[2400:2440:2].tolist():
            index.insert(k + 1, k)
        index.batch_get(keys[::3])  # merges it into the overlay
        for k in keys[2440:2480:2].tolist():
            index.insert(k + 1, k)  # a delta again

        def walked(tree):
            return np.fromiter((k for k, _ in tree.items()), dtype=np.uint64)

        runs, delta = art._view
        assert len(runs[2]) and delta  # overlay and delta both folded in
        assert art.sorted_keys().tolist() == walked(art).tolist()
        snap = sample_health(index)
        stats = index.stats()
        monkeypatch.setattr(AdaptiveRadixTree, "sorted_keys", walked)
        assert sample_health(index) == snap
        assert index.stats() == stats
        assert stats["art_keys"] == snap["art_keys"] == len(art)

    def test_art_keys_walk_without_runs_or_during_a_write(self):
        from repro.art.tree import AdaptiveRadixTree

        keys = _keys(2000)
        bare = AdaptiveRadixTree()
        for k in keys[::-1].tolist():
            bare.insert(k, k)
        assert bare._view is None  # runs come only from publish_main
        assert bare.sorted_keys().tolist() == keys.tolist()

        loaded = ALTIndex.bulk_load(keys[::2])
        art = loaded.art
        art.insert(int(keys[1]) + 1, 0)
        art._begin_write()  # a write in flight: the runs may lack it
        try:
            art._root = None  # ...so only a walk sees what the tree holds
            assert art.sorted_keys().tolist() == []
        finally:
            art._record(())

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

    def test_fastptr_diagnosis(self):
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
