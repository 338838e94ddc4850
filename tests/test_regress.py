"""Benchmark regression observatory (repro.bench.regress).

Covers:

1. **Recorded points** — a run freezes into a schema'd BENCH document
   carrying config, results, health, metrics, and git revision; IDs
   allocate sequentially starting at 8.
2. **Noise-aware checks** — deterministic metrics fail past tight
   relative thresholds (the acceptance case: a synthetic 2x slowdown
   exits nonzero), wall-clock drift only warns, and comparing different
   experiment configs is itself a failure.
3. **CLI smoke** — record, clean re-check, and regression exit codes.
"""

import copy
import json

import pytest

from repro.bench.regress import (
    SCHEMA,
    bench_document,
    compare,
    git_rev,
    latest_bench,
    main,
    next_bench_id,
)


@pytest.fixture(scope="module")
def doc():
    """One small real run, shared by the document-shape tests."""
    return bench_document(n_keys=8_000, n_ops=800, bench_id=8)


def _fake_doc(**result_overrides):
    base = {
        "schema": SCHEMA,
        "bench_id": 8,
        "git_rev": "abc1234",
        "config": {
            "index": "ALT-index",
            "dataset": "lognormal",
            "workload": "balanced",
            "n_keys": 8000,
            "n_ops": 800,
            "threads": 32,
            "seed": 0,
        },
        "results": {
            "throughput_mops": 50.0,
            "p50_us": 1.0,
            "p99_us": 1.5,
            "p999_us": 1.7,
            "modeled_total_ns": 1e9,
            "hit_rate": 0.9,
            "conflicts": 100,
            "retries": 10,
            "fallbacks": 0,
            "recoveries": 0,
        },
        "wallclock": {"build_seconds": 0.5},
        "health": None,
        "metrics": {},
    }
    base["results"].update(result_overrides)
    return base


class TestBenchDocument:
    def test_document_shape(self, doc):
        assert doc["schema"] == SCHEMA
        assert doc["bench_id"] == 8
        assert set(doc["config"]) == {
            "index", "dataset", "workload", "n_keys", "n_ops", "threads", "seed",
        }
        res = doc["results"]
        assert res["throughput_mops"] > 0
        assert 0 < res["p50_us"] <= res["p99_us"] <= res["p999_us"]
        assert res["modeled_total_ns"] > 0
        # Span attribution must account for the whole modeled cost.
        assert res["span_total_modeled_ns"] == pytest.approx(
            res["modeled_total_ns"], rel=1e-6
        )
        assert doc["wallclock"]["build_seconds"] > 0
        json.dumps(doc)  # JSON-clean end to end

    def test_document_carries_health_and_metrics(self, doc):
        health = doc["health"]
        assert health is not None
        assert 0.0 < health["occupancy"] <= 1.0
        assert "drift" in health and "retrain" in health
        assert doc["metrics"]["counters"]["health.samples"] >= 1
        assert doc["git_rev"] == git_rev()

    def test_runs_are_deterministic(self, doc):
        again = bench_document(n_keys=8_000, n_ops=800, bench_id=8)
        assert again["results"]["throughput_mops"] == pytest.approx(
            doc["results"]["throughput_mops"]
        )
        assert again["results"]["p999_us"] == pytest.approx(
            doc["results"]["p999_us"]
        )


class TestBenchIds:
    def test_first_id_is_8(self, tmp_path):
        assert next_bench_id(tmp_path) == 8
        assert latest_bench(tmp_path) is None

    def test_ids_allocate_past_the_max(self, tmp_path):
        (tmp_path / "BENCH_8.json").write_text("{}")
        (tmp_path / "BENCH_12.json").write_text("{}")
        (tmp_path / "BENCH_extra.json").write_text("{}")  # ignored: not numbered
        assert next_bench_id(tmp_path) == 13
        assert latest_bench(tmp_path).name == "BENCH_12.json"


class TestCompare:
    def test_identical_docs_pass(self):
        failures, warnings = compare(_fake_doc(), _fake_doc())
        assert failures == []
        assert warnings == []

    def test_2x_slowdown_fails(self):
        current = _fake_doc(throughput_mops=25.0)
        failures, _ = compare(current, _fake_doc())
        assert any("throughput_mops" in f for f in failures)

    def test_latency_regression_fails_but_improvement_passes(self):
        worse = _fake_doc(p999_us=3.4)
        failures, _ = compare(worse, _fake_doc())
        assert any("p999_us" in f for f in failures)
        better = _fake_doc(p999_us=0.5, modeled_total_ns=5e8)
        failures, _ = compare(better, _fake_doc())
        assert failures == []

    def test_within_tolerance_drift_passes(self):
        current = _fake_doc(throughput_mops=45.0, p99_us=1.6)
        failures, _ = compare(current, _fake_doc())
        assert failures == []

    def test_config_mismatch_is_a_failure(self):
        current = _fake_doc()
        current["config"]["threads"] = 64
        failures, _ = compare(current, _fake_doc())
        assert any("config mismatch: threads" in f for f in failures)

    def test_counter_and_wallclock_drift_only_warn(self):
        current = _fake_doc(retries=100)
        current["wallclock"]["build_seconds"] = 10.0
        failures, warnings = compare(current, _fake_doc())
        assert failures == []
        assert any("retries" in w for w in warnings)
        assert any("build_seconds" in w for w in warnings)


class TestCli:
    def test_record_then_check_then_synthetic_slowdown(self, tmp_path, capsys):
        # First run: no baseline yet, records BENCH_8.json.
        assert main(["--quick", "--check", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no baseline recorded yet" in out
        recorded = tmp_path / "BENCH_8.json"
        assert recorded.exists()
        doc = json.loads(recorded.read_text())
        assert doc["schema"] == SCHEMA

        # Second run against the recorded baseline: deterministic, clean.
        assert main(
            ["--quick", "--check", "--no-record", "--out-dir", str(tmp_path)]
        ) == 0
        assert "ok: no regression" in capsys.readouterr().out

        # Synthetic 2x slowdown: a baseline claiming twice our
        # throughput and half our latency must fail the check.
        inflated = copy.deepcopy(doc)
        inflated["results"]["throughput_mops"] *= 2.0
        inflated["results"]["p999_us"] /= 2.0
        baseline = tmp_path / "BENCH_9.json"
        baseline.write_text(json.dumps(inflated))
        assert main([
            "--quick", "--check", "--no-record",
            "--out-dir", str(tmp_path), "--baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "throughput_mops" in out

    def test_config_mismatch_against_baseline_fails(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_8.json"
        baseline.write_text(json.dumps(_fake_doc()))
        assert main([
            "--quick", "--check", "--no-record",
            "--out-dir", str(tmp_path), "--baseline", str(baseline),
        ]) == 1
        assert "config mismatch" in capsys.readouterr().out

    def test_non_bench_baseline_rejected(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_8.json"
        bad.write_text(json.dumps({"schema": "other/v1"}))
        assert main([
            "--quick", "--check", "--no-record",
            "--out-dir", str(tmp_path), "--baseline", str(bad),
        ]) == 1
        assert "is not a" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--index", "--workload"])
    def test_unknown_name_is_a_usage_error(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--quick", flag, "nope", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
