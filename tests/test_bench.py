"""Tests for the benchmark harness, reporting, and memory accounting."""

import json

import numpy as np
import pytest

from repro.bench import (
    format_table,
    get_dataset,
    memory_breakdown,
    run_experiment,
    trace_ops,
)
from repro.bench.harness import batch_write_microbenchmark, main
from repro.bench.memory import bytes_per_key
from repro.bench.reporting import banner
from repro.core.alt_index import ALTIndex
from repro.sim.engine import SimConfig
from repro.sim.trace import MemoryMap
from repro.workloads import BALANCED, READ_ONLY
from repro.workloads.generator import Operation, split_dataset


class TestTraceOps:
    def test_one_trace_per_op(self, small_keys):
        idx = ALTIndex.bulk_load(small_keys, memory=MemoryMap())
        ops = [
            Operation("read", int(small_keys[3])),
            Operation("insert", int(small_keys[3]) + 1),
            Operation("scan", int(small_keys[0]), 5),
        ]
        traces = trace_ops(idx, ops)
        assert len(traces) == 3
        assert all(t.reads or t.writes for t in traces)


class TestRunExperiment:
    def test_end_to_end(self, sorted_keys):
        r = run_experiment(
            ALTIndex, "test", sorted_keys, BALANCED, threads=4, n_ops=800
        )
        assert r.index_name == "ALT-index"
        assert r.workload == "balanced"
        assert r.threads == 4
        assert r.throughput_mops > 0
        assert r.latency.count == 800
        assert r.build_seconds > 0
        assert "model_count" in r.index_stats
        assert r.p999_us > 0

    def test_row_is_flat(self, sorted_keys):
        r = run_experiment(
            ALTIndex, "d", sorted_keys, READ_ONLY, threads=2, n_ops=400
        )
        row = r.row()
        assert row["index"] == "ALT-index"
        assert isinstance(row["mops"], float)

    def test_more_threads_scale_read_only(self, sorted_keys):
        r1 = run_experiment(ALTIndex, "d", sorted_keys, READ_ONLY, threads=1, n_ops=2000, seed=3)
        r16 = run_experiment(ALTIndex, "d", sorted_keys, READ_ONLY, threads=16, n_ops=2000, seed=3)
        assert r16.throughput_mops > 3 * r1.throughput_mops

    def test_custom_sim_config(self, sorted_keys):
        cfg = SimConfig(threads=2)
        r = run_experiment(
            ALTIndex, "d", sorted_keys, READ_ONLY, n_ops=300, sim_config=cfg
        )
        assert r.sim.threads == 2


class TestBatchWriteSmoke:
    """``batch_write_microbenchmark`` at a small size: its built-in
    verification cross-checks the batch run against the scalar twin
    (per-key flags, index sizes, lookups).  The wall-clock speedup
    assertions live in ``benchmarks/bench_fig3.py``, where host load
    cannot fail the unit suite."""

    @pytest.mark.parametrize("op", ["insert", "remove"])
    def test_batch_write_verifies(self, op):
        row = batch_write_microbenchmark(
            ALTIndex, n=20_000, batch_size=256, writes=2_560, op=op
        )
        assert (row["op"], row["n_keys"], row["batch"]) == (op, 20_000, 256)

    def test_verification_catches_wrong_flags(self):
        class WrongFlags(ALTIndex):
            def batch_remove(self, keys):
                return ~super().batch_remove(keys)

        with pytest.raises(AssertionError, match="flags diverge"):
            batch_write_microbenchmark(
                WrongFlags, n=4_000, batch_size=64, writes=256, op="remove"
            )


class TestHarnessCli:
    def test_workload_without_emit_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workload", "read-only"])
        assert exc.value.code == 2
        assert "--workload needs --emit-metrics" in capsys.readouterr().err

    def test_zero_lookups_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "1000", "--lookups", "0"])
        assert exc.value.code == 2
        assert "--lookups must be >= 1" in capsys.readouterr().err

    def test_emit_metrics_runs_the_named_workload(self, tmp_path):
        out = tmp_path / "metrics.json"
        argv = ["--n", "5000", "--ops", "400", "--threads", "4"]
        assert main(argv + ["--workload", "read-only", "--emit-metrics", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["experiment"]["workload"] == "read-only"
        assert doc["experiment"]["threads"] == 4
        assert doc["modeled_total_ns"] == pytest.approx(doc["span_total_modeled_ns"])


class TestDatasets:
    def test_get_dataset_cached(self):
        a = get_dataset("libio", 2000)
        b = get_dataset("libio", 2000)
        assert a is b


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "b": 0.5}]
        out = format_table(rows)
        lines = out.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "2.346" in out

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_headers_subset(self):
        out = format_table([{"a": 1, "b": 2}], headers=["b"])
        assert "a" not in out.splitlines()[0]

    def test_banner(self):
        assert "Table I" in banner("Table I")


class TestMemory:
    def test_breakdown_tags(self, small_keys):
        idx = ALTIndex.bulk_load(small_keys, memory=MemoryMap())
        parts = memory_breakdown(idx)
        assert any("learned" in tag for tag in parts)
        assert sum(parts.values()) == idx.memory_bytes()

    def test_bytes_per_key_reasonable(self, sorted_keys):
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        bpk = bytes_per_key(idx)
        assert 16 <= bpk <= 200
