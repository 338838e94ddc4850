"""Self-test of the benchmark code at tiny scale.

Run from the repository root::

    python3 -m pytest wallbench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from wallbench import layers, streams, workloads  # noqa: E402

TINY = dict(n_keys=20_000, prefix_rounds=2, setups=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool, seed: int = 7) -> dict:
    # seconds=0: an untraced run stops right after the fixed prefix.
    return workloads.run(name, seed, 0.0, trace, **TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(name):
    out = tiny_run(name, trace=False)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert out["detail"]["error_rate"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    for k, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, k


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    out = tiny_run(name, trace=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert out["detail"]["gauges_match_untraced"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.unattributed_ms"] >= 0
    if name == "sharded-read":
        assert m["art.items.calls"] == 0  # read-only: the sorted view stays valid


def test_traced_run_restores_every_wrapped_attribute():
    before = layers.current_attrs()
    tiny_run("point-rw", trace=True)
    after = layers.current_attrs()
    assert all(after[k] is before[k] for k in before)
    with pytest.raises(RuntimeError):
        with layers.LayerTracer():
            assert layers.current_attrs()["alt_index.get"] is not before["alt_index.get"]
            raise RuntimeError("abort mid-trace")
    after = layers.current_attrs()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_outermost_wall_time():
    from repro.core.alt_index import ALTIndex

    import numpy as np

    keys = np.arange(1, 5_000, 3, dtype=np.uint64)
    index = ALTIndex.bulk_load(keys)
    with layers.LayerTracer() as tracer:
        ph = tracer.phase("measure")
        for k in range(0, 3_000, 7):
            index.get(k)
            index.insert(k + 5_000, k)
    assert ph.cells["alt_index.get"][0] == len(range(0, 3_000, 7))
    assert ph.self_ns_total() == ph.top_ns


_FINGERPRINT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from wallbench import workloads
out = workloads.run(sys.argv[2], 11, 0.0, True, n_keys=20_000, prefix_rounds=2, setups=1)
print(json.dumps([out["detail"]["fingerprint"], out["detail"]["untraced_gauges"]]))
"""


@pytest.mark.parametrize("name", ["point-rw", "batch-rw"])
def test_call_counts_and_gauges_repeat_across_processes(name):
    """Same seed, two processes with different hash seeds: the per-layer
    call counts and the exact gauges must be identical."""
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        p = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT, str(ROOT), name],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]


def test_every_batch_get_size_follows_a_mutation_once_per_four_rounds():
    import numpy as np

    stream = streams.BatchStream(oracle=None, rng=np.random.default_rng(5))
    b = stream.BLOCK
    rounds = [stream._get_sizes() for _ in range(b)]
    grid = sorted(streams.log_uniform_grid(b * b, stream.MIN_BATCH, stream.MAX_BATCH).tolist())
    assert all(sorted(sizes) == grid for sizes in rounds)
    assert sorted(s for sizes in rounds for s in sizes[::b]) == grid


class _CorruptingIndex:
    """Delegates to a real index but answers every fifth get wrongly."""

    def __init__(self, inner):
        self._inner = inner
        self._gets = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get(self, key):
        self._gets += 1
        value = self._inner.get(key)
        return value + 1 if self._gets % 5 == 0 else value


def test_oracle_catches_wrong_answers():
    w = workloads.WORKLOADS["point-rw"]
    universe, loaded = workloads.make_dataset(w, 20_000)
    index = workloads.build_index(w, universe, loaded)
    oracle, stream = workloads._fresh_stream(w, universe, loaded, 3)
    meter = workloads.Meter()
    meter.run_round(_CorruptingIndex(index), stream.next_round())
    gets = stream.ROUND.count(streams.GET)
    assert meter.failed == gets // 5
    assert meter.errors
