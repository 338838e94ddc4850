"""Benchmark harness: runs (index × dataset × workload × threads) cells.

- :mod:`repro.bench.harness` — trace a workload against a real index,
  replay on the concurrency simulator, summarize.
- :mod:`repro.bench.runner` — cached datasets, experiment grids, scale
  control via the ``REPRO_SCALE`` environment variable.
- :mod:`repro.bench.memory` — modeled-memory breakdowns (Fig. 8a).
- :mod:`repro.bench.reporting` — paper-style text tables.
"""

from repro.bench.harness import (
    ExperimentResult,
    batch_microbenchmark,
    run_experiment,
    trace_ops,
)
from repro.bench.memory import memory_breakdown
from repro.bench.reporting import format_table
from repro.bench.runner import (
    INDEX_FACTORIES,
    base_ops,
    base_scale,
    get_dataset,
)

__all__ = [
    "ExperimentResult",
    "INDEX_FACTORIES",
    "base_ops",
    "base_scale",
    "batch_microbenchmark",
    "format_table",
    "get_dataset",
    "memory_breakdown",
    "run_experiment",
    "trace_ops",
]
