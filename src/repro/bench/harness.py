"""Trace-and-simulate experiment execution.

An experiment runs in three phases:

1. **Build** — bulk-load the index with the dataset split's load keys.
2. **Trace** — execute the generated operation stream against the real
   index, recording one :class:`~repro.sim.trace.CostTrace` per op.
3. **Simulate** — replay the traces on N virtual threads
   (:func:`repro.sim.engine.simulate`) to obtain throughput and latency.

Phases 1-2 exercise real data-structure code (correctness); phase 3
prices it under concurrency (performance).  See DESIGN.md §1 for why the
reproduction is split this way.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common import OrderedIndex
from repro.obs.spans import SpanProfile, profiled, span
from repro.sim.engine import SimConfig, SimResult, simulate
from repro.sim.metrics import LatencySummary, summarize_latencies
from repro.sim.trace import CostTrace, tracer
from repro.workloads.generator import DatasetSplit, Operation, generate_ops, split_dataset
from repro.workloads.spec import WorkloadSpec


#: op kind -> envelope span name (registered in repro.obs.taxonomy)
_OP_SPAN = {"read": "op.read", "insert": "op.insert", "scan": "op.scan"}


@dataclass
class ExperimentResult:
    """One cell of a paper table/figure."""

    index_name: str
    dataset: str
    workload: str
    threads: int
    n_ops: int
    sim: SimResult
    latency: LatencySummary
    build_seconds: float
    index_stats: dict = field(default_factory=dict)
    #: protocol health counters summed over the measured traces
    #: (``recoveries`` comes from the index's own stats, since stuck-slot
    #: repair is not a per-op trace scalar).
    retries: int = 0
    fallbacks: int = 0
    recoveries: int = 0
    #: single-thread modeled cost of the full traced stream (warmup
    #: included), priced like span buckets — the denominator the span
    #: attribution sums are checked against.  Computed only when a span
    #: profile was active for the run.
    modeled_total_ns: float = 0.0

    @property
    def throughput_mops(self) -> float:
        return self.sim.throughput_mops

    @property
    def p999_us(self) -> float:
        return self.latency.p999_us

    def row(self) -> dict:
        """Flat dict for table printing."""
        return {
            "index": self.index_name,
            "dataset": self.dataset,
            "workload": self.workload,
            "threads": self.threads,
            "mops": round(self.throughput_mops, 3),
            "p999_us": round(self.p999_us, 2),
            "hit_rate": round(self.sim.hit_rate, 3),
            "conflicts": self.sim.conflicts,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "recoveries": self.recoveries,
        }


def trace_ops(index: OrderedIndex, ops: list[Operation]) -> list[CostTrace]:
    """Run operations against the index, one cost trace per op.

    Each trace is labeled with the op kind (for timeline export) and,
    when a span profile is active, the whole op runs inside an
    ``op.<kind>`` envelope span: every traced event then lands in *some*
    span, which is what makes per-span totals sum to the trace total.
    """
    traces: list[CostTrace] = []
    append = traces.append
    for op in ops:
        kind = op.kind
        with tracer() as t, span(_OP_SPAN[kind]):
            if kind == "read":
                index.get(op.key)
            elif kind == "insert":
                index.insert(op.key, op.key)
            else:
                index.scan(op.key, op.length)
        t.op_label = kind
        append(t)
    return traces


def run_experiment(
    index_cls,
    dataset_name: str,
    keys: np.ndarray,
    spec: WorkloadSpec,
    threads: int = 32,
    n_ops: int = 20_000,
    seed: int = 0,
    load_frac: float = 0.5,
    theta: float = 0.99,
    warmup_frac: float = 0.5,
    sim_config: SimConfig | None = None,
    bulk_options: dict | None = None,
    profile: SpanProfile | None = None,
    timeline=None,
) -> ExperimentResult:
    """Run one (index, dataset, workload, threads) experiment cell.

    ``warmup_frac`` extra operations are prepended and executed but
    excluded from the reported metrics, so virtual caches measure steady
    state rather than cold starts.

    ``profile`` activates layer-attributed span accounting for the trace
    phase (see :mod:`repro.obs.spans`); ``timeline`` is handed to the
    simulator to capture the virtual-thread schedule as Chrome trace
    events (see :mod:`repro.obs.timeline`).
    """
    split = split_dataset(keys, load_frac, seed=seed)
    start = time.perf_counter()
    index = index_cls.bulk_load(split.load_keys, **(bulk_options or {}))
    build_seconds = time.perf_counter() - start
    warmup = int(n_ops * warmup_frac)
    ops = generate_ops(spec, split, n_ops + warmup, theta=theta, seed=seed)

    config = sim_config or SimConfig(threads=threads)
    modeled_total_ns = 0.0
    if profile is not None:
        with profiled(profile):
            traces = trace_ops(index, ops)
        modeled_total_ns = sum(config.cost_model.sequential_ns(t) for t in traces)
    else:
        traces = trace_ops(index, ops)
    sim = simulate(traces, config, warmup=warmup, timeline=timeline)
    measured = traces[warmup:]
    index_stats = index.stats()
    return ExperimentResult(
        index_name=index_cls.NAME,
        dataset=dataset_name,
        workload=spec.name,
        threads=threads,
        n_ops=n_ops,
        sim=sim,
        latency=summarize_latencies(sim.latencies_ns),
        build_seconds=build_seconds,
        index_stats=index_stats,
        retries=sum(t.retries for t in measured),
        fallbacks=sum(t.fallbacks for t in measured),
        recoveries=int(index_stats.get("recoveries", 0)),
        modeled_total_ns=modeled_total_ns,
    )


def batch_microbenchmark(
    index_cls,
    dataset_name: str = "lognormal",
    n: int = 1_000_000,
    batch_size: int = 1024,
    lookups: int = 102_400,
    seed: int = 0,
    verify: bool = True,
) -> dict:
    """Wall-clock scalar-vs-batch ``batch_get`` comparison (one row).

    Builds the index on the full dataset, samples ``lookups`` present
    keys, and times the per-key loop against the batch API at
    ``batch_size``.  With ``verify`` (default), also asserts result
    equality and scalar/batch CostTrace total-equality on a prefix.
    """
    from repro.datasets.generators import dataset

    keys = dataset(dataset_name, n, seed=seed)
    start = time.perf_counter()
    index = index_cls.bulk_load(keys)
    build_seconds = time.perf_counter() - start
    rng = np.random.default_rng(seed + 1)
    probe = rng.choice(keys, size=lookups, replace=True).astype(np.uint64)

    index.batch_get(probe[:batch_size])  # warm caches and snapshots
    # GC off around the timed loops (as timeit does) so mid-loop cyclic
    # collections don't charge a caller-dependent tax to either side.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        batch_results: list = []
        for i in range(0, len(probe), batch_size):
            batch_results.extend(index.batch_get(probe[i : i + batch_size]))
        batch_seconds = time.perf_counter() - start

        start = time.perf_counter()
        get = index.get
        scalar_results = [get(int(k)) for k in probe]
        scalar_seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()

    if verify:
        if scalar_results != batch_results:
            raise AssertionError("batch_get results diverge from per-key loop")
        prefix = probe[: min(len(probe), 2 * batch_size)]
        with tracer() as ts:
            for k in prefix:
                get(int(k))
        with tracer() as tb:
            for i in range(0, len(prefix), batch_size):
                index.batch_get(prefix[i : i + batch_size])
        if ts.scalars() != tb.scalars() or sorted(ts.reads) != sorted(tb.reads):
            raise AssertionError("batch CostTrace totals diverge from scalar totals")

    return {
        "index": index_cls.NAME,
        "dataset": dataset_name,
        "n_keys": n,
        "batch": batch_size,
        "scalar_us_op": round(scalar_seconds / lookups * 1e6, 3),
        "batch_us_op": round(batch_seconds / lookups * 1e6, 3),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "build_s": round(build_seconds, 2),
    }


def batch_write_microbenchmark(
    index_cls,
    dataset_name: str = "lognormal",
    n: int = 1_000_000,
    batch_size: int = 1024,
    writes: int = 102_400,
    seed: int = 0,
    op: str = "insert",
    verify: bool = True,
) -> dict:
    """Wall-clock scalar-vs-batch write comparison (one row).

    ``op="insert"``: bulk-load two identical indexes on half the
    dataset, then apply the same ``writes`` pending keys to one through
    the per-key ``insert`` loop and to the other through
    ``batch_insert`` chunks of ``batch_size``.  ``op="remove"`` loads
    both on the full dataset and removes the sampled keys instead.
    With ``verify`` (default), asserts the per-key success flags match
    and spot-checks lookups on both indexes afterwards.
    """
    if op not in ("insert", "remove"):
        raise ValueError(f"op must be 'insert' or 'remove', got {op!r}")
    from repro.datasets.generators import dataset

    keys = dataset(dataset_name, n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    if op == "insert":
        load = keys[::2]
        pending = keys[1::2].copy()
        rng.shuffle(pending)
        pending = pending[:writes]
    else:
        load = keys
        pending = rng.choice(keys, size=writes, replace=False).astype(np.uint64)

    start = time.perf_counter()
    scalar_idx = index_cls.bulk_load(load)
    batch_idx = index_cls.bulk_load(load)
    build_seconds = time.perf_counter() - start

    # Disable GC around both timed loops (as timeit does): cyclic
    # collections triggered mid-loop scan the whole process heap and
    # would charge an arbitrary caller-dependent tax to either side.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if op == "insert":
            ins = scalar_idx.insert
            scalar_flags = [ins(int(k), int(k)) for k in pending]
        else:
            rem = scalar_idx.remove
            scalar_flags = [rem(int(k)) for k in pending]
        scalar_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch_flags: list = []
        for i in range(0, len(pending), batch_size):
            chunk = pending[i : i + batch_size]
            if op == "insert":
                flags = batch_idx.batch_insert(chunk, [int(k) for k in chunk])
            else:
                flags = batch_idx.batch_remove(chunk)
            batch_flags.extend(bool(f) for f in flags)
        batch_seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()

    if verify:
        if scalar_flags != batch_flags:
            raise AssertionError(f"batch_{op} flags diverge from per-key loop")
        if len(scalar_idx) != len(batch_idx):
            raise AssertionError("index sizes diverge after batch writes")
        sample = rng.choice(pending, size=min(2048, len(pending)), replace=False)
        sg = [scalar_idx.get(int(k)) for k in sample]
        bg = batch_idx.batch_get(sample.astype(np.uint64))
        if sg != bg:
            raise AssertionError(f"lookups diverge after batch_{op}")

    return {
        "index": index_cls.NAME,
        "dataset": dataset_name,
        "op": op,
        "n_keys": n,
        "batch": batch_size,
        "scalar_us_op": round(scalar_seconds / len(pending) * 1e6, 3),
        "batch_us_op": round(batch_seconds / len(pending) * 1e6, 3),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "build_s": round(build_seconds, 2),
    }


def run_observed_experiment(
    index_cls,
    dataset_name: str,
    keys: np.ndarray,
    spec: WorkloadSpec,
    threads: int = 32,
    n_ops: int = 20_000,
    seed: int = 0,
) -> tuple[ExperimentResult, SpanProfile, "object", dict]:
    """One fully-observed experiment cell: spans + metrics + timeline.

    Runs :func:`run_experiment` with a span profile, a metrics registry,
    and a timeline recorder all active, and returns
    ``(result, profile, timeline, metrics_snapshot)`` — the pieces the
    ``--emit-metrics`` / ``--emit-timeline`` CLI paths serialize.
    """
    from repro.obs.metrics import MetricsRegistry, metrics_registry
    from repro.obs.timeline import TimelineRecorder

    profile = SpanProfile()
    recorder = TimelineRecorder()
    registry = MetricsRegistry()
    with metrics_registry(registry):
        result = run_experiment(
            index_cls,
            dataset_name,
            keys,
            spec,
            threads=threads,
            n_ops=n_ops,
            seed=seed,
            profile=profile,
            timeline=recorder,
        )
    return result, profile, recorder, registry.snapshot()


def metrics_document(
    result: ExperimentResult, profile: SpanProfile, metrics_snapshot: dict, cost_model
) -> dict:
    """The ``--emit-metrics`` JSON document.

    ``span_total_modeled_ns`` is the sum of the per-layer buckets;
    ``modeled_total_ns`` is the same traced stream priced without span
    attribution — the two agree within rounding, which is the
    observability layer's no-event-lost invariant.
    """
    return {
        "experiment": result.row(),
        "modeled_total_ns": result.modeled_total_ns,
        "span_total_modeled_ns": profile.total_modeled_ns(cost_model),
        "spans": profile.as_dict(cost_model),
        "metrics": metrics_snapshot,
        # Index health snapshot (drift/occupancy/spill/backlog) — sampled
        # by ALTIndex.stats() at the end of the run, so --emit-metrics
        # carries it without a separate flag.  None for baseline indexes
        # whose stats() has no health section.
        "health": result.index_stats.get("health"),
    }


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench.harness``: the batch-layer microbenchmark.

    Measures scalar-vs-batch wall-clock throughput (the EXPERIMENTS.md
    batch table) of ``--op`` get, insert or remove.

    With ``--emit-metrics`` / ``--emit-timeline``, runs one fully
    observed simulated workload cell (``--workload``) instead: span
    attribution + metrics registry land in the metrics JSON, and the
    simulator's virtual-thread schedule lands in a Chrome trace-event
    file loadable in Perfetto.
    """
    import argparse
    import json

    from repro.bench.reporting import format_span_table, format_table
    from repro.bench.runner import INDEX_FACTORIES
    from repro.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness",
        description="Scalar-vs-batch index operation microbenchmark.",
    )
    parser.add_argument("--dataset", default="lognormal")
    parser.add_argument("--n", type=int, default=1_000_000, help="dataset size in keys")
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--lookups", type=int, default=102_400)
    parser.add_argument(
        "--op",
        choices=("get", "insert", "remove"),
        default="get",
        help="which batch path to microbenchmark (default: get)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument("--ops", type=int, default=20_000, help="workload ops to trace")
    parser.add_argument(
        "--index",
        action="append",
        choices=sorted(INDEX_FACTORIES),
        help="index to benchmark (repeatable; default: ALT-index)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        choices=sorted(WORKLOADS),
        help="workload of the --emit-metrics/--emit-timeline cell "
        "(default: balanced)",
    )
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help="run an observed workload cell; write span+metrics JSON here",
    )
    parser.add_argument(
        "--emit-timeline",
        default=None,
        metavar="PATH",
        help="run an observed workload cell; write a Perfetto-loadable "
        "Chrome trace-event JSON of the simulated schedule here",
    )
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        parser.error(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.lookups < 1:
        parser.error(f"--lookups must be >= 1, got {args.lookups}")
    if args.workload is not None and not (args.emit_metrics or args.emit_timeline):
        parser.error("--workload needs --emit-metrics or --emit-timeline")

    if args.emit_metrics or args.emit_timeline:
        from repro.datasets.generators import dataset

        spec = WORKLOADS[args.workload or "balanced"]
        keys = dataset(args.dataset, args.n, seed=args.seed)
        cls = INDEX_FACTORIES[args.index[0] if args.index else "ALT-index"]
        result, profile, recorder, snapshot = run_observed_experiment(
            cls,
            args.dataset,
            keys,
            spec,
            threads=args.threads,
            n_ops=args.ops,
            seed=args.seed,
        )
        cost_model = SimConfig(threads=args.threads).cost_model
        print(format_table([result.row()]))
        print(format_span_table(profile, cost_model))
        if args.emit_metrics:
            doc = metrics_document(result, profile, snapshot, cost_model)
            with open(args.emit_metrics, "w") as fh:
                json.dump(doc, fh, indent=1)
            print(f"metrics -> {args.emit_metrics}")
        if args.emit_timeline:
            recorder.write(args.emit_timeline)
            print(f"timeline -> {args.emit_timeline} ({len(recorder.events)} events)")
        return 0

    rows = []
    for name in args.index or ["ALT-index"]:
        if args.op == "get":
            rows.append(
                batch_microbenchmark(
                    INDEX_FACTORIES[name],
                    dataset_name=args.dataset,
                    n=args.n,
                    batch_size=args.batch_size,
                    lookups=args.lookups,
                    seed=args.seed,
                    verify=not args.no_verify,
                )
            )
        else:
            rows.append(
                batch_write_microbenchmark(
                    INDEX_FACTORIES[name],
                    dataset_name=args.dataset,
                    n=args.n,
                    batch_size=args.batch_size,
                    writes=args.lookups,
                    seed=args.seed,
                    op=args.op,
                    verify=not args.no_verify,
                )
            )
    print(format_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
