"""The three workloads: set-up, the timed closed loop, and the metrics.

One client thread drives the index in a closed loop: each call is issued
after the previous one returned.  Only the index call itself is inside
the timer; generating operations, checking results against the oracle
and the host-speed calibration run between calls or between rounds.

An untraced run is ``setups`` *episodes*; each builds a fresh index
(timed for ``setup_s``) and drives it with its own seeded stream until
``seconds / setups`` have passed or it has run ``max_rounds``.  Spread
over the run, the episodes average the host's drift better than one
long phase, and no index runs past its work cap.  The first episode
starts with a fixed *prefix* of its stream (``prefix_rounds``) and
takes the deterministic record there: the exact gauges, the workload
properties and ``bytes_per_key``.  A traced run is one episode that
stops at the prefix, so its per-layer call counts depend only on the
seed.  The work cap bounds memory: on ``point-rw`` the
program's retraining starts doubling tiny models without limit after
about 40K inserts (some reach 33M slots and the process several GB
after 60K), so a faster program must not simply run further into it.
``point-rw`` stops at its prefix for a second reason: past 100 rounds
(20K inserts) the program loses inserted keys on some seeds.  A
model's fast pointer still names a ``Leaf`` after the ART under it has
grown, so a scalar ``get`` that starts its ART search there misses a
conflict key that a search from the root finds.  Of 26 seeds, two lost
keys (the first at round 115; seed 401 reads one at round 164), and
none lost any within 100 rounds.

Host-speed normalisation: a shared host's speed drifts by tens of
percent within seconds, far more than the changes this benchmark should
detect.  :func:`calibrate` times a fixed pure-Python loop every
``CAL_EVERY_NS`` of the measured phase (and around each set-up), and
every end-to-end *time* is reported at reference host speed: each
call's time is scaled by ``CAL_REF_NS / median(loop time)`` over the
``CAL_NEAREST`` loop samples taken nearest to it.  (Scaling whole
rounds by one factor spread twice as much on ``batch-rw``, whose
rounds last about a second; a loop over a large array, meant to track
memory contention, spread more than the pure-Python one.)  The raw
figures and the loop times are kept in the detail record.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from wallbench import layers, streams

N_KEYS = 1_000_000
DATASET_SEED = 0
# Tail = the highest of these percentiles with TAIL_MIN_BEYOND samples
# beyond it.  The ladder stops at p90: on a shared host p99 and above
# read the host's hiccups more than the program (p99 spread twice as
# much from run to run as p90 did).
TAIL_LADDER = (90.0, 50.0)
TAIL_MIN_BEYOND = 10
PROPERTY_SAMPLE = 20_000
CAL_LOOP = 5_000
CAL_REF_NS = 400_000  # loop time on the reference host
CAL_EVERY_NS = 10_000_000
CAL_NEAREST = 6
CAL_AROUND_SETUP = 32


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    sharded: bool
    stream: type
    prefix_rounds: int  # deterministic record, and all a traced run does
    max_rounds: int  # work cap of an untraced run
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point-rw", "osm", False, streams.PointStream, 100, 100,
            "scalar get/insert/remove/scan on osm, the hardest CDF, so every "
            "Algorithm 2 branch, expansions and tombstones get real traffic",
        ),
        Workload(
            "batch-rw", "osm", False, streams.BatchStream, 4, 12,
            "batch get/insert/remove of 8..1024 keys; every mutation invalidates "
            "the ART sorted-view cache, so the working set exceeds the caches",
        ),
        Workload(
            "sharded-read", "lognormal", True, streams.ReadStream, 32, 128,
            "read-only 256-key batch_get over 4 range shards; the view caches "
            "stay valid, so the working set fits and the router is exercised",
        ),
    )
}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def make_dataset(w: Workload, n_keys: int):
    from repro.datasets.generators import dataset
    from repro.workloads.generator import split_dataset

    universe = dataset(w.dataset, n_keys, seed=DATASET_SEED)
    split = split_dataset(universe, load_frac=0.5, seed=DATASET_SEED)
    loaded = np.isin(universe, split.load_keys, assume_unique=True)
    return universe, loaded


def build_index(w: Workload, universe: np.ndarray, loaded: np.ndarray):
    """Bulk load plus the lazy caches the first timed call would build."""
    from repro.core.alt_index import ALTIndex
    from repro.shard.sharded import ShardedALTIndex
    from repro.sim.trace import MemoryMap

    load_pos = np.flatnonzero(loaded)
    keys = universe[load_pos]
    values = load_pos.tolist()
    memory = MemoryMap()
    if w.sharded:
        index = ShardedALTIndex.bulk_load(keys, values, shards=4, memory=memory, tag="bench")
    else:
        index = ALTIndex.bulk_load(keys, values, memory=memory, tag="bench")
    if w.stream is not streams.PointStream:
        # One read per shard and model builds the layer geometry and the
        # sorted ART view, as the first timed batch would.
        index.batch_get(keys[:: max(len(keys) // 5000, 1)])
    return index


def timed_setup(w: Workload, universe, loaded, tracer=None):
    """Build once; returns the index, the raw set-up time and the
    host-speed scale measured around it."""
    gc.collect()
    calib = [calibrate() for _ in range(CAL_AROUND_SETUP)]
    if tracer is not None:
        tracer.phase("setup")
    t0 = time.perf_counter()
    index = build_index(w, universe, loaded)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.phase("idle")
    calib += [calibrate() for _ in range(CAL_AROUND_SETUP)]
    return index, elapsed, host_scale(calib)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def calibrate() -> int:
    """One pass of a fixed pure-Python loop (ns); its time tracks how
    fast the host runs the interpreter right now.

    A loop over a large private dict was tried too: its cache misses
    made it swing far more than the index's own speed did.
    """
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(CAL_LOOP):
        acc = (acc * 31 + i) % 65_521
    return time.perf_counter_ns() - t0


def host_scale(samples: list[int]) -> float:
    """Factor converting a time measured while ``samples`` were taken to
    reference host speed."""
    return CAL_REF_NS / statistics.median(samples)


class Meter:
    """Per-kind call latencies, key counts, oracle mismatches and the
    host-speed samples taken between calls."""

    def __init__(self) -> None:
        kinds = range(len(streams.KIND_NAMES))
        self.lat_ns: dict[int, list[int]] = {k: [] for k in kinds}
        self.starts: dict[int, list[int]] = {k: [] for k in kinds}
        self.attempted = 0
        self.failed = 0
        self.timed_ns = 0
        self.rounds = 0
        self.errors: list[str] = []
        self.batch_sizes: dict[int, int] = {}
        self.calib: list[int] = []
        self.calib_at: list[int] = []
        self._next_cal = 0

    def run_round(self, index, ops: list[tuple]) -> None:
        # Bound per round, after any tracer shims are installed.
        methods = (
            index.get, index.insert, index.remove, index.scan,
            index.batch_get, index.batch_insert, index.batch_remove,
        )
        perf = time.perf_counter_ns
        results = []
        for kind, args, _expected, _n in ops:
            fn = methods[kind]
            t0 = perf()
            try:
                r = fn(*args)
            except Exception as exc:  # a failed call counts against error_rate
                r = exc
            t1 = perf()
            results.append((t0, t1 - t0, r))
            if t1 >= self._next_cal:
                self.calib_at.append(t1)
                self.calib.append(calibrate())
                self._next_cal = perf() + CAL_EVERY_NS
        self.rounds += 1
        for (kind, _args, expected, nkeys), (t0, dt, r) in zip(ops, results):
            self.lat_ns[kind].append(dt)
            self.starts[kind].append(t0)
            self.timed_ns += dt
            self.attempted += nkeys
            bucket = 1 << (nkeys.bit_length() - 1)  # power-of-two floor
            self.batch_sizes[bucket] = self.batch_sizes.get(bucket, 0) + 1
            self.failed += _mismatches(kind, r, expected, nkeys, self.errors)

    def at_reference_speed(self) -> dict[int, list[float]]:
        """Each call's latency scaled to reference host speed by the
        ``CAL_NEAREST`` loop samples taken nearest to it."""
        at, calib = self.calib_at, self.calib
        # scale[j]: for a call started after j loop samples were taken.
        scale = []
        for j in range(len(calib) + 1):
            lo = max(min(j - CAL_NEAREST // 2, len(calib) - CAL_NEAREST), 0)
            scale.append(host_scale(calib[lo:lo + CAL_NEAREST]))
        return {
            kind: [dt * scale[bisect.bisect_left(at, t0)] for t0, dt in zip(starts, self.lat_ns[kind])]
            for kind, starts in self.starts.items()
        }


def _mismatches(kind: int, got, expected, nkeys: int, errors: list[str]) -> int:
    if isinstance(got, Exception):
        if len(errors) < 5:
            errors.append(f"{streams.KIND_NAMES[kind]}: {type(got).__name__}: {got}")
        return nkeys
    if kind in (streams.BATCH_INSERT, streams.BATCH_REMOVE):
        got = [bool(x) for x in got]
    if kind in (streams.GET, streams.INSERT, streams.REMOVE, streams.SCAN):
        got, expected = [got], [expected]
    if len(got) != len(expected):
        bad = nkeys
    elif got == expected:
        return 0
    else:
        bad = sum(1 for a, b in zip(got, expected) if a != b)
    if len(errors) < 5:
        errors.append(f"{streams.KIND_NAMES[kind]}: {bad} of {nkeys} keys disagree with the oracle")
    return bad


def run_rounds(meter: Meter, index, stream, rounds: int, deadline: float | None = None) -> int:
    """Run ``rounds`` rounds, or fewer if the ``deadline`` passes or the
    stream runs out of fresh keys; returns the number run."""
    done = 0
    while done < rounds and stream.can_continue():
        if deadline is not None and time.perf_counter() >= deadline:
            break
        meter.run_round(index, stream.next_round())
        done += 1
    return done


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def percentile(sorted_vals: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    i = max(int(np.ceil(q / 100.0 * len(sorted_vals))) - 1, 0)
    return sorted_vals[min(i, len(sorted_vals) - 1)]


def latency_summary(samples: list[int]) -> dict | None:
    """Median and the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it, in microseconds."""
    if not samples:
        return None
    vals = sorted(samples)
    n = len(vals)
    q = next((q for q in TAIL_LADDER if n * (1 - q / 100.0) >= TAIL_MIN_BEYOND), None)
    return {
        "p50_us": percentile(vals, 50.0) / 1e3,
        "tail_us": (percentile(vals, q) if q is not None else vals[-1]) / 1e3,
        "tail_percentile": q if q is not None else 100.0,
        "samples": n,
    }


def shards_of(index) -> list:
    return list(index.shards) if hasattr(index, "shards") else [index]


def gauges(index) -> dict[str, float]:
    """Exact end-of-prefix gauges (identical for identical streams)."""
    parts = [s.stats() for s in shards_of(index)]
    learned = sum(p["learned_keys"] for p in parts)
    art = sum(p["art_keys"] for p in parts)
    lookups = sum(p["fast_pointers"]["lookups"] for p in parts)
    hits = sum(p["fast_pointers"]["hits"] for p in parts)
    sizes = [len(s) for s in shards_of(index)]
    mean = sum(sizes) / len(sizes)
    return {
        "alt_index.learned_fraction": learned / max(learned + art, 1),
        "alt_index.art_keys": art,
        "alt_index.writebacks": sum(p["writebacks"] for p in parts),
        "alt_index.conflict_inserts": sum(p["conflict_inserts"] for p in parts),
        "retrain.expansions": sum(p["expansions"] for p in parts),
        "fast_pointer.hit_rate": hits / max(lookups, 1),
        "epoch.pending": sum(s.art.epoch.pending() for s in shards_of(index)),
        "shard.imbalance": max(sizes) / mean if mean else 1.0,
    }


def bytes_per_key(index) -> float:
    total = sum(s.memory_bytes() for s in shards_of(index))
    return total / max(len(index), 1)


def learned_read_share(index, oracle: streams.Oracle, seed: int) -> float:
    """Share of a zipf read sample whose predicted slot holds the key,
    i.e. reads the learned layer resolves without the ART."""
    from repro.core.learned_layer import FULL

    u = np.random.default_rng([seed, 1]).random(PROPERTY_SAMPLE)
    keys = np.array([oracle.keys[oracle.live[r]] for r in oracle.zipf_ranks(u)], dtype=np.uint64)
    shards = shards_of(index)
    sid = index.partitioner.route_batch(keys) if len(shards) > 1 else np.zeros(len(keys))
    hits = 0
    for i, shard in enumerate(shards):
        sub = keys[sid == i]
        if len(sub):
            _, _, _, state, resident = shard.layer.probe_live(sub)
            hits += int(((state == FULL) & (resident == sub)).sum())
    return hits / len(keys)


def checkpoint(index, oracle, seed: int) -> dict:
    """The deterministic record taken at the end of the stream prefix."""
    return {
        "gauges": gauges(index),
        "bytes_per_key": bytes_per_key(index),
        "reads_learned_share": learned_read_share(index, oracle, seed),
        # High-water mark through set-up and the prefix: later rounds
        # would make it depend on how fast the host ran.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n_keys: int = N_KEYS,
    prefix_rounds: int | None = None,
    setups: int = 3,
) -> dict:
    """One benchmark run; returns ``{"result": ..., "detail": ...}``."""
    w = WORKLOADS[name]
    rounds = w.prefix_rounds if prefix_rounds is None else prefix_rounds
    universe, loaded = make_dataset(w, n_keys)
    if trace:
        return _run_traced(w, seed, universe, loaded, rounds)
    return _run_timed(w, seed, seconds, universe, loaded, rounds, setups)


def _fresh_stream(w: Workload, universe, loaded, seed: int, episode: int = 0):
    oracle = streams.Oracle(
        universe, loaded, np.random.default_rng(DATASET_SEED),
        np.random.default_rng([seed, 0, episode]),
    )
    return oracle, w.stream(oracle, np.random.default_rng([seed, 2, episode]))


def _settle() -> None:
    gc.collect()
    gc.freeze()  # the index is long-lived: keep it out of collections


def _unsettle() -> None:
    gc.unfreeze()
    gc.collect()


def _run_timed(w, seed, seconds, universe, loaded, rounds, setups) -> dict:
    meter = Meter()
    setup_times, setup_scales = [], []
    wall = 0.0
    for episode in range(setups):
        index, elapsed, scale = timed_setup(w, universe, loaded)
        setup_times.append(elapsed)
        setup_scales.append(scale)
        if episode == 0:
            learned_at_setup = gauges(index)["alt_index.learned_fraction"]
        oracle, stream = _fresh_stream(w, universe, loaded, seed, episode)
        _settle()
        t_start = time.perf_counter()
        budget = w.max_rounds
        if episode == 0:
            budget -= run_rounds(meter, index, stream, rounds)
            prefix = checkpoint(index, oracle, seed)
            prefix_timed_ns = meter.timed_ns
        run_rounds(meter, index, stream, budget, t_start + seconds / setups)
        wall += time.perf_counter() - t_start
        index = oracle = stream = None
        _unsettle()
    at_ref = meter.at_reference_speed()
    lat = {}
    for label, table in (("raw", meter.lat_ns), ("ref", at_ref)):
        lat[label] = {
            "read": latency_summary([x for k in streams.READ_KINDS for x in table[k]]),
            "write": latency_summary([x for k in streams.WRITE_KINDS for x in table[k]]),
            "scan": latency_summary(table[streams.SCAN]),
        }
    reads = lat["ref"]["read"]
    raw_ops_per_s = meter.attempted / (meter.timed_ns / 1e9)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s"),
        "ops_per_s": (meter.attempted / (_total_ns(at_ref) / 1e9), "keys/s"),
        "read_p50_us": (reads["p50_us"], "us"),
        "read_tail_us": (reads["tail_us"], "us"),
        "bytes_per_key": (prefix["bytes_per_key"], "B"),
        "peak_rss_mb": (prefix["peak_rss_mb"], "MB"),
    }
    detail = {
        "workload": w.name,
        "seed": seed,
        "why": w.why,
        "host_scale": host_scale(meter.calib),
        "raw": {"ops_per_s": raw_ops_per_s, "setup_s": setup_times, "setup_scales": setup_scales},
        "wall_s": wall,
        "rounds": meter.rounds,
        "prefix_rounds": rounds,
        "prefix_timed_s": prefix_timed_ns / 1e9,
        "keys": meter.attempted,
        "calls": {streams.KIND_NAMES[k]: len(v) for k, v in meter.lat_ns.items() if v},
        "latency": lat,
        "error_rate": meter.failed / max(meter.attempted, 1),
        "errors": meter.errors,
        "host_calibration_us": _calib_summary(meter.calib),
        "properties": {
            "learned_fraction_setup": learned_at_setup,
            "learned_fraction_prefix_end": prefix["gauges"]["alt_index.learned_fraction"],
            "reads_learned_share": prefix["reads_learned_share"],
            "batch_size_histogram": {str(k): v for k, v in sorted(meter.batch_sizes.items())},
        },
        "prefix_gauges": prefix["gauges"],
    }
    return {"result": _result(meter, metrics), "detail": detail}


def _run_traced(w, seed, universe, loaded, rounds) -> dict:
    # Reference: the same prefix untraced, for trace overhead and as a
    # same-stream determinism check on the gauges.
    index, _, _ = timed_setup(w, universe, loaded)
    learned_at_setup = gauges(index)["alt_index.learned_fraction"]
    oracle, stream = _fresh_stream(w, universe, loaded, seed)
    _settle()
    ref = Meter()
    run_rounds(ref, index, stream, rounds)
    ref_prefix = checkpoint(index, oracle, seed)
    index = oracle = stream = None
    _unsettle()

    meter = Meter()
    with layers.LayerTracer() as tracer:
        index, _, _ = timed_setup(w, universe, loaded, tracer)
        oracle, stream = _fresh_stream(w, universe, loaded, seed)
        _settle()
        tracer.phase("measure")
        run_rounds(meter, index, stream, rounds)
        tracer.phase("idle")
    traced_gauges = gauges(index)
    per_layer = layers.report(tracer, meter.timed_ns)
    per_layer.update(traced_gauges)
    gets = per_layer["alt_index.get.calls"]
    batch_gets = per_layer["alt_index.batch_get.calls"]
    per_layer["art.search_per_get"] = per_layer["art.search.calls"] / gets if gets else 0.0
    per_layer["art.items_per_batch_get"] = (
        per_layer["art.items.calls"] / batch_gets if batch_gets else 0.0
    )
    # Both sides at reference host speed: the two phases run apart.
    per_layer["trace.overhead"] = (
        _total_ns(meter.at_reference_speed()) / _total_ns(ref.at_reference_speed())
    )
    per_layer["reads.learned_share"] = ref_prefix["reads_learned_share"]
    per_layer["alt_index.learned_fraction_setup"] = learned_at_setup
    consistent = traced_gauges == ref_prefix["gauges"] and meter.failed == ref.failed
    metrics = {k: (v, _per_layer_unit(k)) for k, v in per_layer.items()}
    detail = {
        "workload": w.name,
        "seed": seed,
        "rounds": meter.rounds,
        "keys": meter.attempted,
        "error_rate": meter.failed / max(meter.attempted, 1),
        "errors": meter.errors,
        "gauges_match_untraced": consistent,
        "untraced_gauges": ref_prefix["gauges"],
        "host_calibration_us": _calib_summary(meter.calib),
        "fingerprint": {k: v for k, v in per_layer.items() if k.endswith(".calls")},
    }
    result = _result(meter, metrics)
    result["correct"] = result["correct"] and consistent
    return {"result": result, "detail": detail}


COUNT_GAUGES = frozenset(
    {"alt_index.art_keys", "alt_index.writebacks", "alt_index.conflict_inserts",
     "retrain.expansions", "epoch.pending"}
)


def _per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in COUNT_GAUGES:
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def _total_ns(table: dict[int, list[float]]) -> float:
    return sum(sum(v) for v in table.values())


def _calib_summary(calib: list[int]) -> dict:
    us = sorted(c / 1e3 for c in calib)
    if len(us) < 2:
        return {"samples": len(us)}
    q = statistics.quantiles(us, n=4)
    return {"median": q[1], "q1": q[0], "q3": q[2], "samples": len(us)}


def _result(meter: Meter, metrics: dict) -> dict:
    return {
        "correct": meter.failed == 0 and meter.attempted > 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
