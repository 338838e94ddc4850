"""The registered span namespace, its code, and its chaos points.

Two name spaces thread through the instrumented code: observability
spans (:mod:`repro.obs.spans`) and chaos interleaving points
(:func:`repro.chaos.point`).  They describe the same protocol sites from
two angles — "where does cost accrue" vs. "where can a preemption change
the outcome" — and they drift apart silently if nothing ties them
together.  This module is the single source of truth:

- :data:`SPAN_TAXONOMY` registers every legal span name with a
  one-line meaning.
- :data:`SPAN_TARGETS` names the code of each layer: the entry points
  that :func:`repro.obs.spans.profiled` wraps in self-time shims.  The
  structures themselves carry no span code; only the harness's ``op.*``
  envelopes are opened explicitly.  ``repro.tools.check_spans``
  (tier-1) checks that every target resolves, that every table span is
  registered, and that every registered span has a table entry or a
  literal site.
- :data:`CHAOS_SPAN_MAP` maps each chaos point to the span that covers
  it, so every interleaving point is guaranteed to be attributable to a
  layer in the breakdown tables.
- :data:`CHAOS_EXEMPT_PREFIXES` lists point families that deliberately
  have no span (e.g. the planted-mutant points that exist only to give
  the linearizability checker a bug to catch).

docs/OBSERVABILITY.md renders this taxonomy for humans; keep the two in
sync (check_docs covers the doc, check_spans covers the code).
"""

from __future__ import annotations

#: Every legal span name -> one-line description.
SPAN_TAXONOMY: dict[str, str] = {
    # -- operation envelopes (opened explicitly by the harness) ----------
    "op.read": "one point lookup, end to end",
    "op.insert": "one insert, end to end",
    "op.scan": "one range scan, end to end",
    # -- ALT-index layers (§III) ----------------------------------------
    "alt.model_probe": "learned-layer routing: segment search + slope/intercept predict",
    "alt.gpl_probe": "gapped-probe-list slot read/write (seqlock protocol)",
    "alt.fastptr": "fast-pointer buffer: register and entry lookup",
    "alt.retrain": "expansion/retrain pipeline: absorb, rebuild, swap",
    "alt.writeback": "repatriating ART-resident keys into fresh GPL slots",
    "alt.recover": "stuck-slot recovery: salvage, tombstone, repatriate",
    "alt.batch_probe": "whole-batch learned-layer probe: vectorized route + slot predict",
    # -- sharded serving layer (repro.shard) ------------------------------
    "shard.route": "partitioner routing: key(s) -> shard id(s)",
    "shard.scatter": "splitting a batch into per-shard sub-batches",
    "shard.gather": "order-preserving gather of per-shard batch results",
    # -- shared concurrency machinery ------------------------------------
    "retry.backoff": "bounded-retry spin/backoff while a protocol step is contended",
    "retry.fallback": "pessimistic fallback after the optimistic budget is spent",
    # -- baseline equivalents -------------------------------------------
    "alex.model_probe": "ALEX+ model routing to a data node",
    "alex.node_search": "ALEX+ in-node gapped-array search",
    "alex.modify": "ALEX+ insert/remove incl. node split",
    "lipp.descend": "LIPP+ per-level model descent",
    "lipp.rebuild": "LIPP+ subtree rebuild on conflict pressure",
    "xindex.group_probe": "XIndex group model probe of the sorted array",
    "xindex.buffer": "XIndex per-group delta-buffer access",
    "finedex.model_probe": "FINEdex level-model probe",
    "finedex.bin": "FINEdex per-position insert-bin access",
    "art.descend": "ART trie work: OLC descent, insert/remove, scans, batch passes",
    "btree.descend": "B+-tree root-to-leaf descent + leaf ops",
    "rmi.predict": "RMI two-stage model prediction",
    "rmi.secondary": "RMI bounded secondary search around the prediction",
}

_LL = "repro.core.learned_layer"
_ART = "repro.art.tree"

#: span name -> ``(module, owner, attribute)`` entry points whose code is
#: that layer.  ``owner`` is a class, or ``""`` for a module-level
#: function, which is patched in the module where its caller looks it
#: up.  A call nested in another target's call is charged to its own
#: span (self-time), so a span names the code that runs, not its caller.
SPAN_TARGETS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "alt.model_probe": ((_LL, "LearnedLayer", "route"), (_LL, "GPLModel", "slot_of")),
    "alt.gpl_probe": (
        (_LL, "GPLModel", "read_slot"),
        (_LL, "GPLModel", "write_slot"),
        (_LL, "GPLModel", "clear_slot"),
    ),
    "alt.batch_probe": ((_LL, "LearnedLayer", "probe_live"),),
    "alt.fastptr": (
        ("repro.core.fast_pointer", "FastPointerBuffer", "register"),
        ("repro.core.fast_pointer", "FastPointerBuffer", "entry"),
    ),
    "alt.retrain": (
        ("repro.core.retrain", "ExpansionBuffer", "absorb"),
        ("repro.core.retrain", "ExpansionBuffer", "lookup"),
        ("repro.core.retrain", "ExpansionBuffer", "update"),
        ("repro.core.retrain", "ExpansionBuffer", "remove"),
        ("repro.core.alt_index", "", "finish_expansion"),
        ("repro.core.alt_index", "ALTIndex", "_move_home"),
    ),
    "alt.writeback": (("repro.core.alt_index", "ALTIndex", "_write_back"),),
    "alt.recover": (("repro.core.alt_index", "ALTIndex", "_recover_stuck_slot"),),
    "art.descend": tuple(
        (_ART, "AdaptiveRadixTree", attr)
        for attr in (
            "search", "insert", "remove", "scan", "iter_from", "items",
            "bulk_insert", "bulk_remove", "lookup_sorted",
        )
    ),
    "shard.route": (
        ("repro.shard.partitioner", "RangePartitioner", "shard_of"),
        ("repro.shard.partitioner", "RangePartitioner", "route_batch"),
    ),
    "shard.scatter": (("repro.shard.sharded", "ShardedALTIndex", "scatter"),),
    "shard.gather": (("repro.shard.sharded", "ShardedALTIndex", "_gather"),),
    "retry.backoff": (("repro.concurrency.retry", "RetryState", "step"),),
    "retry.fallback": (("repro.concurrency.retry", "RetryState", "count_fallback"),),
    "alex.model_probe": (("repro.baselines.alex", "AlexIndex", "_node_for"),),
    "alex.node_search": (("repro.baselines.alex", "_DataNode", "get"),),
    "alex.modify": (
        ("repro.baselines.alex", "_DataNode", "insert"),
        ("repro.baselines.alex", "_DataNode", "remove"),
        ("repro.baselines.alex", "AlexIndex", "_split_node"),
    ),
    "lipp.descend": (
        ("repro.baselines.lipp", "LippIndex", "get"),
        ("repro.baselines.lipp", "LippIndex", "_insert"),
        ("repro.baselines.lipp", "LippIndex", "remove"),
    ),
    "lipp.rebuild": (("repro.baselines.lipp", "LippIndex", "_rebuild_at"),),
    "xindex.group_probe": (
        ("repro.baselines.xindex", "XIndex", "_group_for"),
        ("repro.baselines.xindex", "_Group", "find_in_array"),
    ),
    "xindex.buffer": (
        ("repro.baselines.xindex", "_Group", "find_in_buffer"),
        ("repro.baselines.xindex", "_Group", "buffer_insert"),
        ("repro.baselines.xindex", "_Group", "compact"),
    ),
    "finedex.model_probe": (
        ("repro.baselines.finedex", "FINEdex", "_model_for"),
        ("repro.baselines.finedex", "_FineModel", "rank"),
    ),
    "finedex.bin": (
        ("repro.baselines.finedex", "_LevelBin", "find"),
        ("repro.baselines.finedex", "_LevelBin", "insert"),
        ("repro.baselines.finedex", "_LevelBin", "remove"),
    ),
    "btree.descend": tuple(
        ("repro.baselines.btree", "BPlusTreeIndex", attr)
        for attr in ("get", "insert", "remove", "scan")
    ),
    "rmi.predict": (("repro.baselines.rmi", "TwoStageRMI", "predict"),),
    "rmi.secondary": (
        ("repro.baselines.rmi", "TwoStageRMI", "lookup"),
        ("repro.baselines.rmi", "TwoStageRMI", "position_for"),
    ),
}

#: chaos point -> covering span.  check_spans asserts every
#: ``chaos.point("...")`` literal in the tree appears here or is exempt.
CHAOS_SPAN_MAP: dict[str, str] = {
    # GPL slot seqlock protocol
    "gpl.read_fields": "alt.gpl_probe",
    "gpl.slot_cas": "alt.gpl_probe",
    "gpl.slot_fields": "alt.gpl_probe",
    "slot.write_cas": "alt.gpl_probe",
    "slot.write_latched": "alt.gpl_probe",
    "slot.write_publish": "alt.gpl_probe",
    # fast-pointer buffer
    "fastptr.register": "alt.fastptr",
    "fastptr.locked": "alt.fastptr",
    "fastptr.repair": "alt.fastptr",
    # ART optimistic lock coupling
    "art.descend": "art.descend",
    "olc.upgrade": "art.descend",
    "olc.write_locked": "art.descend",
    "olc.write_unlock": "art.descend",
    "art.merge": "art.descend",
    "art.view": "art.descend",
    "art.view_merge": "art.descend",
    "alt.art_fallback": "art.descend",
    "art.fallback": "retry.fallback",
    # shared machinery
    "spin.acquire": "retry.backoff",
    # ALT maintenance paths
    "alt.writeback": "alt.writeback",
    "alt.recover": "alt.recover",
    # retrain / expansion handoff (§III-F absorb -> migrate -> swap)
    "retrain.absorb": "alt.retrain",
    "retrain.migrate": "alt.retrain",
    "retrain.swap": "alt.retrain",
    # sharded serving layer: the router's cross-shard windows
    "shard.route": "shard.route",
    "shard.scatter": "shard.scatter",
    "shard.gather": "shard.gather",
}

#: Point families with no span by design.  ``planted.*`` points exist
#: only inside the deliberately-buggy mutant protocols that the
#: linearizability checker must flag; they never run in benchmarks.
CHAOS_EXEMPT_PREFIXES: tuple[str, ...] = ("planted.",)

#: Every legal metric name -> one-line description.  The registry
#: (:mod:`repro.obs.metrics`) is name-addressed, so a typo'd counter
#: silently creates a parallel series nothing reads.  check_spans
#: rejects any ``inc``/``set_gauge``/``observe``/``observe_many``
#: literal not registered here, and any registered name no code emits.
METRIC_TAXONOMY: dict[str, str] = {
    # -- bounded retry / fallback ----------------------------------------
    "retry.attempts": "optimistic retry loop iterations across all sites",
    "retry.budget_exceeded": "retry loops that exhausted max_retries",
    "retry.fallbacks": "optimistic paths that fell back to pessimistic mode",
    "retry.attempts_at_fallback": "histogram: attempts spent before falling back",
    # -- systematic schedule exploration (repro.chaos.dpor) --------------
    "dpor.executions": "complete schedules executed by the DPOR explorer",
    "dpor.pruned": "schedule branches skipped by sleep-set pruning",
    "dpor.violations": "linearizability violations found during exploration",
    # -- retrain / expansion pipeline ------------------------------------
    "retrain.started": "expansion buffers opened on crowded models",
    "retrain.finished": "expansion buffers swapped in as new models",
    "retrain.old_slots": "histogram: slot count of models entering expansion",
    "retrain.new_slots": "histogram: slot count of freshly swapped models",
    # -- ALT-index structural counters/gauges ----------------------------
    "alt.conflict_inserts": "inserts routed to the ART conflict path",
    "alt.recoveries": "stuck GPL slots recovered (salvage/tombstone)",
    "alt.writebacks": "ART-resident keys repatriated into GPL slots",
    "alt.batch_inserts": "keys written through the vectorized batch path",
    "alt.batch_removes": "keys removed through the vectorized batch path",
    "alt.expansions": "expansions started by the ALT insert path (finishes: retrain.finished)",
    "alt.model_count": "gauge: live GPL models in the learned layer",
    "alt.learned_fraction": "gauge: fraction of keys resident in GPL slots",
    "alt.memory_bytes": "gauge: modeled footprint of the index",
    "alt.art_keys": "gauge: keys currently spilled to the ART layer",
    # -- sharded serving layer (repro.shard) -----------------------------
    "shard.batch_ops": "scatter-gather batches executed by the serving layer",
    "shard.cross_shard_batches": "batches whose keys spanned more than one shard",
    "shard.routed_keys": "keys routed through the vectorized partitioner",
    "shard.count": "gauge: shards behind the serving layer",
    "shard.imbalance": "gauge: max shard keys / mean shard keys (1.0 = balanced)",
    # -- health telemetry (repro.obs.health) -----------------------------
    "health.samples": "health snapshots taken by the sampling monitor",
    "health.gpl_occupancy": "gauge: live slots / total slots across models",
    "health.tombstone_fraction": "gauge: tombstoned slots / total slots",
    "health.spill_fraction": "gauge: ART-resident keys / total keys",
    "health.fastptr_hit_rate": "gauge: fast-pointer lookups served by a live node",
    "health.drift_rmse_max": "gauge: worst per-model prediction RMSE (key positions)",
    "health.eps_exceed_max": "gauge: worst per-model epsilon-exceed rate",
    "health.drift_ratio_max": "gauge: worst per-model RMSE / trained epsilon bound",
    "health.retrain_backlog": "gauge: absorbs outstanding across open expansions",
    "health.active_expansions": "gauge: models currently mid-expansion",
    "health.expansion_age_max": "gauge: inserts absorbed by the oldest open expansion",
    "health.model_drift_ratio": "histogram: per-model drift ratio x100 at sample time",
    "health.model_occupancy": "histogram: per-model occupancy percent at sample time",
}

#: Files allowed to call ``chaos.point(<non-literal>)``.  The bounded-
#: retry helper parameterises its point name per call site
#: (``site + ".retry"``), which a static literal check cannot follow.
NON_LITERAL_POINT_ALLOWLIST: tuple[str, ...] = (
    "src/repro/concurrency/retry.py",
)

#: Files allowed to emit metrics under non-literal names.  The registry
#: itself is name-parametric, and the health monitor publishes a batch
#: of gauges through a name->value dict.
METRIC_NON_LITERAL_ALLOWLIST: tuple[str, ...] = (
    "src/repro/obs/metrics.py",
    "src/repro/obs/health.py",
)


def span_for_point(point: str) -> str | None:
    """Covering span for a chaos point, or None when exempt/unknown."""
    return CHAOS_SPAN_MAP.get(point)


def is_exempt_point(point: str) -> bool:
    return point.startswith(CHAOS_EXEMPT_PREFIXES)


def is_registered_metric(name: str) -> bool:
    return name in METRIC_TAXONOMY
