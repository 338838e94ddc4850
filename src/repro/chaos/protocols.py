"""Chaos workloads for the concurrency protocols, seeded and exhaustive.

Each *case builder* constructs a tiny concurrent workload over one
protocol — the GPL seqlock (§III-E), the fast-pointer spin lock, the
ART-OPT optimistic lock coupling and its path-compression merge, the
Algorithm-2 write-back, scalar reads from the ART's sorted runs, the ALT
insert's per-model writer lock (scalar and batched), the §III-F retrain
handoff, and the sharded scatter-gather — as a :class:`ProtocolCase`:
fresh shared state, named tasks, a history recorder, and a correctness
check.  The same case runs two ways:

- **seeded** — :func:`run_schedule` drives a case under a
  :class:`ChaosScheduler` RNG seed and returns a replayable
  :class:`ScheduleReport`;
- **exhaustive** — :func:`repro.chaos.dpor.explore` re-executes a case
  factory once per schedule, enumerating *every* interleaving of a small
  variant (see :data:`EXHAUSTIVE_CASES`) instead of sampling seeds.

Every protocol also has a ``planted`` mode that swaps one protocol step
for a classic mutation (lost update, check-then-act, a merge under a
lock that never excludes, resurrection-after-remove, a read that skips
the in-merge delta, unlocked slot claim, swap-before-migrate, shared
gather table).  A correct harness must keep the un-mutated protocols
linearizable on every schedule and flag the mutants — that is the
harness's own regression test: if the checker cannot see a planted bug,
it cannot see a real one.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import chaos
from repro.art.tree import NO_RUNS, AdaptiveRadixTree, view_value
from repro.chaos.history import CheckResult, HistoryRecorder, OpRecord, check_linearizable
from repro.chaos.scheduler import ChaosScheduler
from repro.concurrency.retry import DEFAULT_RETRY, acquire_cooperative
from repro.concurrency.spinlock import SpinLock
from repro.concurrency.version_lock import OptimisticLock
from repro.core.alt_index import ALTIndex
from repro.core.learned_layer import FULL, GPLModel
from repro.core.retrain import ExpansionBuffer
from repro.obs import recorder as obs_recorder
from repro.shard.partitioner import RangePartitioner
from repro.shard.sharded import ShardedALTIndex
from repro.sim.trace import global_memory, tracer


@dataclass
class ProtocolCase:
    """One freshly-built concurrent workload, ready to be scheduled.

    ``tasks`` are ``(name, fn)`` pairs to spawn in order; ``check()``
    validates the recorded history once the schedule has run (call it
    only after ``cleanup``, if any).  ``snapshot()``, when present,
    digests the terminal shared state — the brute-force-vs-pruned
    equivalence tests compare outcome sets through it.
    """

    protocol: str
    planted: bool
    tasks: list[tuple[str, Callable[[], None]]]
    rec: HistoryRecorder
    check: Callable[[], CheckResult]
    cleanup: Callable[[], None] | None = None
    snapshot: Callable[[], object] | None = None


@dataclass
class ScheduleReport:
    """Outcome of one seeded schedule: replayable and self-checking."""

    protocol: str
    seed: int
    planted: bool
    fingerprint: str
    ops: list[OpRecord]
    check: CheckResult
    crashed: list[str] = field(default_factory=list)
    #: the completed scheduler, kept so callers can render the schedule
    #: as a timeline (:func:`repro.obs.timeline.timeline_from_chaos`)
    scheduler: ChaosScheduler | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.check.ok

    def summary(self) -> str:
        verdict = "LINEARIZABLE" if self.check.ok else f"VIOLATION ({self.check.reason})"
        mode = " planted-bug" if self.planted else ""
        return (
            f"{self.protocol:<8} seed={self.seed:<4}{mode} "
            f"fingerprint={self.fingerprint} ops={len(self.ops)} -> {verdict}"
        )


# ----------------------------------------------------------------------
# GPL seqlock: read-modify-write over one gapped-array slot
# ----------------------------------------------------------------------


def build_gpl_case(
    planted: bool = False,
    *,
    adders: int = 2,
    adder_reps: int = 2,
    reader_reps: int = 2,
) -> ProtocolCase:
    """Two incrementers (and optionally a reader) over one seqlocked slot.

    The seqlock makes individual slot reads/writes atomic, but a
    read-modify-write still needs writer serialization (§III-E assumes
    slot writers are serialized above the version protocol).  The
    correct path takes a per-model writer mutex, acquired cooperatively;
    the planted mutant skips it, so two adders can both read the same
    snapshot and one increment is lost.
    """
    model = GPLModel(
        first_key=0, slope_eff=1.0, n_slots=4, memory=global_memory(), tag="chaos/gpl"
    )
    writer_lock = threading.Lock()
    rec = HistoryRecorder()

    def read_value() -> int:
        state, _key, value = model.read_slot(0)
        return value if state == FULL else 0

    def do_add(task: str) -> None:
        def add() -> int:
            if planted:
                cur = read_value()
                chaos.point("planted.gpl.rmw")  # lost-update window
                nxt = cur + 1
                model.write_slot(0, 0, nxt)
                return nxt
            st = DEFAULT_RETRY.begin("gpl.writer_lock")
            acquire_cooperative(writer_lock, st)
            try:
                nxt = read_value() + 1
                model.write_slot(0, 0, nxt)
                return nxt
            finally:
                writer_lock.release()

        rec.call(task, "add", 0, add, arg=1)

    def adder(task: str, reps: int) -> None:
        for _ in range(reps):
            do_add(task)

    def reader(task: str) -> None:
        for _ in range(reader_reps):
            rec.call(task, "get", 0, lambda: (lambda s, k, v: v if s == FULL else None)(*model.read_slot(0)))

    tasks: list[tuple[str, Callable[[], None]]] = [
        (name, (lambda name=name: adder(name, adder_reps)))
        for name in ("adder-a", "adder-b")[:adders]
    ]
    if reader_reps:
        tasks.append(("reader", lambda: reader("reader")))
    return ProtocolCase(
        protocol="gpl",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(rec.ops),
        snapshot=lambda: ("slot", read_value()),
    )


# ----------------------------------------------------------------------
# Fast-pointer spin lock: deduplicated registration
# ----------------------------------------------------------------------


def build_spinlock_case(
    planted: bool = False,
    *,
    workers: tuple[tuple[str, tuple[int, ...]], ...] = (
        ("reg-a", (5, 7)),
        ("reg-b", (5, 9)),
        ("reg-c", (7, 5)),
    ),
) -> ProtocolCase:
    """Concurrent registrations into a merge-deduplicated table.

    Mirrors :meth:`repro.core.fast_pointer.FastPointerBuffer.register`:
    look the target up, append if absent, all under the
    :class:`repro.concurrency.spinlock.SpinLock`.  The planted mutant
    hoists the dedup check outside the lock (check-then-act), so two
    tasks registering the same target can both append and hand out
    different indices — the merge invariant (one index per target) dies,
    which the ``register`` oracle catches.
    """
    lock = SpinLock()
    table: dict[int, int] = {}
    rec = HistoryRecorder()

    def do_register(task: str, key: int) -> None:
        def register() -> int:
            if planted:
                existing = table.get(key)
                if existing is not None:
                    return existing
                chaos.point("planted.fastptr.check")  # dedup raced
                with lock:
                    idx = len(table)
                    table[key] = idx
                    return idx
            with lock:
                existing = table.get(key)
                if existing is not None:
                    return existing
                idx = len(table)
                table[key] = idx
                return idx

        rec.call(task, "register", key, register)

    def worker(task: str, keys: tuple[int, ...]) -> None:
        for k in keys:
            do_register(task, k)

    tasks = [
        (name, (lambda name=name, keys=keys: worker(name, keys)))
        for name, keys in workers
    ]
    return ProtocolCase(
        protocol="spinlock",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(rec.ops),
        snapshot=lambda: tuple(sorted(table.items())),
    )


# ----------------------------------------------------------------------
# ART optimistic lock coupling: insert-if-absent races
# ----------------------------------------------------------------------


def build_art_case(
    planted: bool = False, *, with_reader: bool = True, b_extra: bool = True
) -> ProtocolCase:
    """Duelling insert-if-absent plus lookups over the ART-OPT layer.

    ``AdaptiveRadixTree.insert`` decides newly-inserted-or-not inside
    the OLC write protocol, so two racers inserting the same key get
    exactly one ``True``.  The planted mutant re-implements it as an
    unprotected check-then-act (``search`` then ``insert(upsert=True)``)
    with an interleaving point in the window, letting both racers claim
    the insert.
    """
    tree = AdaptiveRadixTree(tag="chaos/art")
    tree.insert(100, "seed-100")
    tree.insert(200, "seed-200")
    rec = HistoryRecorder()

    def do_insert(task: str, key: int, value: object) -> None:
        def ins() -> bool:
            if planted:
                if tree.search(key) is not None:
                    return False
                chaos.point("planted.art.check")  # check-then-act window
                tree.insert(key, value, upsert=True)
                return True
            return tree.insert(key, value)

        rec.call(task, "insert", key, ins, arg=value)

    def inserter(task: str, items: list[tuple[int, object]]) -> None:
        for k, v in items:
            do_insert(task, k, v)

    def reader(task: str) -> None:
        for k in (150, 100):
            rec.call(task, "get", k, lambda k=k: tree.search(k))

    a_items = [(150, "a"), (300, "a")] if b_extra else [(150, "a")]
    tasks: list[tuple[str, Callable[[], None]]] = [
        ("ins-a", lambda: inserter("ins-a", a_items)),
        ("ins-b", lambda: inserter("ins-b", [(150, "b")])),
    ]
    if with_reader:
        tasks.append(("reader", lambda: reader("reader")))
    return ProtocolCase(
        protocol="art",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(
            rec.ops, init={100: "seed-100", 200: "seed-200"}
        ),
        snapshot=lambda: tree.search(150),
    )


# ----------------------------------------------------------------------
# ART path-compression merge: re-prefixing a child under its own lock
# ----------------------------------------------------------------------

_MERGE_GONE = 1 << 56 | 1 << 48  # bytes 01 01 00 00 00 00 00 00
_MERGE_KEPT = 1 << 56 | 2 << 48 | 1  # bytes 01 02 00 00 00 00 00 01
_MERGE_INIT = {
    k: f"v{k:x}" for k in (_MERGE_GONE, _MERGE_KEPT, _MERGE_KEPT + 1, 2 << 56)
}


class _NoWriteLock(OptimisticLock):
    """An OLC node lock whose write side never excludes and never bumps
    the version (the art-merge case's planted bug)."""

    def upgrade_to_write_lock_or_restart(self, version: int) -> None:
        pass

    def write_unlock(self) -> None:
        pass


def build_art_merge_case(
    planted: bool = False, *, cycles: int = 2, readers: int = 2, reader_reps: int = 3
) -> ProtocolCase:
    """A reader inside a node races the merge that re-prefixes that node.

    Under the root, a Node4 holds one leaf (``_MERGE_GONE``) and one
    inner node C (two keys sharing bytes 01 02).  Removing the leaf
    leaves the Node4 with one child, so the remove merges it into C: C's
    prefix gains the Node4's prefix and edge byte, and its
    ``match_level`` moves up a level.  A reader that stepped from the
    Node4 into C before the merge, and reads C between those two field
    writes (the ``art.merge`` point), would compare the new prefix at the
    old depth and miss a present key.  The merge writes both fields under
    C's write lock, so that reader restarts instead.

    The planted mutant gives C a lock whose write side never excludes,
    so the merge re-prefixes C with no lock a reader can see.
    """
    tree = AdaptiveRadixTree(tag="chaos/art-merge")
    keys = sorted(_MERGE_INIT)
    tree.build_sorted(keys, [_MERGE_INIT[k] for k in keys])
    if planted:
        tree.root.find_child(1).find_child(2).lock = _NoWriteLock()
    rec = HistoryRecorder()

    def reader(task: str) -> None:
        for _ in range(reader_reps):
            rec.call(task, "get", _MERGE_KEPT, lambda: tree.search(_MERGE_KEPT))

    def remover(task: str) -> None:
        value = _MERGE_INIT[_MERGE_GONE]
        for i in range(cycles):
            rec.call(task, "remove", _MERGE_GONE, lambda: tree.remove(_MERGE_GONE))
            if i + 1 < cycles:  # re-split C, so the next remove merges again
                rec.call(
                    task, "insert", _MERGE_GONE,
                    lambda: tree.insert(_MERGE_GONE, value), arg=value,
                )

    tasks: list[tuple[str, Callable[[], None]]] = [("remover", lambda: remover("remover"))]
    tasks += [
        (name, (lambda name=name: reader(name)))
        for name in ("reader-a", "reader-b")[:readers]
    ]
    return ProtocolCase(
        protocol="art-merge",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(rec.ops, init=dict(_MERGE_INIT)),
        snapshot=lambda: tuple(tree.search(k) for k in keys),
    )


# ----------------------------------------------------------------------
# ALT write-back: repatriating an ART key into its predicted slot
# ----------------------------------------------------------------------


def build_writeback_case(
    planted: bool = False, *, getters: int = 2, getter_reps: int = 2
) -> ProtocolCase:
    """Concurrent lookups drive the ``alt.writeback`` point under churn.

    Setup engineers the write-back precondition on a whole
    :class:`~repro.core.alt_index.ALTIndex`: key 164 lives in the ART
    because its predicted slot was full at insert time, and that slot is
    now tombstoned — so the next ``get(164)`` repatriates it (Algorithm
    2 lines 10-13).  Getters race the write-back while a churn task
    inserts/removes the slot's previous resident; the full history is
    checked against the map oracle.

    The planted mutant re-implements the write-back as check-then-act on
    a stale slot state with no concurrent-remove guard, so a racing
    ``remove(164)`` can be undone — the resurrected key shows up in a
    later ``get`` and the oracle flags it.
    """
    idx = ALTIndex(
        epsilon=4.0, fast_pointers=False, retraining=False, tag="chaos/alt"
    )
    # Bootstrap model covers [100, 100+63]; 163 and 164 both clamp to
    # slot 63, so 164 spills to ART; removing 163 tombstones the slot.
    idx.insert(100, "v100")
    idx.insert(163, "v163")
    idx.insert(164, "v164")
    idx.remove(163)
    init = {100: "v100", 164: "v164"}
    rec = HistoryRecorder()

    def planted_get() -> object:
        _i, model = idx.layer.route(164)
        slot = model.slot_of(164)
        state, resident, value = model.read_slot(slot)
        if state == FULL and resident == 164:
            return value
        v = idx.art.search(164)
        if v is not None and state != FULL:
            chaos.point("planted.alt.writeback")  # stale-state window
            model.write_slot(slot, 164, v)  # may resurrect a removed key
            idx.art.remove(164)
        return v

    def getter(task: str) -> None:
        for _ in range(getter_reps):
            if planted:
                rec.call(task, "get", 164, planted_get)
            else:
                rec.call(task, "get", 164, lambda: idx.get(164))

    def churn(task: str) -> None:
        if planted:
            rec.call(task, "remove", 164, lambda: idx.remove(164))
            rec.call(task, "get", 164, lambda: idx.get(164))
        else:
            rec.call(task, "insert", 163, lambda: idx.insert(163, "x1"), arg="x1")
            rec.call(task, "remove", 163, lambda: idx.remove(163))

    tasks: list[tuple[str, Callable[[], None]]] = [
        (f"getter-{chr(ord('a') + i)}", (lambda name=f"getter-{chr(ord('a') + i)}": getter(name)))
        for i in range(getters)
    ]
    tasks.append(("churn", lambda: churn("churn")))
    return ProtocolCase(
        protocol="writeback",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(rec.ops, init=init),
        snapshot=lambda: (idx.get(164), idx.get(163)),
    )


# ----------------------------------------------------------------------
# ART sorted runs: scalar reads from the view vs. a merging batch read
# ----------------------------------------------------------------------

# Bulk loaded with ε = 2, one model predicts 425 onto 420's slot, so 425
# is the index's one conflict key and lives in the ART.
_VIEW_INIT = {k: f"v{k}" for k in (100, 300, 420, 425, 500)}
_VIEW_KEY = 425


def build_view_case(
    planted: bool = False, *, getter_reps: int = 3, batches: int = 2, writes: int = 2
) -> ProtocolCase:
    """Scalar ``get`` answered from the ART's sorted runs races a writer
    and a ``batch_get`` that merges the runs' delta.

    The index is built with :meth:`ALTIndex.bulk_load`, so its ART keeps
    sorted runs and an untraced ``get`` of the conflict key 425 reads
    them (``AdaptiveRadixTree.search_runs``) instead of descending.  An
    upsert before the schedule leaves 425's current value in the delta
    and the bulk-loaded one in main.  The writer's first ``writes`` of
    (remove 425, insert it again) go through the index, each a change
    the ART records in its delta; each of the batcher's ``batch_get``
    calls swaps the delta out, merges it (the ``art.view_merge`` point
    sits between the swap and the publish) and publishes new runs.  One
    batcher only: the merge holds the ART's ``_runs_lock``, which a
    second batcher would block on while holding the scheduler's baton.
    The history is checked against the map oracle.

    The planted mutant's reads ignore the delta that a merge has swapped
    out but not yet published, as a reader that paired the runs with the
    live delta alone would: for the length of a merge, 425 reads as the
    value in the old runs, which a newer change has replaced.
    """
    idx = ALTIndex.bulk_load(
        np.array(sorted(_VIEW_INIT), dtype=np.uint64),
        [_VIEW_INIT[k] for k in sorted(_VIEW_INIT)],
        epsilon=2.0,
        fast_pointers=False,
        retraining=False,
        tag="chaos/view",
    )
    idx.insert(_VIEW_KEY, "u")  # so the batcher's first read always merges
    init = {**_VIEW_INIT, _VIEW_KEY: "u"}
    art = idx.art
    if planted:

        def search_runs(key: int):
            if art._writing:
                return NO_RUNS
            view = art._view
            if view is None or view[0] is None:
                return NO_RUNS
            chaos.point("art.view")
            runs, delta, _merging = view  # the bug: the in-merge delta is dropped
            return view_value(runs, delta, None, key)

        # An instance attribute, so ALTIndex.get calls the mutant.

        art.search_runs = search_runs
    rec = HistoryRecorder()

    def getter(task: str) -> None:
        for _ in range(getter_reps):
            rec.call(task, "get", _VIEW_KEY, lambda: idx.get(_VIEW_KEY))

    def writer(task: str) -> None:
        script = [
            lambda: rec.call(task, "remove", _VIEW_KEY, lambda: idx.remove(_VIEW_KEY)),
            lambda: rec.call(
                task, "insert", _VIEW_KEY, lambda: idx.insert(_VIEW_KEY, "w"), arg="w"
            ),
        ]
        for step in script[:writes]:
            step()

    def batcher(task: str) -> None:
        for _ in range(batches):
            rec.call(task, "get", _VIEW_KEY, lambda: idx.batch_get([_VIEW_KEY])[0])

    return ProtocolCase(
        protocol="view",
        planted=planted,
        tasks=[
            ("writer", lambda: writer("writer")),
            ("batcher", lambda: batcher("batcher")),
            ("getter", lambda: getter("getter")),
        ],
        rec=rec,
        check=lambda: check_linearizable(rec.ops, init=init),
        snapshot=lambda: (idx.get(_VIEW_KEY), art._view is None),
    )


# ----------------------------------------------------------------------
# ALT insert: two writers predicted onto one EMPTY slot
# ----------------------------------------------------------------------


class _NoLock:
    """A writer lock that never excludes (the insert case's planted bug)."""

    def acquire(self, blocking: bool = True) -> bool:
        return True

    def release(self) -> None:
        pass


def build_insert_case(
    planted: bool = False, *, getter_reps: int = 1, batch: bool = False
) -> ProtocolCase:
    """Two inserters race for one EMPTY predicted slot while a getter reads.

    Setup bootstraps an :class:`~repro.core.alt_index.ALTIndex` model
    over ``[100, 163]``; keys 170 and 180 both clamp to its last slot,
    which is EMPTY.  ``ALTIndex.insert`` reads the slot and writes it
    under the model's writer lock, so one key takes the slot and the
    other goes to the ART.  Each inserter reads its key back, the getter
    reads both, and the history is checked against the map oracle.
    With ``batch``, the second inserter goes through the vectorized
    ``batch_insert``, which must classify and write under the same lock.

    The planted mutant gives the model a lock that never excludes, so
    both inserters can read the slot EMPTY and the second write
    overwrites the first key: a lost insert that its read-back flags.
    """
    idx = ALTIndex(
        epsilon=4.0, fast_pointers=False, retraining=False, tag="chaos/insert"
    )
    idx.insert(100, "v100")
    if planted:
        idx.layer.models[0].writer_lock = _NoLock()
    rec = HistoryRecorder()

    def inserter(task: str, key: int, batched: bool = False) -> None:
        def put() -> bool:
            if batched:
                return bool(idx.batch_insert(np.array([key], dtype=np.uint64), [task])[0])
            return idx.insert(key, task)

        rec.call(task, "insert", key, put, arg=task)
        rec.call(task, "get", key, lambda: idx.get(key))

    def getter(task: str) -> None:
        for _ in range(getter_reps):
            for key in (170, 180):
                rec.call(task, "get", key, lambda k=key: idx.get(k))

    tasks: list[tuple[str, Callable[[], None]]] = [
        ("ins-a", lambda: inserter("ins-a", 170)),
        ("ins-b", lambda: inserter("ins-b", 180, batch)),
    ]
    if getter_reps:
        tasks.append(("getter", lambda: getter("getter")))
    return ProtocolCase(
        protocol="insert-batch" if batch else "insert",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(rec.ops, init={100: "v100"}),
        snapshot=lambda: (idx.get(170), idx.get(180)),
    )


# ----------------------------------------------------------------------
# Retrain handoff: ExpansionBuffer migration vs. model replacement
# ----------------------------------------------------------------------


def build_retrain_case(
    planted: bool = False,
    *,
    inserts: tuple[tuple[int, object], ...] = ((1, "v1"), (0, "v0b")),
    reader_reps: int = 2,
) -> ProtocolCase:
    """An inserter and readers race the §III-F expansion handoff.

    The old model holds key 0; an open :class:`ExpansionBuffer` absorbs
    runtime inserts while a finisher migrates the old model's residents
    and swaps the buffer in as the live model
    (:func:`repro.core.retrain.finish_expansion` order: migrate *then*
    swap).  Mutating paths — absorbs and the finish — serialize through
    a cooperative writer mutex, mirroring the insert path's inline
    finish; readers are optimistic: expansion buffer first, then the
    published model, then the spill map.

    The planted mutant swaps *before* migrating (publish-then-backfill),
    opening a window where key 0 is in neither the published model nor
    the buffer — a reader in the window sees the key vanish, which the
    map oracle flags.
    """
    memory = global_memory()
    old = GPLModel(
        first_key=0, slope_eff=1.0, n_slots=4, memory=memory, tag="chaos/retrain"
    )
    old.write_slot(0, 0, "v0")
    expansion = ExpansionBuffer(old, memory, "chaos/retrain-exp")
    current: list[GPLModel] = [old]
    open_expansion: list[ExpansionBuffer | None] = [expansion]
    spilled: dict[int, object] = {}
    writer_lock = threading.Lock()
    rec = HistoryRecorder()

    def spill(key: int, value) -> bool:
        new = key not in spilled
        spilled[key] = value
        return new

    def do_get(key: int):
        exp = open_expansion[0]
        if exp is not None:
            found, value = exp.lookup(key)
            if found:
                return value
        model = current[0]
        slot = model.slot_of(key)
        state, resident, value = model.read_slot(slot)
        if state == FULL and resident == key:
            return value
        return spilled.get(key)

    def do_put(key: int, value) -> None:
        st = DEFAULT_RETRY.begin("retrain.writer_lock")
        acquire_cooperative(writer_lock, st)
        try:
            exp = open_expansion[0]
            if exp is not None:
                exp.absorb(key, value, spill)
                return
            # Expansion already finished: write through the live model.
            model = current[0]
            slot = model.slot_of(key)
            state, resident, _ = model.read_slot(slot)
            if state == FULL and resident != key:
                spill(key, value)
            else:
                model.write_slot(slot, key, value)
        finally:
            writer_lock.release()

    def do_finish() -> bool:
        st = DEFAULT_RETRY.begin("retrain.writer_lock")
        acquire_cooperative(writer_lock, st)
        try:
            exp = open_expansion[0]
            if exp is None:
                return False
            if planted:
                # Publish the buffer before migrating the old residents:
                # key 0 is temporarily in neither place.
                current[0] = exp.buffer
                open_expansion[0] = None
                chaos.point("planted.retrain.handoff")  # handoff hole
                exp.finish(spill)
            else:
                new_model = exp.finish(spill)  # migrate, THEN swap
                chaos.point("retrain.swap")
                current[0] = new_model
                open_expansion[0] = None
            return True
        finally:
            writer_lock.release()

    def reader(task: str) -> None:
        for _ in range(reader_reps):
            rec.call(task, "get", 0, lambda: do_get(0))

    def inserter(task: str) -> None:
        for key, value in inserts:
            rec.call(task, "put", key, lambda k=key, v=value: do_put(k, v), arg=value)

    def finisher(task: str) -> None:
        rec.call(task, "finish", 0, do_finish)

    def check() -> CheckResult:
        ops = [op for op in rec.ops if op.op != "finish"]
        return check_linearizable(ops, init={0: "v0"})

    tasks: list[tuple[str, Callable[[], None]]] = []
    if inserts:
        tasks.append(("inserter", lambda: inserter("inserter")))
    tasks.append(("reader", lambda: reader("reader")))
    tasks.append(("finisher", lambda: finisher("finisher")))
    return ProtocolCase(
        protocol="retrain",
        planted=planted,
        tasks=tasks,
        rec=rec,
        check=check,
        snapshot=lambda: (do_get(0), do_get(1)),
    )


# ----------------------------------------------------------------------
# Sharded serving layer: cross-shard batch_get vs. per-shard writers
# ----------------------------------------------------------------------


def _build_shard_index() -> ShardedALTIndex:
    """Two ALT shards behind an explicit split at 999.

    Keys 100/163 land in shard 0, 1100/1163 in shard 1 — every batch
    over ``(100, 163, 1100)`` is genuinely cross-shard, so the router's
    ``shard.route`` / ``shard.scatter`` / ``shard.gather`` points all
    fire inside a window that racing writers can interleave into.
    """
    return ShardedALTIndex.bulk_load(
        np.array([100, 163, 1100, 1163], dtype=np.uint64),
        ["v100", "v163", "v1100", "v1163"],
        partitioner=RangePartitioner(np.array([999], dtype=np.uint64)),
        fast_pointers=False,
        retraining=False,
        tag="chaos/shard",
    )


_SHARD_INIT = {100: "v100", 163: "v163", 1100: "v1100", 1163: "v1163"}


def build_shard_case(
    planted: bool = False,
    *,
    writers: int = 2,
    writer_reps: int = 2,
    batches: int = 2,
    batch_keys: tuple[int, ...] = (100, 163, 1100),
) -> ProtocolCase:
    """Per-shard writers race a cross-shard ``batch_get`` scatter-gather.

    The clean variant runs the real router: the batcher issues
    ``batch_get`` over keys spanning both shards under an ambient
    :func:`~repro.sim.trace.tracer` (which makes each shard take its
    scalar path), recorded per-key via
    :meth:`~repro.chaos.history.HistoryRecorder.call_batch`; two writers
    blind-write and remove/insert keys on their own shards through the
    router's point API.  Every per-key batch result must linearize
    somewhere inside the batch window.

    The planted mutant re-implements the gather with a *shared* scratch
    table keyed by shard id — two concurrent batchers overwrite each
    other's sub-batch results in the ``planted.shard.gather`` window, so
    one batcher can return shard-mate B's value for A's key (a torn
    cross-batch gather the map oracle flags).
    """
    idx = _build_shard_index()
    rec = HistoryRecorder()

    if planted:
        scratch: dict[int, list] = {}

        def planted_batch(keys: tuple[int, ...]) -> list:
            arr = np.array(keys, dtype=np.uint64)
            parts = idx.scatter(arr)
            for s, _pos, sub in parts:
                # The bug: sub-batch results parked in a table shared by
                # every batcher, with an interleaving window before the
                # gather reads them back.
                scratch[s] = idx.shards[s].batch_get(sub)
                chaos.point("planted.shard.gather")
            out: list = [None] * len(arr)
            for s, pos, _sub in parts:
                vals = scratch.get(s) or []
                for j, i in enumerate(pos.tolist()):
                    out[i] = vals[j] if j < len(vals) else None
            return out

        def batcher(task: str, keys: tuple[int, ...]) -> None:
            for _ in range(batches):
                rec.call_batch(task, "get", keys, lambda: planted_batch(keys))

        tasks: list[tuple[str, Callable[[], None]]] = [
            ("batcher-a", lambda: batcher("batcher-a", (100, 1100))),
            ("batcher-b", lambda: batcher("batcher-b", (163, 1163))),
        ]
        return ProtocolCase(
            protocol="shard",
            planted=True,
            tasks=tasks,
            rec=rec,
            check=lambda: check_linearizable(rec.ops, init=dict(_SHARD_INIT)),
            snapshot=lambda: tuple(idx.get(k) for k in sorted(_SHARD_INIT)),
        )

    def batch() -> list:
        arr = np.array(batch_keys, dtype=np.uint64)
        # The ambient tracer sends each shard's batch_get down its
        # scalar path, so this case checks the router's scatter-gather
        # alone; the vectorized batch paths have their own cases (view,
        # insert-batch).
        with tracer():
            return idx.batch_get(arr)

    def batcher(task: str) -> None:
        for _ in range(batches):
            rec.call_batch(task, "get", batch_keys, batch)

    def put(task: str, key: int, value: str) -> None:
        # ALTIndex.insert upserts, so record it as a blind write.
        rec.call(task, "put", key, lambda: (idx.insert(key, value), None)[1], arg=value)

    def writer_a(task: str) -> None:
        script = [
            lambda: put(task, 100, "a1"),
            lambda: rec.call(task, "remove", 163, lambda: idx.remove(163)),
        ]
        for step in script[:writer_reps]:
            step()

    def writer_b(task: str) -> None:
        script = [
            lambda: put(task, 1100, "b1"),
            lambda: rec.call(
                task, "insert", 1200, lambda: idx.insert(1200, "b2"), arg="b2"
            ),
        ]
        for step in script[:writer_reps]:
            step()

    tasks = [
        (name, fn)
        for name, fn in (
            ("writer-a", lambda: writer_a("writer-a")),
            ("writer-b", lambda: writer_b("writer-b")),
        )[:writers]
    ]
    tasks.append(("batcher", lambda: batcher("batcher")))
    return ProtocolCase(
        protocol="shard",
        planted=False,
        tasks=tasks,
        rec=rec,
        check=lambda: check_linearizable(rec.ops, init=dict(_SHARD_INIT)),
        snapshot=lambda: tuple(idx.get(k) for k in (100, 163, 1100, 1163, 1200)),
    )


#: protocol -> case builder; each takes ``planted`` first.
CASE_BUILDERS: dict[str, Callable[..., ProtocolCase]] = {
    "gpl": build_gpl_case,
    "spinlock": build_spinlock_case,
    "art": build_art_case,
    "art-merge": build_art_merge_case,
    "writeback": build_writeback_case,
    "view": build_view_case,
    "insert": build_insert_case,
    "insert-batch": functools.partial(build_insert_case, batch=True),
    "retrain": build_retrain_case,
    "shard": build_shard_case,
}


def run_schedule(
    protocol: str, seed: int, planted: bool = False, crash_point: str | None = None
) -> ScheduleReport:
    """Drive a fresh ``protocol`` case under one seeded schedule.

    ``crash_point`` arms a crash (e.g. ``"alt.writeback"`` on the
    writeback case, dying between the ART hit and the slot write) — the
    fixture generator for the flight-recorder postmortem uses exactly
    that.  When a flight recorder is installed, a non-linearizable
    history freezes the per-thread rings — the "what led up to it" view
    that a seed alone doesn't give you.
    """
    case = CASE_BUILDERS[protocol](planted)
    sched = ChaosScheduler(seed=seed)
    for name, fn in case.tasks:
        sched.spawn(name, fn)
    if crash_point is not None:
        sched.crash_at(crash_point)
    sched.run()
    if case.cleanup is not None:
        case.cleanup()
    check = case.check()
    report = ScheduleReport(
        protocol=case.protocol,
        seed=seed,
        planted=case.planted,
        fingerprint=sched.fingerprint(),
        ops=case.rec.ops,
        check=check,
        crashed=sched.crashed_tasks(),
        scheduler=sched,
    )
    if not check.ok:
        obs_recorder.auto_dump(
            "linearizability_violation",
            {
                "protocol": case.protocol,
                "seed": seed,
                "planted": case.planted,
                "reason": check.reason,
                "schedule_fingerprint": report.fingerprint,
            },
        )
    return report


#: Small case factories for systematic exploration, per protocol:
#: ``(clean_factory, planted_factory)``.  Sized so the planted mutant is
#: reachable quickly by DFS and the clean variant's schedule tree fits a
#: modest budget (the gpl clean variant — two tasks, ≤6 points each — is
#: fully enumerable and is the acceptance case for ``--exhaustive``).
EXHAUSTIVE_CASES: dict[str, tuple[Callable[[], ProtocolCase], Callable[[], ProtocolCase]]] = {
    "gpl": (
        # Two tasks, ≤6 points each: one serialized writer, one seqlock
        # reader — small enough to enumerate completely.
        lambda: build_gpl_case(False, adders=1, adder_reps=1, reader_reps=1),
        lambda: build_gpl_case(True, adders=2, adder_reps=1, reader_reps=0),
    ),
    "spinlock": (
        lambda: build_spinlock_case(False, workers=(("reg-a", (5,)), ("reg-b", (5,)))),
        lambda: build_spinlock_case(True, workers=(("reg-a", (5,)), ("reg-b", (5,)))),
    ),
    "art": (
        lambda: build_art_case(False, with_reader=False, b_extra=False),
        lambda: build_art_case(True, with_reader=False, b_extra=False),
    ),
    "art-merge": (
        lambda: build_art_merge_case(False, cycles=1, readers=1, reader_reps=1),
        lambda: build_art_merge_case(True, cycles=1, readers=1, reader_reps=1),
    ),
    "writeback": (
        lambda: build_writeback_case(False, getters=2, getter_reps=1),
        lambda: build_writeback_case(True, getters=1, getter_reps=2),
    ),
    "view": (
        # One remove, one read, one merge: the mutant's window needs
        # just the read inside the merge.
        lambda: build_view_case(False, getter_reps=1, batches=1, writes=1),
        lambda: build_view_case(True, getter_reps=1, batches=1, writes=1),
    ),
    "insert": (
        lambda: build_insert_case(False, getter_reps=0),
        lambda: build_insert_case(True, getter_reps=0),
    ),
    "insert-batch": (
        lambda: build_insert_case(False, getter_reps=0, batch=True),
        lambda: build_insert_case(True, getter_reps=0, batch=True),
    ),
    "retrain": (
        lambda: build_retrain_case(False, inserts=(), reader_reps=1),
        lambda: build_retrain_case(True, inserts=(), reader_reps=1),
    ),
    "shard": (
        # One single-op writer vs. one two-key cross-shard batch keeps
        # the clean schedule tree enumerable; the planted mutant needs
        # both batchers, which is already its minimum shape.
        lambda: build_shard_case(
            False, writers=1, writer_reps=1, batches=1, batch_keys=(100, 1100)
        ),
        lambda: build_shard_case(True, batches=1),
    ),
}


def find_violating_seed(
    protocol: str, seeds: range | list[int] = range(64)
) -> ScheduleReport | None:
    """Scan seeds until the planted mutant of ``protocol`` misbehaves.

    Returns the first violating report, or ``None`` if no scanned seed
    produced an adversarial interleaving (the race window was never
    hit).  Deterministic: the same scan always lands on the same seed.
    """
    for seed in seeds:
        report = run_schedule(protocol, seed, planted=True)
        if not report.ok:
            return report
    return None
