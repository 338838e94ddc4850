"""Systematic schedule enumeration with sleep-set pruning (DPOR-style).

The seeded :class:`~repro.chaos.scheduler.ChaosScheduler` *samples*
interleavings; this module *enumerates* them.  It repeatedly re-executes
a :class:`~repro.chaos.protocols.ProtocolCase` factory, driving each
execution by a prescribed prefix plus a greedy tail (the scheduler's
decision-callback mode), and walks the execution tree depth-first:
every recorded scheduling step whose choice set held more than one task
becomes a branch to revisit with a different choice.  For small task
sets this upgrades "no seed we tried broke it" to "no schedule breaks
it", and finds every planted mutant deterministically — no seed scan.

**Sleep sets** (Godefroid) prune commuting branches: after exploring
task *t* from a state, *t* is put to sleep for the sibling branches and
stays asleep along them until some executed transition is *dependent*
with *t*'s — two schedules that differ only in the order of independent
transitions reach the same state, so re-exploring the sleeping branch
is redundant.  Dependence comes from an *independence oracle* over
transition footprints:

- :func:`span_footprint` maps a transition (resume point → arrival
  point) to the set of covering spans from
  :data:`repro.obs.taxonomy.CHAOS_SPAN_MAP` — e.g. a segment between
  ``art.view`` and ``art.merge`` footprints to ``{"art.descend"}``.
  Unknown, exempt (``planted.*``), start and exit endpoints footprint to
  ``"*"``.
- :func:`span_independent` calls two footprints independent only when
  both are fully known (no ``"*"``) and span-disjoint.  This is a
  *heuristic* — spans are coarse summaries, not exact read/write sets —
  so it is validated against brute force on toy protocols in the test
  suite, and :func:`never_independent` (``--no-prune``) degrades the
  exploration to sound plain enumeration.

**Spin coalescing**: tasks parked at a bounded-retry point
(``*.retry``) are not branched to while any non-spinning task can run —
under chaos a retry step is a pure yield, so schedules differing only
in interleaved spins are equivalent.  Disable with
``coalesce_spins=False`` for fully literal enumeration.

Budgets: ``max_schedules`` caps executed schedules; the report says
whether the tree was exhausted (``complete``) or the budget ran out.

Typical use::

    from repro.chaos import dpor, protocols

    clean, planted = protocols.EXHAUSTIVE_CASES["gpl"]
    report = dpor.explore(clean, protocol="gpl", max_schedules=500)
    assert report.complete and not report.violations

    report = dpor.explore(planted, protocol="gpl", stop_on_violation=True)
    assert report.violations  # found without a seed
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.chaos.history import CheckResult
from repro.chaos.protocols import ProtocolCase
from repro.chaos.scheduler import TASK_EXIT, ChaosScheduler
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs.taxonomy import span_for_point

#: Footprint element meaning "could touch anything" — never independent.
ANY_SITE = "*"

Footprint = frozenset
FootprintFn = Callable[[str | None, str | None], Footprint]
IndependenceFn = Callable[[Footprint, Footprint], bool]


def _site(point: str | None) -> str:
    """Span site covering one transition endpoint; unknown -> ANY_SITE.

    ``None`` (the task had not started) and :data:`TASK_EXIT` (the task
    finished) are unknown by construction: the segment includes task
    setup or teardown code no span covers.
    """
    if point is None or point == TASK_EXIT:
        return ANY_SITE
    return span_for_point(point) or ANY_SITE


def span_footprint(resume: str | None, arrival: str | None) -> Footprint:
    """Approximate footprint of the code segment a transition executed.

    The segment runs from the point the task was parked at (``resume``)
    to the point it arrived at (``arrival``); its footprint is the pair
    of covering spans.  Coarse on purpose: a span names a protocol layer
    (``alt.gpl_probe``, ``art.descend``), so two transitions in
    different layers are treated as commuting while anything uncertain
    collapses to :data:`ANY_SITE` and is never pruned against.
    """
    return frozenset({_site(resume), _site(arrival)})


def span_independent(a: Footprint, b: Footprint) -> bool:
    """Heuristic independence: both footprints known and span-disjoint."""
    if ANY_SITE in a or ANY_SITE in b:
        return False
    return a.isdisjoint(b)


def never_independent(a: Footprint, b: Footprint) -> bool:
    """Sound fallback: prune nothing (plain exhaustive enumeration)."""
    return False


class _StepNode:
    """One scheduling step of one execution, as seen by the driver."""

    __slots__ = (
        "step", "live", "enabled", "sleep", "chosen", "resume", "arrival",
        "footprint",
    )

    def __init__(
        self,
        step: int,
        live: tuple[str, ...],
        enabled: tuple[str, ...],
        sleep: dict[str, Footprint],
        chosen: str,
        resume: str | None,
    ):
        self.step = step
        self.live = live
        self.enabled = enabled
        self.sleep = sleep  # sleep set AT this state (name -> footprint)
        self.chosen = chosen
        self.resume = resume
        self.arrival: str | None = None  # filled once the segment ran
        self.footprint: Footprint = frozenset({ANY_SITE})


class _Driver:
    """Decision callback: replay a prefix, then greedy sleep-aware DFS tail.

    Records a :class:`_StepNode` per step.  Beyond the prefix it never
    chooses a sleeping task; if every enabled task is asleep the
    remainder of the execution is redundant (covered by a sibling
    branch) — it is driven to completion deterministically but marked
    ``blocked`` so the explorer neither checks it nor branches below the
    blocking state.
    """

    def __init__(
        self,
        prefix: list[str],
        inherited: dict[str, Footprint],
        footprint: FootprintFn,
        independence: IndependenceFn,
        prefer_switch: bool,
        coalesce_spins: bool,
    ):
        self.prefix = prefix
        self.inherited = inherited
        self.footprint = footprint
        self.independence = independence
        self.prefer_switch = prefer_switch
        self.coalesce_spins = coalesce_spins
        self.nodes: list[_StepNode] = []
        self.blocked_from: int | None = None
        self.sched: ChaosScheduler | None = None  # set by the explorer
        self._sleep: dict[str, Footprint] = {}

    # -- helpers ---------------------------------------------------------
    def _finalize_step(self, node: _StepNode) -> None:
        """Fill a completed step's arrival/footprint from the choice log."""
        choice = self.sched.choices[node.step]
        node.arrival = choice.arrival
        node.footprint = self.footprint(node.resume, node.arrival)

    def _enabled(self, live: tuple[str, ...], parked: dict[str, str]) -> tuple[str, ...]:
        if not self.coalesce_spins:
            return live
        busy = tuple(
            t for t in live if not parked.get(t, "").endswith(".retry")
        )
        return busy or live  # all spinning: let a spinner through

    def finalize(self) -> None:
        """Complete the last step's footprint after the run finishes."""
        if self.nodes:
            self._finalize_step(self.nodes[-1])

    # -- the decision callback -------------------------------------------
    def __call__(
        self, step: int, live: tuple[str, ...], parked: dict[str, str]
    ) -> str:
        free_from = len(self.prefix)
        if self.nodes:
            prev = self.nodes[-1]
            self._finalize_step(prev)
            # Sleep evolution: entering the first free state applies the
            # inherited candidates; afterwards the running sleep set is
            # filtered.  Either way a sleeper survives only while it is
            # independent of the transition just executed.
            base: dict[str, Footprint] | None = None
            if step == free_from:
                base = self.inherited
            elif step > free_from:
                base = self._sleep
            if base is not None:
                self._sleep = {
                    u: fu
                    for u, fu in base.items()
                    if u != prev.chosen and self.independence(fu, prev.footprint)
                }
        elif step == 0 and free_from == 0:
            self._sleep = dict(self.inherited)

        enabled = self._enabled(live, parked)
        if step < free_from:
            chosen = self.prefix[step]
            sleep_here: dict[str, Footprint] = {}
        else:
            candidates = [t for t in enabled if t not in self._sleep]
            sleep_here = dict(self._sleep)
            if not candidates:
                if self.blocked_from is None:
                    self.blocked_from = step
                chosen = enabled[0]
            else:
                if self.prefer_switch and self.nodes:
                    last = self.nodes[-1].chosen
                    candidates.sort(key=lambda t: (t == last,))
                chosen = candidates[0]
        self.nodes.append(
            _StepNode(step, live, enabled, sleep_here, chosen, parked.get(chosen))
        )
        return chosen


@dataclass
class Violation:
    """One schedule whose terminal history failed its protocol check."""

    protocol: str
    planted: bool
    schedule: list[str]  # task chosen at each step — replays the failure
    fingerprint: str  # firing-log fingerprint of the violating execution
    check: CheckResult

    def summary(self) -> str:
        return (
            f"{self.protocol:<8} schedule={'.'.join(self.schedule)} "
            f"fingerprint={self.fingerprint} -> VIOLATION ({self.check.reason})"
        )


@dataclass
class ExplorationStats:
    executions: int = 0  # schedules actually run (incl. redundant ones)
    terminals: int = 0  # schedules that reached a checked terminal state
    pruned: int = 0  # sibling branches skipped by sleep sets
    redundant: int = 0  # executions that blocked on an all-asleep state
    max_depth: int = 0  # longest schedule seen (steps)


@dataclass
class ExplorationReport:
    """Everything :func:`explore` learned about one case's schedule tree."""

    protocol: str
    planted: bool
    stats: ExplorationStats
    violations: list[Violation] = field(default_factory=list)
    outcomes: set = field(default_factory=set)  # distinct snapshot() values
    complete: bool = False  # tree exhausted within budget (and no early stop)
    budget_exhausted: bool = False
    stopped_early: bool = False  # stop_on_violation fired

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        s = self.stats
        mode = " planted-bug" if self.planted else ""
        if self.stopped_early:
            coverage = "stopped at first violation"
        elif self.complete:
            coverage = "complete"
        else:
            coverage = "budget exhausted"
        verdict = (
            "NO VIOLATIONS" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        )
        return (
            f"{self.protocol:<8} exhaustive{mode} explored={s.executions} "
            f"pruned={s.pruned} redundant={s.redundant} "
            f"depth<={s.max_depth} [{coverage}] -> {verdict}"
        )


def schedule_fingerprint(schedule: list[str]) -> str:
    """Stable digest of a prescribed schedule (task name per step)."""
    h = hashlib.sha256()
    for name in schedule:
        h.update(name.encode())
        h.update(b";")
    return h.hexdigest()[:16]


def explore(
    factory: Callable[[], ProtocolCase],
    *,
    protocol: str | None = None,
    max_schedules: int = 1000,
    footprint: FootprintFn = span_footprint,
    independence: IndependenceFn = span_independent,
    stop_on_violation: bool = False,
    prefer_switch: bool = True,
    coalesce_spins: bool = True,
    collect_outcomes: bool = False,
) -> ExplorationReport:
    """Enumerate the schedule tree of ``factory``'s workload.

    Runs one full execution per explored schedule (stateless search: the
    factory rebuilds fresh state every time), checks each terminal
    history via the case's own check, and recurses into every sibling
    choice not pruned by the sleep sets.  ``collect_outcomes`` gathers
    the distinct ``case.snapshot()`` values over all terminal executions
    — the brute-force equivalence tests compare these between pruned and
    unpruned runs.

    Pass ``independence=never_independent`` for sound plain enumeration
    (no pruning), or a custom oracle when the workload's footprints are
    known exactly (the toy-protocol tests do).
    """
    probe = factory()
    report = ExplorationReport(
        protocol=protocol or probe.protocol, planted=probe.planted,
        stats=ExplorationStats(),
    )
    del probe
    stats = report.stats
    stop = False

    def run_one(prefix: list[str], inherited: dict[str, Footprint]):
        case = factory()
        driver = _Driver(
            prefix, inherited, footprint, independence,
            prefer_switch, coalesce_spins,
        )
        sched = ChaosScheduler(decide=driver)
        driver.sched = sched
        for name, fn in case.tasks:
            sched.spawn(name, fn)
        sched.run()
        driver.finalize()
        if case.cleanup is not None:
            case.cleanup()
        return case, driver, sched

    def dfs(prefix: list[str], inherited: dict[str, Footprint]) -> _Driver | None:
        nonlocal stop
        if stop:
            return None
        if stats.executions >= max_schedules:
            report.budget_exhausted = True
            return None
        case, driver, sched = run_one(prefix, inherited)
        stats.executions += 1
        obs_metrics.inc("dpor.executions")
        stats.max_depth = max(stats.max_depth, len(driver.nodes))
        if driver.blocked_from is None:
            stats.terminals += 1
            check = case.check()
            if collect_outcomes and case.snapshot is not None:
                report.outcomes.add(case.snapshot())
            if not check.ok:
                schedule = [n.chosen for n in driver.nodes]
                violation = Violation(
                    protocol=report.protocol,
                    planted=report.planted,
                    schedule=schedule,
                    fingerprint=sched.fingerprint(),
                    check=check,
                )
                report.violations.append(violation)
                obs_metrics.inc("dpor.violations")
                obs_recorder.auto_dump(
                    "linearizability_violation",
                    {
                        "protocol": report.protocol,
                        "planted": report.planted,
                        "reason": check.reason,
                        "schedule": "schedule:" + schedule_fingerprint(schedule),
                        "schedule_fingerprint": sched.fingerprint(),
                    },
                )
                if stop_on_violation:
                    stop = True
                    report.stopped_early = True
                    return driver
        else:
            stats.redundant += 1
        # Branch: revisit every free step with each not-yet-slept sibling.
        limit = (
            driver.blocked_from
            if driver.blocked_from is not None
            else len(driver.nodes)
        )
        for d in range(limit - 1, len(prefix) - 1, -1):
            node = driver.nodes[d]
            done: dict[str, Footprint] = {node.chosen: node.footprint}
            for alt in node.enabled:
                if alt == node.chosen:
                    continue
                if alt in node.sleep:
                    stats.pruned += 1
                    obs_metrics.inc("dpor.pruned")
                    continue
                if stop or stats.executions >= max_schedules:
                    if stats.executions >= max_schedules:
                        report.budget_exhausted = True
                    return driver
                child_prefix = [n.chosen for n in driver.nodes[:d]] + [alt]
                child_inherited = {**node.sleep, **done}
                child = dfs(child_prefix, child_inherited)
                if child is not None and len(child.nodes) > d:
                    done[alt] = child.nodes[d].footprint
                else:
                    # Budget/stop interrupted the child before it measured
                    # this transition; be conservative for later siblings.
                    done[alt] = frozenset({ANY_SITE})
        return driver

    dfs([], {})
    report.complete = (
        not report.budget_exhausted and not report.stopped_early
    )
    return report


def explore_protocol(
    protocol: str,
    *,
    planted: bool = False,
    max_schedules: int = 1000,
    prune: bool = True,
    stop_on_violation: bool | None = None,
) -> ExplorationReport:
    """Explore a registered :data:`~repro.chaos.protocols.EXHAUSTIVE_CASES`
    variant by protocol name (the ``python -m repro.chaos --exhaustive``
    entry).  Planted runs stop at the first violation by default —
    detection, not a census, is the goal there."""
    from repro.chaos.protocols import EXHAUSTIVE_CASES

    clean, mutant = EXHAUSTIVE_CASES[protocol]
    if stop_on_violation is None:
        stop_on_violation = planted
    return explore(
        mutant if planted else clean,
        protocol=protocol,
        max_schedules=max_schedules,
        independence=span_independent if prune else never_independent,
        stop_on_violation=stop_on_violation,
    )
