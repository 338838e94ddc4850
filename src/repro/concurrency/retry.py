"""Bounded retry policy shared by every optimistic protocol.

The paper's protocols are optimistic: seqlock readers spin while a slot
is latched, OLC operations restart from the root when a version check
fails.  Leis et al. assume restarts are *bounded*; an implementation
that spins ``while True`` has three failure modes this module removes:

1. **GIL monopolization** — a hot spin loop starves the very writer it
   waits for.  Early retries yield (``time.sleep(0)``), later ones back
   off exponentially with jitter.
2. **Livelock** — competing writers can restart each other forever.
   After :attr:`BoundedRetry.fallback_after` optimistic restarts an
   operation *falls back to pessimism*: it serializes through a lock so
   at most one aggressive retrier runs at a time (the caller supplies
   the lock; see :meth:`RetryState.should_fallback`).  Fallbacks are
   counted in :attr:`repro.sim.trace.CostTrace.fallbacks` so the
   simulator can price contention collapse.
3. **Stuck writers** — a writer that died mid-latch (crash, injected
   fault) leaves a slot version odd forever.  A reader's spin exhausts
   :attr:`BoundedRetry.max_retries` and raises — :class:`StuckWriterError`
   at seqlock sites, :class:`RetryBudgetExceeded` elsewhere — instead of
   hanging, which is what makes crash *recovery* reachable.

Every retry passes through a chaos interleaving point named after its
site (``"<site>.retry"``), so a :class:`repro.chaos.ChaosScheduler` can
deterministically interleave spinning threads; under chaos the real
sleeps are skipped (the schedule, not wall-clock, provides fairness).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro import chaos
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs.spans import current_profile
from repro.sim.trace import active_tracer


class RetryBudgetExceeded(RuntimeError):
    """An optimistic retry loop exhausted its :class:`BoundedRetry` budget."""

    def __init__(self, site: str, attempts: int):
        super().__init__(
            f"retry budget exhausted at {site!r} after {attempts} attempts"
        )
        self.site = site
        self.attempts = attempts


class StuckWriterError(RetryBudgetExceeded):
    """A seqlock slot stayed latched (odd version) past the spin budget.

    The classic cause is a writer that crashed between ``write_begin``
    and ``write_end``; recovery is per-slot
    (:meth:`repro.core.learned_layer.GPLModel.recover_slot`).
    """

    def __init__(self, site: str, attempts: int, slot: int = -1):
        super().__init__(site, attempts)
        self.slot = slot


@dataclass(frozen=True)
class BoundedRetry:
    """Tunable retry policy (immutable; share one instance freely).

    =================  =========================================================
    knob               meaning
    =================  =========================================================
    spin_budget        retries that only yield the GIL (``time.sleep(0)``)
    max_retries        hard budget; exceeding it raises
    fallback_after     optimistic restarts before pessimistic fallback
    backoff_base_s     first real backoff sleep (seconds)
    backoff_factor     multiplier per retry past the spin budget
    backoff_max_s      backoff ceiling
    jitter             uniform multiplicative jitter, ``sleep *= 1+U(0,jitter)``
    rng                jitter entropy source; pass ``random.Random(seed)`` for
                       reproducible backoff timing across benchmark runs
    =================  =========================================================
    """

    spin_budget: int = 64
    max_retries: int = 4096
    fallback_after: int = 16
    backoff_base_s: float = 1e-6
    backoff_factor: float = 2.0
    backoff_max_s: float = 1e-3
    jitter: float = 0.5
    rng: random.Random = field(
        default_factory=random.Random, repr=False, compare=False
    )

    def begin(self, site: str) -> "RetryState":
        """Fresh per-operation retry state for loops at ``site``."""
        return RetryState(self, site)


#: Default policy used when a structure is not given its own.
DEFAULT_RETRY = BoundedRetry()


class RetryState:
    """Mutable per-operation companion of :class:`BoundedRetry`.

    Call :meth:`step` once per failed attempt.  It counts the retry in
    the ambient tracer, fires the site's chaos point, yields or backs
    off, and raises once the budget is gone.
    """

    __slots__ = ("policy", "site", "attempts", "_point")

    def __init__(self, policy: BoundedRetry, site: str):
        self.policy = policy
        self.site = site
        self.attempts = 0
        self._point = site + ".retry"

    def step(self, *, slot: int = -1, stuck: bool = False) -> None:
        """Account one failed attempt; sleep/yield; enforce the budget.

        ``stuck=True`` marks spin-on-latched-seqlock sites: budget
        exhaustion raises :class:`StuckWriterError` (carrying ``slot``)
        instead of the generic :class:`RetryBudgetExceeded`.
        """
        prof = current_profile()
        if prof is not None:
            prof.enter("retry.backoff")
        try:
            active_tracer().retries += 1
            obs_metrics.inc("retry.attempts")
            self.attempts += 1
            rec = obs_recorder._active
            if rec is not None:
                rec.record(
                    "retry", self.site, {"attempts": self.attempts, "slot": slot}
                )
            policy = self.policy
            if self.attempts >= policy.max_retries:
                obs_metrics.inc("retry.budget_exceeded")
                reason = "stuck_writer" if stuck else "retry_budget_exceeded"
                context = {
                    "site": self.site,
                    "attempts": self.attempts,
                    "slot": slot,
                }
                if rec is not None:
                    rec.record("error", reason, context)
                    rec.auto_dump(reason, context)
                if stuck:
                    raise StuckWriterError(self.site, self.attempts, slot)
                raise RetryBudgetExceeded(self.site, self.attempts)
            chaos.point(self._point)
            if chaos.is_active():
                return  # the schedule decides who runs; no wall-clock waits
            if self.attempts <= policy.spin_budget:
                time.sleep(0)  # release the GIL so the writer can finish
                return
            exp = self.attempts - policy.spin_budget
            delay = min(
                policy.backoff_base_s * policy.backoff_factor ** (exp - 1),
                policy.backoff_max_s,
            )
            time.sleep(delay * (1.0 + policy.rng.random() * policy.jitter))
        finally:
            if prof is not None:
                prof.exit()

    @property
    def should_fallback(self) -> bool:
        """True once optimism has failed :attr:`BoundedRetry.fallback_after` times."""
        return self.attempts >= self.policy.fallback_after

    def count_fallback(self) -> None:
        """Record a pessimistic fallback in the ambient tracer."""
        prof = current_profile()
        if prof is not None:
            prof.enter("retry.fallback")
        active_tracer().fallbacks += 1
        obs_metrics.inc("retry.fallbacks")
        obs_metrics.observe("retry.attempts_at_fallback", self.attempts)
        obs_recorder.record("fallback", self.site, {"attempts": self.attempts})
        if prof is not None:
            prof.exit()


def acquire_cooperative(lock, state: RetryState) -> None:
    """Acquire a native lock without ever blocking the chaos baton.

    Under a chaos schedule a plain ``lock.acquire()`` while another
    (paused) task holds the lock would deadlock the whole scheduler, so
    fallback paths spin with try-acquire through ``state`` — each failed
    attempt is a chaos point and a bounded yield/backoff.
    """
    while True:
        if lock.acquire(blocking=False):
            return
        state.step()


def acquire_writer_lock(lock, site: str) -> None:
    """Block on a writer lock; cooperatively (via ``site``) under chaos."""
    if lock.acquire(blocking=False):
        return
    if chaos.is_active():
        acquire_cooperative(lock, DEFAULT_RETRY.begin(site))
    else:
        lock.acquire()
