"""BoundedRetry: budgets, backoff, fallback accounting, no livelock."""

import random
import threading
import time

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.concurrency.retry import (
    BoundedRetry,
    DEFAULT_RETRY,
    RetryBudgetExceeded,
    RetryState,
    StuckWriterError,
    acquire_cooperative,
)
from repro.concurrency.spinlock import SpinLock
from repro.concurrency.version_lock import RestartException, SlotVersionArray
from repro.obs.recorder import FlightRecorder, flight_recorder
from repro.sim.cost_model import CostModel
from repro.sim.trace import CostTrace, tracer

FAST = BoundedRetry(
    spin_budget=2,
    max_retries=24,
    fallback_after=4,
    backoff_base_s=1e-9,
    backoff_max_s=1e-8,
)


class TestBoundedRetry:
    def test_budget_exhaustion_raises(self):
        state = FAST.begin("test.site")
        with pytest.raises(RetryBudgetExceeded) as ei:
            for _ in range(100):
                state.step()
        assert ei.value.site == "test.site"
        assert ei.value.attempts == FAST.max_retries

    def test_stuck_variant_carries_slot(self):
        state = FAST.begin("slot.read_begin")
        with pytest.raises(StuckWriterError) as ei:
            for _ in range(100):
                state.step(slot=7, stuck=True)
        assert ei.value.slot == 7
        assert isinstance(ei.value, RetryBudgetExceeded)

    def test_steps_count_retries_in_trace(self):
        t = CostTrace()
        with tracer(t):
            state = FAST.begin("test.site")
            for _ in range(5):
                state.step()
        assert t.retries == 5

    def test_steps_work_without_tracer(self):
        state = FAST.begin("test.site")
        state.step()  # must not raise (null tracer has writable counters)
        assert state.attempts == 1

    def test_should_fallback_threshold(self):
        state = FAST.begin("test.site")
        assert not state.should_fallback
        for _ in range(FAST.fallback_after):
            state.step()
        assert state.should_fallback

    def test_count_fallback_traced_and_priced(self):
        t = CostTrace()
        with tracer(t):
            FAST.begin("test.site").count_fallback()
        assert t.fallbacks == 1
        model = CostModel()
        assert model.compute_ns(t) >= model.fallback_ns

    def test_default_policy_is_shared_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_RETRY.max_retries = 1

    def test_seeded_rng_reproduces_jitter(self, monkeypatch):
        # Backoff jitter draws from the policy's own RNG, so two policies
        # seeded identically sleep for identical durations.
        def delays(seed: int) -> list[float]:
            policy = BoundedRetry(
                spin_budget=0, backoff_base_s=1e-3, backoff_factor=2.0,
                backoff_max_s=1.0, jitter=0.5, max_retries=50,
                rng=random.Random(seed),
            )
            slept: list[float] = []
            monkeypatch.setattr(time, "sleep", slept.append)
            state = policy.begin("test.site")
            for _ in range(8):
                state.step()
            return slept

        assert delays(42) == delays(42)
        assert delays(42) != delays(43)

    def test_jitter_is_independent_of_global_random_state(self, monkeypatch):
        # Previously jitter came from the module-global random — reseeding
        # it between runs changed retry timing behind the caller's back.
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)

        def run(global_seed: int) -> list[float]:
            random.seed(global_seed)
            policy = BoundedRetry(
                spin_budget=0, backoff_base_s=1e-3, backoff_factor=2.0,
                backoff_max_s=1.0, jitter=0.5, max_retries=50,
                rng=random.Random(7),
            )
            slept.clear()
            state = policy.begin("test.site")
            for _ in range(5):
                state.step()
            return list(slept)

        assert run(1) == run(2)

    def test_backoff_delay_is_capped(self):
        policy = BoundedRetry(
            spin_budget=0, backoff_base_s=1.0, backoff_factor=10.0,
            backoff_max_s=1e-4, jitter=0.0, max_retries=10,
        )
        state = policy.begin("test.site")
        start = time.monotonic()
        for _ in range(5):
            state.step()
        assert time.monotonic() - start < 0.5  # 5 sleeps, each <= 1e-4 (+slack)


class TestAcquireCooperative:
    def test_acquires_free_lock(self):
        lock = threading.Lock()
        acquire_cooperative(lock, FAST.begin("test.site"))
        assert lock.locked()

    def test_budget_applies_while_contended(self):
        lock = threading.Lock()
        lock.acquire()
        with pytest.raises(RetryBudgetExceeded):
            acquire_cooperative(lock, FAST.begin("test.site"))


class TestSpinLockFallback:
    def test_contended_acquire_falls_back_pessimistically(self):
        """A long-held lock drives the spinner into the pessimistic
        fallback (visible in CostTrace) instead of spinning forever."""
        lock = SpinLock(retry=FAST)
        lock.acquire()
        released = threading.Event()

        def holder():
            time.sleep(0.02)
            lock.release()
            released.set()

        t = CostTrace()
        threading.Thread(target=holder, daemon=True).start()
        with tracer(t):
            lock.acquire()  # parks on the native lock after fallback_after
        assert released.is_set()
        assert t.fallbacks == 1
        assert t.retries >= FAST.fallback_after
        assert lock.contentions == 1
        lock.release()

    def test_uncontended_fast_path_counts_rmw(self):
        t = CostTrace()
        lock = SpinLock(retry=FAST)
        with tracer(t):
            with lock:
                pass
        assert t.atomic_rmw == 1
        assert t.fallbacks == 0


class TestSeqlockBudget:
    def test_reader_times_out_on_latched_slot(self):
        arr = SlotVersionArray(4, retry=FAST)
        arr.write_begin(2)  # latch and never release: a dead writer
        with pytest.raises(StuckWriterError) as ei:
            arr.read_begin(2)
        assert ei.value.slot == 2

    def test_writer_times_out_on_latched_slot(self):
        arr = SlotVersionArray(4, retry=FAST)
        arr.write_begin(1)
        with pytest.raises(StuckWriterError):
            arr.write_begin(1)


class TestARTFallback:
    def test_forced_contention_engages_fallback_not_livelock(self):
        """Write-lock a node out-of-band; a search must degrade to the
        pessimistic path, then succeed once the lock is released."""
        tree = AdaptiveRadixTree(retry=BoundedRetry(
            spin_budget=1, max_retries=10_000, fallback_after=3,
            backoff_base_s=1e-9, backoff_max_s=1e-6,
        ))
        for k in (10, 20, 30):
            tree.insert(k, k)
        root = tree.root
        root.lock.write_lock_or_restart()

        def release():
            time.sleep(0.02)
            root.lock.write_unlock()

        threading.Thread(target=release, daemon=True).start()
        t = CostTrace()
        with tracer(t):
            assert tree.search(20) == 20
        assert t.fallbacks >= 1  # pessimistic degradation engaged
        assert t.retries >= 3


def _restart_first(tree, name: str, failures: int) -> list[bool]:
    """Make ``tree.<name>`` raise RestartException on its first
    ``failures`` attempts.  Returns, per attempt, whether the tree's
    fallback lock was held when the attempt ran."""
    real = getattr(tree, name)
    held: list[bool] = []

    def attempt(*args):
        held.append(tree._fallback_lock.locked())
        if len(held) <= failures:
            raise RestartException
        return real(*args)

    setattr(tree, name, attempt)
    return held


OPS = {
    "search": ("_search", lambda tree: tree.search(20), 20),
    "insert": ("_insert", lambda tree: tree.insert(25, 25), True),
    "remove": ("_remove", lambda tree: tree.remove(30), True),
}


class TestARTRestartAccounting:
    """One restart costs one retry step, as a restart loop that builds
    its retry state up front counts it; the first attempt allocates none."""

    @staticmethod
    def _tree(policy: BoundedRetry = FAST) -> AdaptiveRadixTree:
        tree = AdaptiveRadixTree(retry=policy)
        for k in (10, 20, 30):
            tree.insert(k, k)
        return tree

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_one_restart_is_one_retry_and_one_chaos_point(self, op):
        name, run, expected = OPS[op]
        tree = self._tree()
        held = _restart_first(tree, name, failures=1)
        rec = FlightRecorder(capacity=4096)
        t = CostTrace()
        with flight_recorder(rec), tracer(t):
            assert run(tree) == expected
        assert held == [False, False]
        assert (t.retries, t.fallbacks) == (1, 0)
        points = [
            e["name"]
            for events in rec.threads().values()
            for e in events
            if e["kind"] == "point" and e["name"].endswith(".retry")
        ]
        assert points == [f"art.{op}.retry"]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_fallback_lock_taken_after_exactly_k_failures(self, op, k):
        name, run, expected = OPS[op]
        policy = BoundedRetry(
            spin_budget=8, max_retries=64, fallback_after=k,
            backoff_base_s=1e-9, backoff_max_s=1e-8,
        )
        tree = self._tree(policy)
        held = _restart_first(tree, name, failures=k)
        t = CostTrace()
        with tracer(t):
            assert run(tree) == expected
        assert held == [False] * k + [True]
        assert (t.retries, t.fallbacks) == (k, 1)
        assert not tree._fallback_lock.locked()

    def test_no_restart_takes_no_retry_state(self):
        class NoState(BoundedRetry):
            def begin(self, site):
                raise AssertionError(f"retry state built at {site}")

        tree = self._tree(NoState())
        assert tree.search(20) == 20
        assert tree.insert(25, 25)
        assert tree.remove(30)
