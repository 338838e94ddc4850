"""Static two-stage Recursive Model Index (Kraska et al., SIGMOD 2018).

The root substrate of XIndex and a read-only baseline in its own right.
Stage 1 is a single linear model that routes a key to one of the stage-2
models; each stage-2 model is a least-squares line over its assigned
slice with a recorded maximum error, so a lookup is::

    model = stage2[ stage1(key) ]
    pos   = model(key)                      # O(1) prediction
    exact = binary search in [pos - err, pos + err]   # "last mile"

The bounded binary search is the *secondary search* whose cost the paper
targets: every probe touches a distinct cache line of the key array, and
its step count is recorded as ``secondary_steps`` in the cost trace.
"""

from __future__ import annotations

import numpy as np

from repro.sim.trace import MemoryMap, current_tracer, global_memory


class _LinearModel:
    """y = slope * (x - x0) + intercept with a recorded max error.

    Keys reach 2^62, where ``slope * x`` alone loses hundreds of ULPs to
    float64 cancellation; anchoring at the first key (x0) keeps the
    multiplication small and predictions exact, as the C implementations'
    ``key - first_key`` arithmetic does.
    """

    __slots__ = ("slope", "intercept", "x0", "max_error")

    def __init__(self, slope: float, intercept: float, x0: float, max_error: int):
        self.slope = slope
        self.intercept = intercept
        self.x0 = x0
        self.max_error = max_error

    def predict(self, key: float) -> int:
        return int(self.slope * (key - self.x0) + self.intercept)

    @classmethod
    def fit(cls, xs: np.ndarray, ys: np.ndarray) -> "_LinearModel":
        if len(xs) == 0:
            return cls(0.0, 0.0, 0.0, 0)
        x0 = float(xs[0])
        if len(xs) == 1 or xs[0] == xs[-1]:
            return cls(0.0, float(ys[0]), x0, 0)
        rel = xs - x0
        xm, ym = rel.mean(), ys.mean()
        denom = ((rel - xm) ** 2).sum()
        slope = float(((rel - xm) * (ys - ym)).sum() / denom) if denom else 0.0
        intercept = float(ym - slope * xm)
        err = int(np.ceil(np.abs(ys - (slope * rel + intercept)).max()))
        return cls(slope, intercept, x0, err)


class TwoStageRMI:
    """Maps uint64 keys to their positions in a sorted array."""

    def __init__(
        self,
        keys: np.ndarray,
        n_models: int = 0,
        memory: MemoryMap | None = None,
        tag: str = "rmi",
    ):
        keys = np.asarray(keys, dtype=np.uint64)
        self._keys = keys
        n = len(keys)
        self._memory = memory or global_memory()
        if n_models <= 0:
            n_models = max(n // 1024, 1)
        self.n_models = n_models
        xs = keys.astype(np.float64)
        ys = np.arange(n, dtype=np.float64)
        # Stage 1 routes to a stage-2 model by predicted fractional rank.
        self._stage1 = _LinearModel.fit(xs, ys * (n_models / max(n, 1)))
        assignment = np.clip(
            (
                self._stage1.slope * (xs - self._stage1.x0) + self._stage1.intercept
            ).astype(np.int64),
            0,
            n_models - 1,
        )
        self._stage2: list[_LinearModel] = []
        bounds = np.searchsorted(assignment, np.arange(n_models + 1))
        for j in range(n_models):
            lo, hi = bounds[j], bounds[j + 1]
            self._stage2.append(_LinearModel.fit(xs[lo:hi], ys[lo:hi]))
        self._span = self._memory.alloc(24 * (n_models + 1) + 16 * n, tag)
        self.max_error = max((m.max_error for m in self._stage2), default=0)

    def __len__(self) -> int:
        return len(self._keys)

    def _model_for(self, key: int) -> _LinearModel:
        j = self._stage1.predict(float(key))
        j = min(max(j, 0), self.n_models - 1)
        t = current_tracer()
        if t is not None:
            t.model_calcs += 2
            t.reads.append(self._span.line(24 * j))
        return self._stage2[j]

    def predict(self, key: int) -> tuple[int, int]:
        """(predicted position, error bound) for ``key``."""
        model = self._model_for(key)
        pos = model.predict(float(key))
        pos = min(max(pos, 0), len(self._keys) - 1)
        return pos, model.max_error

    def lookup(self, key: int) -> int:
        """Exact position of ``key`` in the array, or -1.

        Performs the ε-bounded secondary binary search and traces each
        probe as a distinct cache-line read of the key array.
        """
        n = len(self._keys)
        if n == 0:
            return -1
        pos, err = self.predict(key)
        lo = max(pos - err, 0)
        hi = min(pos + err + 1, n)
        keys = self._keys
        t = current_tracer()
        base = 24 * (self.n_models + 1)
        k64 = np.uint64(key)
        while lo < hi:
            mid = (lo + hi) // 2
            if t is not None:
                t.secondary_steps += 1
                t.comparisons += 1
                t.reads.append(self._span.line(base + mid * 16))
            if keys[mid] < k64:
                lo = mid + 1
            else:
                hi = mid
        if lo < n and keys[lo] == k64:
            return lo
        return -1

    def position_for(self, key: int) -> int:
        """Rank (insertion position) of ``key`` via the same search."""
        n = len(self._keys)
        if n == 0:
            return 0
        pos, err = self.predict(key)
        lo = max(pos - err, 0)
        hi = min(pos + err + 1, n)
        keys = self._keys
        t = current_tracer()
        base = 24 * (self.n_models + 1)
        k64 = np.uint64(key)
        # Widen if the prediction bracket missed the true rank
        # (defensive; cannot happen for keys in the training set).
        if lo > 0 and keys[lo - 1] > k64:
            lo = 0
        if hi < n and keys[hi] <= k64:
            hi = n
        while lo < hi:
            mid = (lo + hi) // 2
            if t is not None:
                t.secondary_steps += 1
                t.reads.append(self._span.line(base + mid * 16))
            if keys[mid] <= k64:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def free(self) -> None:
        self._span.free()
