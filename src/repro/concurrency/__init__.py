"""Concurrency primitives used across the indexes.

These implement the paper's actual protocols — seqlock-style per-slot
version numbers (§III-E), test-and-set spin locks for the fast pointer
buffer, optimistic versioned locks for ART's lock coupling (Leis et al.,
"The ART of practical synchronization").  Reclamation needs no
protocol here: an unlinked node or model is freed at once, and
refcounting keeps it alive for any reader still holding it (see
:mod:`repro.concurrency.epoch`).

They are *real*: the protocols function correctly under Python threads
(the test suite hammers them with concurrent writers).  They are also
*instrumented*: acquisitions and retries record atomic-RMW events and
shared-cache-line touches into the ambient cost trace, which is how the
performance simulator sees contention.
"""

from repro.concurrency.epoch import EpochManager
from repro.concurrency.retry import (
    DEFAULT_RETRY,
    BoundedRetry,
    RetryBudgetExceeded,
    StuckWriterError,
)
from repro.concurrency.spinlock import SpinLock
from repro.concurrency.version_lock import OptimisticLock, RestartException

__all__ = [
    "BoundedRetry",
    "DEFAULT_RETRY",
    "EpochManager",
    "OptimisticLock",
    "RestartException",
    "RetryBudgetExceeded",
    "SpinLock",
    "StuckWriterError",
]
