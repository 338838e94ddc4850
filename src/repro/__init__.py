"""ALT-Index: a hybrid learned index for concurrent memory database systems.

A from-scratch Python reproduction of the ICDE 2025 paper, including the
ALT-index itself, a full Adaptive Radix Tree substrate, the competitor
indexes it is evaluated against (ALEX+, LIPP+, XIndex, FINEdex, ART), the
datasets and workloads of the evaluation, and a deterministic concurrency
simulator that regenerates every table and figure of Section IV.

Quickstart::

    import numpy as np
    from repro import ALTIndex

    keys = np.sort(np.random.default_rng(0).choice(2**40, 100_000, False))
    index = ALTIndex.bulk_load(keys)          # epsilon = len/1000 rule
    index.get(int(keys[42]))
    index.insert(123456789, "value")
    index.scan(int(keys[0]), 10)
"""

from repro.common import BatchIndex, OrderedIndex
from repro.core.alt_index import ALTIndex
from repro.core.analysis import suggest_error_bound
from repro.core.gpl import Segment, gpl_partition

__version__ = "1.0.0"

__all__ = [
    "ALTIndex",
    "BatchIndex",
    "OrderedIndex",
    "Segment",
    "gpl_partition",
    "suggest_error_bound",
    "__version__",
]
