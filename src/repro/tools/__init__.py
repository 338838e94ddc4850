"""Repository maintenance tools (not part of the index implementation).

- :mod:`repro.tools.check_docs` — verify that every ``repro.*`` name
  referenced in the documentation actually exists
  (``python -m repro.tools.check_docs``).
- :mod:`repro.tools.check_spins` — flag ``while True`` retry loops in
  the protocol files that no retry budget bounds.
- :mod:`repro.tools.check_spans` — keep the span, chaos-point and
  metric taxonomies closed in both directions.
- :mod:`repro.tools.checkall` — run all three and fail if any fails
  (``python -m repro.tools.checkall``).
"""
