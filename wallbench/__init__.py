"""Wall-clock benchmark of ALT-index (see ``wallbench/run.py``)."""
