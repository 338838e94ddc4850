"""Static span/chaos-point consistency checker (tier-1).

The observability layer only works if its two name spaces stay closed:

1. **The span table is sound.**  Every
   :data:`repro.obs.taxonomy.SPAN_TARGETS` entry names a registered
   span, and every ``(module, owner, attribute)`` target resolves to a
   plain function defined on that owner — the object
   :func:`repro.obs.spans.profiled` wraps and later restores.  A literal
   span-opening call (``prof.enter("...")`` / ``prof.span("...")`` /
   ``span("...")``, the harness's ``op.*`` envelopes) must name a
   registered span too.
2. **Every registered span is used.**  A taxonomy entry with no table
   entry and no literal in the scanned sources is documentation drift.
3. **Every chaos point is attributable, and every mapping is live.**
   Each ``chaos.point("...")`` literal must map to a covering span in
   :data:`~repro.obs.taxonomy.CHAOS_SPAN_MAP` or be explicitly exempt
   (:data:`~repro.obs.taxonomy.CHAOS_EXEMPT_PREFIXES`) — otherwise an
   interleaving point exists whose cost cannot be attributed to any
   layer.  Conversely a ``CHAOS_SPAN_MAP`` entry no scanned source
   fires is drift — the DPOR explorer's independence heuristic
   (:func:`repro.chaos.dpor.span_footprint`) trusts this map, so stale
   entries would silently weaken systematic exploration.  Non-literal
   point names are only legal in files listed in
   :data:`~repro.obs.taxonomy.NON_LITERAL_POINT_ALLOWLIST`.
4. **Every metric literal is registered** (and vice versa).  An
   ``inc``/``set_gauge``/``observe``/``observe_many`` call under an
   unregistered name creates a parallel series no dashboard or doc
   knows about; :data:`~repro.obs.taxonomy.METRIC_TAXONOMY` is the
   closed namespace, with
   :data:`~repro.obs.taxonomy.METRIC_NON_LITERAL_ALLOWLIST` covering
   the name-parametric registry internals.

The checks are AST-based (docstrings and comments are ignored), in the
style of :mod:`repro.tools.check_spins`, and run in tier-1 via
``tests/test_span_check.py``.

Usage::

    PYTHONPATH=src python -m repro.tools.check_spans [files...]
"""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path

from repro.obs.spans import span_targets
from repro.obs.taxonomy import (
    CHAOS_SPAN_MAP,
    METRIC_NON_LITERAL_ALLOWLIST,
    METRIC_TAXONOMY,
    NON_LITERAL_POINT_ALLOWLIST,
    SPAN_TARGETS,
    SPAN_TAXONOMY,
    is_exempt_point,
)

#: Directory scanned when no explicit files are given (relative to root).
DEFAULT_ROOT = "src/repro"

#: Attribute names whose single-string-literal calls open spans.
_SPAN_ATTRS = ("enter", "span")

#: Attribute/function names whose first argument names a metric.
_METRIC_FNS = ("inc", "set_gauge", "observe", "observe_many")


def _str_arg(node: ast.Call) -> str | None:
    """The call's single positional string literal, if that's its shape."""
    if len(node.args) == 1 and not node.keywords:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _first_str_arg(node: ast.Call) -> str | None:
    """The first positional argument when it is a string literal.

    Metric emitters take trailing value arguments (``inc(name, 3)``), so
    unlike :func:`_str_arg` extra positionals and keywords are fine.
    """
    if node.args:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def iter_span_literals(tree: ast.AST):
    """Yield ``(name, lineno)`` for every literal span-opening call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_attr = isinstance(func, ast.Attribute) and func.attr in _SPAN_ATTRS
        is_name = isinstance(func, ast.Name) and func.id == "span"
        if not (is_attr or is_name):
            continue
        name = _str_arg(node)
        if name is not None:
            yield name, node.lineno


def iter_point_calls(tree: ast.AST):
    """Yield ``(name_or_None, lineno)`` for every ``point(...)`` call.

    ``None`` marks a non-literal point name (checked against the
    allowlist by the caller).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_attr = isinstance(func, ast.Attribute) and func.attr == "point"
        is_name = isinstance(func, ast.Name) and func.id == "point"
        if not (is_attr or is_name):
            continue
        yield _str_arg(node), node.lineno


def iter_metric_calls(tree: ast.AST):
    """Yield ``(name_or_None, lineno)`` for every metric-emitting call.

    ``None`` marks a non-literal metric name (checked against
    :data:`METRIC_NON_LITERAL_ALLOWLIST` by the caller).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_attr = isinstance(func, ast.Attribute) and func.attr in _METRIC_FNS
        is_name = isinstance(func, ast.Name) and func.id in _METRIC_FNS
        if not (is_attr or is_name):
            continue
        yield _first_str_arg(node), node.lineno


def _string_literals(tree: ast.AST) -> set[str]:
    """Every string constant in the module (for the used-names check)."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def check_source(
    source: str,
    filename: str = "<string>",
    allow_non_literal_points: bool = False,
    allow_non_literal_metrics: bool = False,
) -> tuple[list[str], set[str]]:
    """Failures plus the registered span/metric names this file uses."""
    tree = ast.parse(source, filename=filename)
    failures: list[str] = []
    for name, lineno in iter_span_literals(tree):
        if name not in SPAN_TAXONOMY:
            failures.append(
                f"{filename}:{lineno}: span name {name!r} is not registered "
                "in repro.obs.taxonomy.SPAN_TAXONOMY"
            )
    for name, lineno in iter_point_calls(tree):
        if name is None:
            if not allow_non_literal_points:
                failures.append(
                    f"{filename}:{lineno}: chaos point name is not a string "
                    "literal; add the file to NON_LITERAL_POINT_ALLOWLIST "
                    "or use a literal"
                )
        elif name not in CHAOS_SPAN_MAP and not is_exempt_point(name):
            failures.append(
                f"{filename}:{lineno}: chaos point {name!r} has no covering "
                "span in CHAOS_SPAN_MAP and matches no exempt prefix"
            )
    for name, lineno in iter_metric_calls(tree):
        if name is None:
            if not allow_non_literal_metrics:
                failures.append(
                    f"{filename}:{lineno}: metric name is not a string "
                    "literal; add the file to METRIC_NON_LITERAL_ALLOWLIST "
                    "or use a literal"
                )
        elif name not in METRIC_TAXONOMY:
            failures.append(
                f"{filename}:{lineno}: metric name {name!r} is not "
                "registered in repro.obs.taxonomy.METRIC_TAXONOMY"
            )
    used = _string_literals(tree) & (
        set(SPAN_TAXONOMY) | set(METRIC_TAXONOMY) | set(CHAOS_SPAN_MAP)
    )
    return failures, used


def check_targets() -> list[str]:
    """Failures of the span table: unregistered spans, dead targets."""
    failures = [
        f"SPAN_TARGETS span {name!r} is not registered in SPAN_TAXONOMY"
        for name in SPAN_TARGETS
        if name not in SPAN_TAXONOMY
    ]
    try:
        for name, owner, attr in span_targets():
            if not inspect.isfunction(vars(owner).get(attr)):
                failures.append(
                    f"SPAN_TARGETS {name!r}: {owner.__name__}.{attr} is not "
                    "a function defined on that owner"
                )
    except (ImportError, AttributeError) as exc:
        failures.append(f"SPAN_TARGETS target does not resolve: {exc}")
    return failures


def check_file(path: Path, root: Path | None = None) -> tuple[list[str], set[str]]:
    rel = path.as_posix()
    allow = any(rel.endswith(entry) for entry in NON_LITERAL_POINT_ALLOWLIST)
    allow_metrics = any(
        rel.endswith(entry) for entry in METRIC_NON_LITERAL_ALLOWLIST
    )
    return check_source(
        path.read_text(),
        filename=str(path),
        allow_non_literal_points=allow,
        allow_non_literal_metrics=allow_metrics,
    )


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(__file__).resolve().parents[3]
    if args:
        paths = [Path(a) for a in args]
    else:
        paths = sorted((root / DEFAULT_ROOT).rglob("*.py"))
    taxonomy_file = (root / "src/repro/obs/taxonomy.py").resolve()
    failures = check_targets()
    used = set(SPAN_TARGETS)
    for path in paths:
        if not path.exists():
            failures.append(f"{path}: file not found")
            continue
        file_failures, file_used = check_file(path)
        failures.extend(file_failures)
        # The registry's own literals don't count as usage.
        if path.resolve() != taxonomy_file:
            used |= file_used
    if not args:  # unused check only makes sense over the full tree
        for name in sorted(set(SPAN_TAXONOMY) - used):
            failures.append(
                f"span {name!r} is registered in SPAN_TAXONOMY but has no "
                "SPAN_TARGETS entry and no scanned source references it"
            )
        for name in sorted(set(METRIC_TAXONOMY) - used):
            failures.append(
                f"metric {name!r} is registered in METRIC_TAXONOMY but no "
                "scanned source references it"
            )
        for name in sorted(set(CHAOS_SPAN_MAP) - used):
            failures.append(
                f"chaos point {name!r} is mapped in CHAOS_SPAN_MAP but no "
                "scanned source fires it"
            )
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(
        f"check_spans: {len(used & set(SPAN_TAXONOMY))}/{len(SPAN_TAXONOMY)} "
        f"registered spans and {len(used & set(METRIC_TAXONOMY))}/"
        f"{len(METRIC_TAXONOMY)} metrics used, {len(paths)} files clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
