"""Doc-link checker: every ``repro.*`` name in the docs must exist.

Scans the given markdown files (default: :data:`DEFAULT_FILES`, the
four ``docs/`` pages plus ``README.md``, ``DESIGN.md`` and
``EXPERIMENTS.md``) for backticked dotted names under the ``repro``
package — ``` `repro.core.alt_index.ALTIndex` ``` — and resolves each one by
importing the longest importable module prefix and walking the
remaining attributes with :func:`getattr`.  It also extracts every
``python -m repro.…`` invocation inside fenced code blocks and verifies
the named module is importable, so documented CLI recipes cannot go
stale.  A name that fails to resolve is a documentation bug (stale
rename, typo, removed API); the checker exits non-zero and lists every
failure.

Usage::

    PYTHONPATH=src python -m repro.tools.check_docs [files...]

Wired into tier-1 via ``tests/test_docs.py``.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
import sys
from pathlib import Path

#: Backticked dotted path rooted at the repro package.  Trailing ``()``
#: (call syntax) and a leading ``python -m `` are tolerated and stripped.
_NAME_RE = re.compile(r"`(?:python -m )?(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")

#: Fenced code block (``` ... ```), language tag ignored.
_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)

#: ``python -m repro.x.y`` CLI invocation inside a fenced block.
_CLI_RE = re.compile(r"python\s+-m\s+(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")

DEFAULT_FILES = (
    "docs/API.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKS.md",
    "docs/OBSERVABILITY.md",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
)


def extract_names(text: str) -> list[str]:
    """All distinct ``repro.*`` dotted names referenced in ``text``."""
    return sorted(set(_NAME_RE.findall(text)))


def extract_cli_modules(text: str) -> list[str]:
    """Distinct ``python -m repro.*`` modules in fenced code blocks."""
    mods: set[str] = set()
    for block in _FENCE_RE.findall(text):
        mods.update(_CLI_RE.findall(block))
    return sorted(mods)


def check_cli_module(module: str) -> bool:
    """True when ``python -m <module>`` names an importable module."""
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


def resolve(name: str) -> object:
    """Import/getattr a dotted name; raises if any component is missing.

    Tries the longest importable module prefix first so that
    ``repro.core.alt_index.ALTIndex.batch_get`` resolves the module
    ``repro.core.alt_index`` and then walks ``ALTIndex.batch_get``.
    """
    parts = name.split(".")
    last_error: Exception | None = None
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj: object = importlib.import_module(module_name)
        except ImportError as exc:
            last_error = exc
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)  # AttributeError propagates: real failure
        return obj
    raise ImportError(f"no importable prefix of {name!r}") from last_error


def check_file(path: Path) -> list[str]:
    """Return human-readable failure lines for one markdown file."""
    failures: list[str] = []
    text = path.read_text()
    for name in extract_names(text):
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            failures.append(f"{path}: `{name}` does not resolve ({exc})")
    for module in extract_cli_modules(text):
        if not check_cli_module(module):
            failures.append(
                f"{path}: `python -m {module}` names no importable module"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(__file__).resolve().parents[3]
    paths = [Path(a) for a in args] or [root / f for f in DEFAULT_FILES]
    failures: list[str] = []
    checked = 0
    for path in paths:
        if not path.exists():
            failures.append(f"{path}: file not found")
            continue
        text = path.read_text()
        checked += len(extract_names(text)) + len(extract_cli_modules(text))
        failures.extend(check_file(path))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"check_docs: {checked} repro.* references resolve in {len(paths)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
