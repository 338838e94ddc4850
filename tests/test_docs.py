"""Documentation stays true: links exist, referenced symbols resolve.

Runs the `python -m repro.tools.check_docs` checker programmatically so
tier-1 fails the moment a rename or removal strands a documented name.
"""

import re
from pathlib import Path

import pytest

from repro.bench import harness
from repro.tools import check_docs

REPO = Path(__file__).resolve().parents[1]


def test_docs_exist():
    for rel in check_docs.DEFAULT_FILES:
        assert (REPO / rel).exists(), f"missing documentation file {rel}"


def test_readme_links_docs():
    readme = (REPO / "README.md").read_text()
    assert "docs/API.md" in readme
    assert "docs/ARCHITECTURE.md" in readme


def test_benchmarks_doc_covered_and_linked():
    """BENCHMARKS.md is checked by check_docs and linked from the other
    entry-point docs, so readers can always reach the run recipes."""
    assert "docs/BENCHMARKS.md" in check_docs.DEFAULT_FILES
    assert "docs/BENCHMARKS.md" in (REPO / "README.md").read_text()
    assert "BENCHMARKS.md" in (REPO / "docs" / "API.md").read_text()
    assert "BENCHMARKS.md" in (REPO / "docs" / "ARCHITECTURE.md").read_text()


def test_all_documented_names_resolve():
    assert check_docs.main([]) == 0


@pytest.mark.parametrize(
    "name",
    [
        "repro.common.BatchIndex",
        "repro.common.OrderedIndex",
        "repro.core.alt_index.ALTIndex.batch_get",
        "repro.core.learned_layer.LearnedLayer.probe_live",
        "repro.bench.harness.batch_microbenchmark",
    ],
)
def test_resolver_walks_attributes(name):
    assert check_docs.resolve(name) is not None


def test_resolver_rejects_missing():
    with pytest.raises((ImportError, AttributeError)):
        check_docs.resolve("repro.core.alt_index.DoesNotExist")
    with pytest.raises((ImportError, AttributeError)):
        check_docs.resolve("repro.no_such_module.Thing")


def test_extractor_finds_dotted_names():
    text = (
        "Use `repro.common.BatchIndex` or call "
        "`repro.bench.harness.batch_microbenchmark()`; run "
        "`python -m repro.tools.check_docs` to verify. Plain `numpy` "
        "and bare `repro` are not checked."
    )
    assert check_docs.extract_names(text) == [
        "repro.bench.harness.batch_microbenchmark",
        "repro.common.BatchIndex",
        "repro.tools.check_docs",
    ]


def test_checker_fails_on_stale_reference(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("See `repro.core.alt_index.RemovedClass` for details.")
    assert check_docs.main([str(bad)]) == 1


def test_cli_extractor_reads_fenced_blocks_only():
    text = (
        "Inline `python -m repro.tools.check_docs` is a name reference,\n"
        "not a CLI extraction.\n"
        "```bash\n"
        "PYTHONPATH=src python -m repro.bench.harness --batch-size 64\n"
        "python -m repro.chaos --seeds 4\n"
        "```\n"
        "```\n"
        "python -m repro.tools.check_spans\n"
        "```\n"
    )
    assert check_docs.extract_cli_modules(text) == [
        "repro.bench.harness",
        "repro.chaos",
        "repro.tools.check_spans",
    ]


def test_cli_module_checker():
    assert check_docs.check_cli_module("repro.bench.harness")
    assert check_docs.check_cli_module("repro.tools.check_docs")
    assert not check_docs.check_cli_module("repro.no_such_cli")
    assert not check_docs.check_cli_module("repro.bench.no_such_submodule")


def test_checker_fails_on_stale_cli_invocation(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("```bash\npython -m repro.no_such_cli --flag\n```\n")
    assert check_docs.main([str(bad)]) == 1


def test_harness_flag_table_matches_cli(capsys):
    """Every flag row of BENCHMARKS.md's harness table is a real option."""
    doc = (REPO / "docs" / "BENCHMARKS.md").read_text()
    section = doc.split("## The harness CLI", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(--[a-z-]+)", section, flags=re.M)
    assert "--emit-metrics" in rows
    with pytest.raises(SystemExit):
        harness.main(["--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert sorted(set(rows) - options) == []
