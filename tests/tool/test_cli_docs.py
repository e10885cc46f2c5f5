"""The documentation drift gate (``tools/check_cli_docs.py``)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_cli_docs", REPO_ROOT / "tools" / "check_cli_docs.py"
)
check_cli_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_cli_docs)


def test_committed_docs_are_in_sync(capsys):
    assert check_cli_docs.main() == 0
    assert "every named script and make target" in capsys.readouterr().out


def test_missing_script_and_target_are_named_with_file_and_line(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `make\ngone` or `benchmarks/bench_gone.py --check`, never\n"
        "make gone outside code.\n\n"
        "```bash\nmake test\npython tools/check_cli_docs.py\n```\n"
        "`make` alone names nothing; `make test` is defined.\n"
    )
    assert check_cli_docs.unresolved_references(
        [doc], {"tools/check_cli_docs.py"}, {"test"}
    ) == [
        f"{doc}:1: names no Makefile target: make gone",
        f"{doc}:2: names no git-tracked file: benchmarks/bench_gone.py",
    ]


def test_makefile_rules_are_targets():
    rules = check_cli_docs.MAKE_RULE.findall(
        ".PHONY: test\ntest:\n\tpytest\nX := 1\nserve-smoke: test\n"
    )
    assert rules == ["test", "serve-smoke"]
