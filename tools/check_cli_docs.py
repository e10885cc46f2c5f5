"""Documentation drift gate: CLI reference, runbook and named scripts.

Four checks, run in CI's lint job:

1. **CLI completeness** — walks the real argparse tree built by
   :func:`repro.cli.build_parser` (recursively, so nested subcommands
   like ``corpus generate`` are covered) and fails unless
   ``docs/CLI.md`` names every subcommand and every long option flag.
   Adding a flag without documenting it breaks the build, so the
   reference can never silently rot.
2. **Metric reference completeness** — fails unless
   ``docs/OPERATIONS.md`` names every metric family the recommendation
   service exports (:data:`repro.service.server.SERVICE_METRICS`).
   A new service counter must land with its runbook entry.
3. **No stale metric rows** — fails when a full metric name in the
   first column of an OPERATIONS.md metric table (a table whose header
   starts with ``| family |``) is neither a string literal under
   ``src/repro`` nor matched by an f-string there that starts with a
   literal prefix, each ``{...}`` standing for one dotted segment
   (``f"monitor.drift.{kind}"`` covers ``monitor.drift.arrival_rate``).
   A metric the code stops emitting must leave the runbook with it.
4. **No dead script or target names** — fails when a code span or
   fenced block of ``README.md``, ``DESIGN.md`` or ``docs/*.md`` names
   a ``benchmarks/….py`` or ``tools/….py`` path that git does not
   track, or a ``make <target>`` that the ``Makefile`` does not define.
   A code span may wrap lines.  A deleted script or target must leave
   the docs with it.

Usage::

    PYTHONPATH=src python tools/check_cli_docs.py

Exits non-zero listing every missing item (never just the first).
"""

from __future__ import annotations

import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402
from repro.service import SERVICE_METRICS  # noqa: E402

CLI_DOC = REPO_ROOT / "docs" / "CLI.md"
OPERATIONS_DOC = REPO_ROOT / "docs" / "OPERATIONS.md"
SOURCE_DIR = REPO_ROOT / "src" / "repro"
MAKEFILE = REPO_ROOT / "Makefile"
DOCS = ("README.md", "DESIGN.md", "docs/*.md")
SCRIPT_DIRS = ("benchmarks", "tools")

#: A full dotted metric name in backticks.
METRIC_NAME = re.compile(r"`([A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)+)`")

#: A fenced code block, or an inline code span (which may wrap lines).
CODE = re.compile(r"^```.*?^```|`[^`]+`", re.MULTILINE | re.DOTALL)
#: A script path, or ``make`` and the target it names (group 1).
REFERENCE = re.compile(
    rf"\b(?:{'|'.join(SCRIPT_DIRS)})/[\w./-]+\.py\b"
    r"|\bmake\s+([A-Za-z0-9][\w-]*)"
)
MAKE_RULE = re.compile(r"^([A-Za-z0-9][\w-]*)\s*:(?!=)", re.MULTILINE)


def iter_subcommands(
    parser: argparse.ArgumentParser, prefix: str = ""
) -> list[tuple[str, argparse.ArgumentParser]]:
    """Every ``(qualified name, parser)`` pair, depth first."""
    found: list[tuple[str, argparse.ArgumentParser]] = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                qualified = f"{prefix}{name}"
                found.append((qualified, subparser))
                found.extend(
                    iter_subcommands(subparser, prefix=f"{qualified} ")
                )
    return found


def long_flags(parser: argparse.ArgumentParser) -> list[str]:
    """The parser's documented long options (``--help`` excluded)."""
    flags: list[str] = []
    for action in parser._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                flags.append(option)
    return flags


def check_cli_reference() -> list[str]:
    """Missing subcommands/flags in ``docs/CLI.md``."""
    if not CLI_DOC.exists():
        return [f"{CLI_DOC.relative_to(REPO_ROOT)} does not exist"]
    text = CLI_DOC.read_text(encoding="utf-8")
    problems: list[str] = []
    for qualified, subparser in iter_subcommands(build_parser()):
        if f"`{qualified}`" not in text and qualified not in text:
            problems.append(f"CLI.md is missing subcommand: {qualified}")
            continue
        for flag in long_flags(subparser):
            if flag not in text:
                problems.append(
                    f"CLI.md is missing flag of `{qualified}`: {flag}"
                )
    return problems


def check_metric_reference() -> list[str]:
    """Missing service metric families in ``docs/OPERATIONS.md``."""
    if not OPERATIONS_DOC.exists():
        return [f"{OPERATIONS_DOC.relative_to(REPO_ROOT)} does not exist"]
    text = OPERATIONS_DOC.read_text(encoding="utf-8")
    return [
        f"OPERATIONS.md is missing service metric: {name}"
        for name, _kind, _help in SERVICE_METRICS
        if name not in text
    ]


def documented_metric_names(text: str) -> list[str]:
    """Full metric names in the first column of the metric tables."""
    names: list[str] = []
    in_table = False
    for line in text.splitlines():
        if line.startswith("| family |"):
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table:
            names.extend(METRIC_NAME.findall(line.split("|")[1]))
    return names


def source_metric_names() -> tuple[set[str], list[re.Pattern[str]]]:
    """String literals under ``src/repro`` and its prefixed f-strings."""
    literals: set[str] = set()
    patterns: list[re.Pattern[str]] = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.JoinedStr) and node.values and (
                isinstance(node.values[0], ast.Constant)
            ):
                patterns.append(re.compile("".join(
                    re.escape(part.value)
                    if isinstance(part, ast.Constant)
                    else r"[A-Za-z0-9_]+"
                    for part in node.values
                )))
    return literals, patterns


def check_stale_metrics() -> list[str]:
    """OPERATIONS.md metric rows the code no longer emits."""
    if not OPERATIONS_DOC.exists():
        return []
    literals, patterns = source_metric_names()
    return [
        f"OPERATIONS.md documents a metric src/repro does not emit: {name}"
        for name in documented_metric_names(
            OPERATIONS_DOC.read_text(encoding="utf-8")
        )
        if name not in literals
        and not any(pattern.fullmatch(name) for pattern in patterns)
    ]


def tracked_scripts() -> set[str]:
    """Files under the script directories that git tracks (all, outside git)."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--", *SCRIPT_DIRS],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return {
            path.relative_to(REPO_ROOT).as_posix()
            for directory in SCRIPT_DIRS
            for path in (REPO_ROOT / directory).rglob("*.py")
        }
    return set(listed)


def unresolved_references(
    docs: list[Path], scripts: set[str], targets: set[str]
) -> list[str]:
    """``file:line`` of every script path or make target that is gone."""
    problems: list[str] = []
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for code in CODE.finditer(text):
            for match in REFERENCE.finditer(code.group(0)):
                target = match.group(1)
                if target is None and match.group(0) not in scripts:
                    problem = f"names no git-tracked file: {match.group(0)}"
                elif target is not None and target not in targets:
                    problem = f"names no Makefile target: make {target}"
                else:
                    continue
                line = text.count("\n", 0, code.start() + match.start()) + 1
                problems.append(f"{doc}:{line}: {problem}")
    return problems


def check_named_scripts() -> list[str]:
    """Dead script paths and make targets in the repository's docs."""
    docs = sorted(
        path for pattern in DOCS for path in REPO_ROOT.glob(pattern)
    )
    targets = set(MAKE_RULE.findall(MAKEFILE.read_text(encoding="utf-8")))
    return unresolved_references(docs, tracked_scripts(), targets)


def main() -> int:
    """Run every drift check; print every finding."""
    problems = (
        check_cli_reference() + check_metric_reference()
        + check_stale_metrics() + check_named_scripts()
    )
    if problems:
        for problem in problems:
            print(f"DOC DRIFT: {problem}", file=sys.stderr)
        print(
            f"{len(problems)} documentation drift problem(s)",
            file=sys.stderr,
        )
        return 1
    subcommands = iter_subcommands(build_parser())
    flags = sum(len(long_flags(parser)) for _, parser in subcommands)
    documented = documented_metric_names(
        OPERATIONS_DOC.read_text(encoding="utf-8")
    )
    print(
        f"documentation in sync: {len(subcommands)} subcommands, "
        f"{flags} flags, {len(SERVICE_METRICS)} service metric families, "
        f"{len(documented)} documented metrics emitted, every named "
        f"script and make target present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
