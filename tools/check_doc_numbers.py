"""Documentation number gate: every quoted speed-up is in a BENCH record.

A speed claim counts only if a committed benchmark record contains it.
This tool finds every ``<number>×`` in ``README.md``, ``DESIGN.md`` and
``docs/*.md`` and fails unless some numeric value of a committed
``BENCH_*.json`` or ``bench/results/*.json`` record rounds to it at the
quoted precision (``3.83×`` matches 3.8312, ``954.4×`` matches
954.44, ``2×`` matches 1.9).  Run in CI's lint job::

    python tools/check_doc_numbers.py

Exits non-zero listing every unmatched quote as ``file:line: quote``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "docs/*.md")
RECORDS = ("BENCH_*.json", "bench/results/*.json")

#: A number directly (or after one space) followed by the sign ×.
QUOTE = re.compile(r"(\d[\d,]*(?:\.\d+)?) ?×")


def committed(patterns: tuple[str, ...]) -> list[Path]:
    """Files matching ``patterns`` that git tracks (all, outside git)."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--", *patterns],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return sorted(
            path for pattern in patterns for path in REPO_ROOT.glob(pattern)
        )
    return [REPO_ROOT / name for name in listed]


def numbers(value) -> list[float]:
    """Every int and float inside a parsed JSON document."""
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [number for item in value for number in numbers(item)]
    return []


def recorded(quote: str, values: list[float]) -> bool:
    """Whether some value rounds to ``quote`` at its precision."""
    digits = quote.replace(",", "")
    decimals = len(digits.partition(".")[2])
    return any(f"{value:.{decimals}f}" == digits for value in values)


def unmatched(docs: list[Path], records: list[Path]) -> list[str]:
    """``file:line: quote`` for every quote no record contains."""
    values = [
        number
        for record in records
        for number in numbers(json.loads(record.read_text()))
    ]
    missing = []
    for doc in docs:
        lines = doc.read_text(encoding="utf-8").splitlines()
        for line_number, line in enumerate(lines, start=1):
            for match in QUOTE.finditer(line):
                if not recorded(match.group(1), values):
                    missing.append(f"{doc}:{line_number}: {match.group(0)}")
    return missing


def main() -> int:
    """Check the repository's documents against its committed records."""
    docs = sorted(
        path for pattern in DOCS for path in REPO_ROOT.glob(pattern)
    )
    records = committed(RECORDS)
    missing = unmatched(docs, records)
    for item in missing:
        print(f"unrecorded number: {item}", file=sys.stderr)
    if missing:
        return 1
    print(f"doc numbers: every quote in {len(docs)} documents is in "
          f"one of {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
