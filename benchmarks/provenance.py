"""Provenance of a benchmark record: the commit it was measured on.

Shared by the benchmark scripts that write a ``BENCH_*.json`` record.
"""

from __future__ import annotations

import subprocess
from pathlib import Path


def commit() -> str | None:
    """The checked-out commit, ``-dirty`` when the tree has changes."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
