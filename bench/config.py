"""``BENCHMARK.json``: where it lives, and the rules it must satisfy.

``BENCHMARK.json`` at the repository root is the single registry of
the benchmark's workloads and metrics: the harness takes every metric
name, unit and direction from it, and reports a metric a workload does
not exercise as 0 so that every run prints the full set.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Source tree of the program under test.
SRC = ROOT / "src"

#: The benchmark description.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Scratch output of traced runs and run records (gitignored).
OUT = ROOT / "bench" / "out"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
TOP_KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end",
    "per_layer",
}
MAX_BOUND = 0.25


def load() -> dict[str, Any]:
    """Read ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


def validate(document: Any) -> list[str]:
    """Every rule ``document`` breaks, as readable messages (empty: valid)."""
    if not isinstance(document, dict):
        return ["BENCHMARK.json must be a JSON object"]
    problems: list[str] = []
    if set(document) != TOP_KEYS:
        problems.append(
            f"top-level keys must be exactly {sorted(TOP_KEYS)}, "
            f"got {sorted(document)}"
        )
    command = document.get("command")
    if not (
        isinstance(command, list)
        and 1 <= len(command) <= 32
        and all(
            isinstance(part, str) and 0 < len(part) <= 200
            for part in command
        )
    ):
        problems.append("command must be 1-32 strings of <= 200 chars")
    paths = document.get("paths")
    if not (
        isinstance(paths, list)
        and 1 <= len(paths) <= 16
        and all(
            isinstance(path, str)
            and PATH.fullmatch(path)
            and not path.startswith("/")
            and ".." not in path.split("/")
            for path in paths
        )
    ):
        problems.append("paths must be 1-16 relative directory names")
    seconds = document.get("run_seconds")
    if not (
        isinstance(seconds, int)
        and not isinstance(seconds, bool)
        and 1 <= seconds <= 60
    ):
        problems.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []
    sections = (
        ("workloads", 2, 8, {"name", "why"}),
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    )
    for section, low, high, keys in sections:
        entries = document.get(section)
        if not isinstance(entries, list) or not low <= len(entries) <= high:
            problems.append(f"{section} must list {low} to {high} entries")
            continue
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != keys:
                problems.append(
                    f"{section} entry {entry!r} must have exactly the "
                    f"keys {sorted(keys)}"
                )
                continue
            problems.extend(_entry_problems(section, entry))
            names.append(entry["name"])
    duplicated = sorted({name for name in names if names.count(name) > 1})
    if duplicated:
        problems.append(f"names used more than once: {duplicated}")
    setup = [
        entry for entry in document.get("end_to_end") or []
        if isinstance(entry, dict) and entry.get("name") == "setup_s"
    ]
    if not setup or setup[0].get("unit") != "s" or (
        setup[0].get("better") != "lower"
    ):
        problems.append(
            "end_to_end must include setup_s with unit s, better lower"
        )
    return problems


def _entry_problems(section: str, entry: dict[str, Any]) -> list[str]:
    problems = []
    name = entry["name"]
    if not isinstance(name, str) or not NAME.fullmatch(name):
        problems.append(f"{section}: bad name {name!r}")
    if section == "workloads":
        why = entry["why"]
        if not isinstance(why, str) or not 0 < len(why) <= 200 or (
            "\n" in why
        ):
            problems.append(f"workload {name}: why must be one short line")
        return problems
    if not isinstance(entry["unit"], str) or not UNIT.fullmatch(
        entry["unit"]
    ):
        problems.append(f"{name}: bad unit {entry['unit']!r}")
    if entry["better"] not in ("higher", "lower"):
        problems.append(f"{name}: better must be higher or lower")
    if section == "end_to_end":
        bound = entry["bound"]
        if not isinstance(bound, (int, float)) or isinstance(bound, bool) or (
            not 0 <= bound <= MAX_BOUND
        ):
            problems.append(f"{name}: bound must lie in [0, {MAX_BOUND}]")
    return problems
