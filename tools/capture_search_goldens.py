"""Capture golden documents of the five configuration searches.

Writes one golden file per (workload, constraint set, goal set) case
under ``tests/core/goldens/search/``: the JSON documents and evaluation
counters of greedy, exhaustive, branch-and-bound, simulated annealing,
and frontier search.  It also writes ``frontier_digests.json``: the
sha256 of the frontier document of each model, objective set and seed
0–19.  The cases and the rendering live in
``tests/core/test_search_goldens.py``, which asserts **byte equality**
of freshly computed documents against these files, so a refactor of the
search loop is proven not to move a single consumed candidate.

Regenerate deliberately (only when a search is *meant* to change)::

    PYTHONPATH=src python tools/capture_search_goldens.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.core.test_search_goldens import (  # noqa: E402
    CASES,
    FRONTIER_DIGESTS,
    GOLDEN_DIR,
    frontier_digests_text,
    golden_path,
    golden_text,
)


def main() -> int:
    """Write every golden file; prints one line per artifact."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        path = golden_path(*case)
        path.write_text(golden_text(*case))
        print(f"wrote {path}")
    FRONTIER_DIGESTS.write_text(frontier_digests_text())
    print(f"wrote {FRONTIER_DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
