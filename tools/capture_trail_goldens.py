"""Capture the audit-trail digests of the golden simulation plan.

Writes ``tests/sim/golden/trail_digests_seed7.json``: the record count
and SHA-256 of the ``save_trail`` JSON Lines of replications 0 and 1 of
the seed-7 golden plan under each pinned RNG mode and routing policy.
The cases and the digest live in ``tests/sim/test_trail_goldens.py``,
which asserts equality of freshly computed digests against this file,
so a change to the simulator is proven not to move one audit record.

Regenerate deliberately (only when a trail is *meant* to change)::

    PYTHONPATH=src python tools/capture_trail_goldens.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.sim.test_trail_goldens import GOLDEN_PATH, golden_text  # noqa: E402


def main() -> int:
    """Write the digest file; prints its path."""
    GOLDEN_PATH.write_text(golden_text())
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
