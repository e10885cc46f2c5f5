"""Golden regression: simulated audit trails are byte-identical over time.

The campaign goldens pin every reported statistic, but a campaign drops
its audit trails.  These digests pin the trails themselves: the SHA-256
and record count of the :func:`~repro.monitor.persistence.save_trail`
JSON Lines of replications 0 and 1 of the seed-7, 150-minute golden
plan (:func:`tests.sim.test_golden_campaign.make_plan`), under exact
round-robin, hash and random routing and under fast round-robin and
hash routing.  A change to how records are produced, stored or
rendered that moves one timestamp, one record or the record order
fails here.

Fast-mode digests were recorded with numpy ``GOLDEN_NUMPY`` and are
skipped on other numpy feature versions, like the fast campaign golden.
Regenerate deliberately (only when a trail is *meant* to change)::

    PYTHONPATH=src python tools/capture_trail_goldens.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy
import pytest

from repro.monitor.persistence import save_trail
from repro.sim.campaign import run_replication
from repro.wfms import RoutingPolicy

from .test_golden_campaign import GOLDEN_DIR, make_plan

GOLDEN_PATH = GOLDEN_DIR / "trail_digests_seed7.json"

#: numpy feature version the fast-mode digests were recorded with.
GOLDEN_NUMPY = "2.4"

#: (rng mode, routing policy) pairs whose trails are pinned.
MODES = (
    ("exact", RoutingPolicy.ROUND_ROBIN),
    ("exact", RoutingPolicy.HASH),
    ("exact", RoutingPolicy.RANDOM),
    ("fast", RoutingPolicy.ROUND_ROBIN),
    ("fast", RoutingPolicy.HASH),
)
REPLICATIONS = (0, 1)
CASES = [
    (rng_mode, policy, index)
    for rng_mode, policy in MODES
    for index in REPLICATIONS
]


def case_key(rng_mode: str, policy: RoutingPolicy, index: int) -> str:
    """The golden file's key of one case, e.g. ``exact-hash-1``."""
    return f"{rng_mode}-{policy.value}-{index}"


def trail_digest(rng_mode: str, policy: RoutingPolicy, index: int) -> dict:
    """Record count and SHA-256 of one replication's saved trail."""
    plan = dataclasses.replace(make_plan(policy), rng_mode=rng_mode)
    report = run_replication(plan, index)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trail.jsonl"
        records = save_trail(report.trail, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"records": records, "sha256": digest}


def golden_text() -> str:
    """The golden file's content, computed from the current code."""
    document = {
        "numpy": GOLDEN_NUMPY,
        "trails": {
            case_key(*case): trail_digest(*case) for case in CASES
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    ("rng_mode", "policy", "index"),
    CASES,
    ids=[case_key(*case) for case in CASES],
)
def test_trail_matches_golden(rng_mode, policy, index):
    current = ".".join(numpy.__version__.split(".")[:2])
    if rng_mode == "fast" and current != GOLDEN_NUMPY:
        pytest.skip(
            f"fast digests recorded with numpy {GOLDEN_NUMPY}, "
            f"running {current}: bit streams may differ"
        )
    golden = json.loads(GOLDEN_PATH.read_text())["trails"]
    assert trail_digest(rng_mode, policy, index) == golden[
        case_key(rng_mode, policy, index)
    ], "the saved audit trail is no longer byte-identical"
