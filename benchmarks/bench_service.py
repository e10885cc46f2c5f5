"""Service benchmark: served recommendation equals the batch pipeline.

Starts a real :class:`~repro.service.server.RecommendationService` on an
ephemeral port, replays the bundled sample audit trail
(``examples/data/sample_trail.jsonl``) over ``POST /events`` in chunks,
waits for the background re-search to publish, and fetches the served
recommendation.  The gate (``--check``) asserts the served body is
**byte-identical** to the batch ``monitor`` → ``recommend`` reference
path (:func:`repro.service.pipeline.batch_recommendation`) over the same
records — the always-on §7 loop must not drift from the offline one by
a single bit.

Also records ingestion throughput over HTTP (records/sec end to end,
including parsing and drift detection) and the time-to-recommendation
after the final chunk, to ``BENCH_service.json``.  The record states
the commit (``git describe --always --dirty``), the mode, and the input
shape: trail file, record count, chunk size, baseline project and
goals.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --quick --check

``--quick`` posts the trail in fewer, larger chunks (less scheduling
churn) for CI smoke runs; the byte-identity gate is identical in both
modes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

from repro.io import load_project
from repro.service import (
    RecommendationService,
    batch_recommendation,
    parse_goals,
    render_document,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# The repository root, so the script also runs as a file.
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.provenance import commit  # noqa: E402

TRAIL = REPO_ROOT / "examples" / "data" / "sample_trail.jsonl"
BASELINE = REPO_ROOT / "examples" / "data" / "service_baseline.json"
GOALS = "max-waiting=0.5,max-unavailability=1e-4"

#: Records per POST /events request.
FULL_CHUNK = 50
QUICK_CHUNK = 250

#: Longest acceptable wait for the background publish after the last
#: chunk (generous: one greedy search over two types takes milliseconds).
PUBLISH_TIMEOUT = 60.0


def _post(url: str, body: bytes) -> dict:
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.load(response)


def _get(url: str) -> tuple[dict, bytes]:
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return dict(response.headers), response.read()


def input_shape(records: int, chunk_size: int) -> dict:
    """The inputs the record was measured on (besides its mode)."""
    return {
        "trail": str(TRAIL.relative_to(REPO_ROOT)),
        "records": records,
        "chunk_size": chunk_size,
        "baseline": str(BASELINE.relative_to(REPO_ROOT)),
        "goals": GOALS,
    }


def run_benchmark(quick: bool) -> dict:
    """Serve, ingest over HTTP, and compare against the batch bytes."""
    baseline = load_project(BASELINE)
    goals = parse_goals(GOALS)
    lines = TRAIL.read_bytes().splitlines(keepends=True)
    chunk_size = QUICK_CHUNK if quick else FULL_CHUNK
    chunks = [
        b"".join(lines[start:start + chunk_size])
        for start in range(0, len(lines), chunk_size)
    ]

    service = RecommendationService(baseline, goals)
    service.start()
    try:
        ingest_start = time.perf_counter()
        ingested = 0
        searches_scheduled = 0
        for chunk in chunks:
            summary = _post(f"{service.url}/events", chunk)
            ingested += summary["ingested"]
            searches_scheduled += int(summary["search_scheduled"])
        ingest_seconds = time.perf_counter() - ingest_start

        publish_start = time.perf_counter()
        deadline = publish_start + PUBLISH_TIMEOUT
        meta: dict = {}
        while time.perf_counter() < deadline:
            service.executor.join(timeout=1.0)
            _, body = _get(f"{service.url}/status?tenant=default")
            meta = json.loads(body)
            if (
                meta.get("published")
                and not meta.get("stale")
                and service.executor.active_count() == 0
            ):
                break
            time.sleep(0.02)
        publish_seconds = time.perf_counter() - publish_start

        headers, served = _get(f"{service.url}/recommendation")
    finally:
        service.stop(snapshot=False)

    batch = render_document(
        batch_recommendation(str(TRAIL), baseline, goals)
    )
    return {
        "benchmark": "bench_service",
        "commit": commit(),
        "mode": "quick" if quick else "full",
        "input": input_shape(len(lines), chunk_size),
        "records": ingested,
        "chunks": len(chunks),
        "searches_scheduled": searches_scheduled,
        "ingest_seconds": ingest_seconds,
        "ingest_records_per_second": ingested / ingest_seconds,
        "publish_wait_seconds": publish_seconds,
        "published": bool(meta.get("published")),
        "revision": meta.get("revision", 0),
        "stale_at_fetch": headers.get("X-Recommendation-Stale"),
        "served_bytes": len(served),
        "byte_identical": served == batch,
    }


def main(argv: list[str] | None = None) -> int:
    """Run the service benchmark and write ``BENCH_service.json``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer, larger POST chunks for CI smoke runs",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the served recommendation is "
        "byte-identical to the batch monitor -> recommend pipeline "
        "and a document was published by the background search",
    )
    parser.add_argument("--output", default="BENCH_service.json")
    args = parser.parse_args(argv)

    result = run_benchmark(args.quick)
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    if args.check:
        if not result["published"]:
            print(
                "CHECK FAILED: background search never published",
                file=sys.stderr,
            )
            return 1
        if not result["byte_identical"]:
            print(
                "CHECK FAILED: served recommendation differs from the "
                "batch pipeline bytes",
                file=sys.stderr,
            )
            return 1
        print("check passed: served == batch (byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
