"""End-to-end smoke test for the ``repro serve`` subcommand.

Exercises the always-on recommendation service exactly the way an
operator deploys it — as a subprocess of the CLI:

1. starts ``repro serve`` on an ephemeral port with a snapshot path and
   parses the announced URL from stderr;
2. replays the bundled sample trail over ``POST /events`` (the raw
   JSONL file is the wire format) and asserts the ingestion summary;
3. asserts ``GET /recommendation?refresh=1`` serves a canonical
   document with staleness headers, ``/status`` reports it fresh, and
   ``/metrics`` exposes the ``service.*`` counter families;
4. asserts reads of a tenant nothing was posted to (``ghost``) answer
   404 on ``/status`` and ``/recommendation`` and create no tenant;
5. posts the sample trail to a fresh tenant (``hostile``) with a
   non-JSON line, an ``Infinity`` timestamp, a string timestamp and
   two finite timestamps too far apart for their difference mixed in,
   asserts exactly those four lines are rejected (by line number) and
   that the tenant then publishes a revision covering every ingested
   record;
6. posts the sample trail to eight fresh tenants back to back and
   asserts that each then publishes a revision covering its 745
   records with the bytes tenant ``default`` serves, and that
   ``/status`` ends with ``searches_active: 0``;
7. posts the sample trail eight times over (a body over 1 MiB, for
   which curl sends ``Expect: 100-continue``) with that header and
   asserts the interim ``100 Continue`` arrives before the body is
   sent;
8. opens a connection that sends nothing, sends SIGTERM and asserts a
   clean exit within 5 s that wrote the snapshot, which names no
   ``ghost`` tenant, and that asyncio logged no "Task was destroyed";
9. restarts from the snapshot and asserts the published document
   survived the restart byte-for-byte.

Exits non-zero with a one-line diagnosis on the first failure.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TRAIL = REPO_ROOT / "examples" / "data" / "sample_trail.jsonl"
BASELINE = REPO_ROOT / "examples" / "data" / "service_baseline.json"
GOALS = "max-waiting=0.5,max-unavailability=1e-4"


def fail(message: str) -> None:
    """Print a diagnosis and exit non-zero."""
    print(f"SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def start_serve(snapshot: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` and parse the announced base URL."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--project", str(BASELINE),
            "--goals", GOALS,
            "--snapshot", snapshot,
        ],
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=environment,
    )
    url = None
    for _ in range(50):
        line = process.stderr.readline()
        if not line and process.poll() is not None:
            break
        match = re.search(r"(http://[\d.]+:\d+)", line)
        if match:
            url = match.group(1)
            break
    if url is None:
        process.kill()
        fail("serve never announced its URL on stderr")
    return process, url


def get(url: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def post(url: str, body: bytes) -> dict:
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return json.load(response)
    except urllib.error.HTTPError as error:
        fail(f"POST {url} returned {error.code}: {error.read()[:300]!r}")
        return {}


def hostile_body() -> tuple[bytes, list[int]]:
    """The sample trail with four ill-formed lines mixed in.

    Returns the body and the (1-based) line numbers of those four: a
    line that is not JSON, a service request completed at ``Infinity``,
    one with string timestamps (which compare in order) and one whose
    finite timestamps lie ~3.4e308 apart (its service time overflows).
    """
    lines = TRAIL.read_bytes().splitlines()
    request = json.loads(
        next(line for line in lines if b'"service_request"' in line)
    )
    bad = [
        b"this is not JSON",
        json.dumps({**request, "completed_at": float("inf")}).encode(),
        json.dumps({
            **request, "submitted_at": "a", "started_at": "b",
            "completed_at": "c",
        }).encode(),
        json.dumps({
            **request, "submitted_at": -1.7e308, "started_at": -1.7e308,
            "completed_at": 1.7e308,
        }).encode(),
    ]
    positions = [3, 300, 600, 700]
    for position, line in zip(positions, bad):
        lines.insert(position, line)
    return b"\n".join(lines) + b"\n", [position + 1 for position in positions]


def wait_for_covering_revision(url: str, tenant: str) -> dict:
    """Poll ``/status`` until a revision covers every ingested record."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, _, body = get(f"{url}/status?tenant={tenant}")
        meta = json.loads(body) if status == 200 else {}
        if meta.get("published") and (
            meta["records_at_publish"] == meta["records_seen"]
        ):
            return meta
        time.sleep(0.05)
    fail(f"tenant {tenant} published no covering revision within 60s")
    return {}


def wait_until_idle(url: str) -> None:
    """Poll ``/status`` until no search is pending or running."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, _, body = get(f"{url}/status")
        if status == 200 and json.loads(body)["searches_active"] == 0:
            return
        time.sleep(0.05)
    fail("searches were still active 60s after the burst")


def connect(url: str) -> socket.socket:
    """A raw TCP connection to the server at ``url``."""
    parts = urllib.parse.urlsplit(url)
    return socket.create_connection((parts.hostname, parts.port), timeout=5.0)


def post_expecting_continue(url: str, target: str, body: bytes) -> dict:
    """POST with ``Expect: 100-continue``, sending the body only after
    the interim reply; return the ingestion summary."""
    head = (
        f"POST {target} HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
        "Expect: 100-continue\r\n\r\n"
    ).encode("ascii")
    with connect(url) as connection:
        connection.sendall(head)
        interim = b""
        try:
            while not interim.endswith(b"\r\n\r\n"):
                chunk = connection.recv(1)
                if not chunk:
                    break
                interim += chunk
        except socket.timeout:
            pass
        if interim != b"HTTP/1.1 100 Continue\r\n\r\n":
            fail(f"no interim 100 Continue before the body: {interim!r}")
        connection.settimeout(30.0)
        connection.sendall(body)
        response = b""
        while chunk := connection.recv(65536):
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    if status_line != b"HTTP/1.1 200 OK":
        fail(f"POST with Expect: 100-continue returned {status_line!r}")
    return json.loads(rest.partition(b"\r\n\r\n")[2])


def terminate(process: subprocess.Popen, within: float = 30.0) -> str:
    """SIGTERM; require a clean exit within ``within`` s; return the
    rest of the server's stderr."""
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=within)
    except subprocess.TimeoutExpired:
        process.kill()
        fail(f"serve did not exit within {within:g}s of SIGTERM")
    if process.returncode != 0:
        fail(f"serve exited with status {process.returncode}")
    return process.stderr.read()


def main() -> int:
    """Run the serve smoke test."""
    with tempfile.TemporaryDirectory() as scratch:
        snapshot = str(Path(scratch) / "snapshot.json")

        process, url = start_serve(snapshot)
        try:
            summary = post(f"{url}/events", TRAIL.read_bytes())
            if summary["ingested"] != 745 or summary["rejected"] != 0:
                fail(f"unexpected ingestion summary: {summary}")
            if not summary["search_scheduled"]:
                fail("ingestion did not schedule a re-search")

            status, headers, served = get(f"{url}/recommendation?refresh=1")
            if status != 200:
                fail(f"GET /recommendation returned {status}")
            if headers.get("X-Recommendation-Stale") != "false":
                fail(f"refreshed recommendation reported stale: {headers}")
            document = json.loads(served)
            if document.get("schema") != "repro.service.recommendation/v1":
                fail(f"unexpected document schema: {document.get('schema')}")

            status, _, body = get(f"{url}/status?tenant=default")
            meta = json.loads(body)
            if meta["records_seen"] != 745 or meta["stale"]:
                fail(f"unexpected status after refresh: {meta}")

            status, _, metrics = get(f"{url}/metrics")
            text = metrics.decode("utf-8")
            for family in (
                "repro_service_http_requests",
                "repro_service_events_ingested",
                "repro_service_recommendations_refreshed",
            ):
                if family not in text:
                    fail(f"/metrics is missing {family}")

            for path in ("/status", "/recommendation"):
                status, _, _ = get(f"{url}{path}?tenant=ghost")
                if status != 404:
                    fail(f"GET {path}?tenant=ghost returned {status}")
            status, _, body = get(f"{url}/status")
            if "ghost" in json.loads(body)["tenants"]:
                fail("a read of an unknown tenant created it")

            body, bad_lines = hostile_body()
            summary = post(f"{url}/events?tenant=hostile", body)
            rejected = [entry["line"] for entry in summary["rejections"]]
            if (
                summary["ingested"] != 745
                or summary["rejected"] != 4
                or rejected != bad_lines
            ):
                fail(f"unexpected summary for ill-formed lines: {summary}")
            meta = wait_for_covering_revision(url, "hostile")
            if meta["records_seen"] != 745:
                fail(f"unexpected status of tenant hostile: {meta}")

            burst = [f"burst{index}" for index in range(8)]
            for tenant in burst:
                summary = post(
                    f"{url}/events?tenant={tenant}", TRAIL.read_bytes()
                )
                if summary["ingested"] != 745:
                    fail(f"unexpected summary for tenant {tenant}: {summary}")
            for tenant in burst:
                meta = wait_for_covering_revision(url, tenant)
                if meta["records_seen"] != 745:
                    fail(f"unexpected status of tenant {tenant}: {meta}")
                status, _, body = get(
                    f"{url}/recommendation?tenant={tenant}"
                )
                if status != 200 or body != served:
                    fail(f"tenant {tenant} serves other bytes than default")
            wait_until_idle(url)

            bulk = TRAIL.read_bytes() * 8
            summary = post_expecting_continue(url, "/events?tenant=bulk", bulk)
            if summary["ingested"] != 745 * 8:
                fail(f"unexpected summary for the 1 MiB body: {summary}")

            # A client that connects and sends nothing must not hold
            # the shutdown up.
            silent = connect(url)
            time.sleep(0.2)
            try:
                log = terminate(process, within=5.0)
            finally:
                silent.close()
            if "Task was destroyed" in log:
                fail(f"asyncio complained at shutdown: {log!r}")
        finally:
            if process.poll() is None:
                terminate(process)

        if not Path(snapshot).exists():
            fail("graceful shutdown did not write the snapshot")
        if "ghost" in json.loads(Path(snapshot).read_text())["tenants"]:
            fail("the snapshot names a tenant that was only read")

        # Warm restart: the published document must survive verbatim.
        process, url = start_serve(snapshot)
        try:
            status, _, again = get(f"{url}/recommendation")
            if status != 200:
                fail(f"restarted serve returned {status} before any POST")
            if again != served:
                fail("restarted serve lost or altered the recommendation")
        finally:
            terminate(process)

    print(
        "serve smoke passed: ingest, refresh, metrics, unknown tenant, "
        "ill-formed lines, burst of 8 tenants, 100-continue, shutdown "
        "with a silent client, snapshot, restart"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
