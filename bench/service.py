"""Service workloads: audit-trail records in, served recommendation out.

Both workloads drive a ``repro serve`` subprocess over HTTP, one
request at a time from this thread.  The trail comes from simulating
the demo project (comm-server=2, wf-engine=2, app-server=3, no
failures) at EP 0.4 and order processing 0.2 per minute, sorted by
completion time and chosen so that the service confirms no drift on it.

* ``service-replay`` posts the whole trail closed loop, 250 records per
  request, then waits for the revision that covers every ingested
  record and fetches it; each repeat uses a fresh tenant.
* ``service-stream`` posts 50 records per request open loop at a fixed
  100 requests per second and reads ``/recommendation`` every tenth
  slot; every request is timed from when it was due.  Each stream uses
  a fresh tenant.

The service always runs with its observability on, so traced and
untraced runs see the same server; its counters are scraped from
``GET /metrics``.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.evaluation_cache import EvaluationCache
from repro.core.performance import SystemConfiguration
from repro.io import Project, load_project, save_project
from repro.monitor.audit import AuditTrail
from repro.monitor.drift import DriftMonitor
from repro.monitor.persistence import parse_record_line, save_trail
from repro.monitor.stream import StreamingCalibrator
from repro.service import (
    SearchSettings,
    ServiceState,
    batch_recommendation,
    parse_goals,
    recommend_from_calibration,
    render_document,
)
from repro.wfms import SimulatedWorkflowType
from repro.wfms.runtime import SimulatedWFMS
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    ecommerce_workflow,
    order_processing_activities,
    order_processing_chart,
    order_processing_workflow,
    standard_server_types,
)

from bench import config
from bench.harness import Outcome, units
from bench.stats import (
    MachineSpeed,
    best_of,
    best_per_operation,
    percentile,
    run_open_loop,
    summarize,
)
from bench.tracing import SpanLog, observing

#: Under these goals the analytic greedy result grows from 7 to 9
#: servers when EP doubles.
GOALS = "max-waiting=0.15,max-unavailability=1e-5"
TRAIL_CONFIGURATION = {"comm-server": 2, "wf-engine": 2, "app-server": 3}
CALM = {"EP": 0.4, "OrderProcessing": 0.2}
SURGE = {"EP": 0.8, "OrderProcessing": 0.2}
#: Keeps instance ids of simulated phases apart.
PHASE_ID_STRIDE = 10_000_000
WINDOW = 1_000.0

#: Every tenant of both workloads gets the same trail: the first
#: ``TRAIL_RECORDS`` records of ``TRAIL_MINUTES`` calm minutes (60 to
#: 150 records a minute), from the first of ``TRAIL_ATTEMPTS``
#: simulation seeds derived from ``--seed`` on which the service's drift
#: monitor confirms no drift.  A confirmed drift fails its POST at the
#: seed commit (see README), and the workloads must not fail.  The
#: detectors raise false alarms on calm trails, nearly always somewhere
#: between records 4,000 and 10,000; none of 60 seeds did before 4,000.
TRAIL_RECORDS = 4_000
TRAIL_MINUTES = 75.0
TRAIL_ATTEMPTS = 50

REPLAY_CHUNK = 250

STREAM_RATE = 100.0
STREAM_CHUNK = 50
READ_EVERY = 10
LATENCY_LIMIT_MS = 50.0

#: The traced replay also posts a calm-then-surge trail, whose drift
#: the service must confirm, to a tenant of its own and counts the
#: POSTs answered with an error (``service.drift_posts_failed``).
PROBE_MINUTES = 120.0

SAMPLE_TRAIL = config.ROOT / "examples" / "data" / "sample_trail.jsonl"
SAMPLE_BASELINE = config.ROOT / "examples" / "data" / "service_baseline.json"
SAMPLE_GOALS = "max-waiting=0.5,max-unavailability=1e-4"

REQUEST_TIMEOUT = 60.0
PUBLISH_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _shifted(trail: AuditTrail, offset: float, ids: int) -> AuditTrail:
    def instance(value: int) -> int:
        return value + ids if value >= 0 else value

    replace = dataclasses.replace
    return AuditTrail(
        state_visits=[
            replace(r, instance_id=instance(r.instance_id),
                    entered_at=r.entered_at + offset,
                    left_at=r.left_at + offset)
            for r in trail.state_visits
        ],
        service_requests=[
            replace(r, instance_id=instance(r.instance_id),
                    submitted_at=r.submitted_at + offset,
                    started_at=r.started_at + offset,
                    completed_at=r.completed_at + offset)
            for r in trail.service_requests
        ],
        instances=[
            replace(r, instance_id=instance(r.instance_id),
                    started_at=r.started_at + offset,
                    completed_at=r.completed_at + offset)
            for r in trail.instances
        ],
    )


def make_trail(
    seed: int,
    rates_by_phase: tuple[dict[str, float], ...],
    minutes: float,
    path: Path,
    records: int | None = None,
) -> list[bytes]:
    """Simulate ``minutes`` per phase, one phase per mapping of arrival
    rates; write and return the trail's JSONL lines in completion-time
    order, cut to the first ``records`` when given."""
    phases = []
    for phase, rates in enumerate(rates_by_phase):
        wfms = SimulatedWFMS(
            server_types=standard_server_types(),
            configuration=SystemConfiguration(TRAIL_CONFIGURATION),
            workflow_types=[
                SimulatedWorkflowType(
                    ecommerce_chart(), ecommerce_activities(), rates["EP"]
                ),
                SimulatedWorkflowType(
                    order_processing_chart(),
                    order_processing_activities(),
                    rates["OrderProcessing"],
                ),
            ],
            seed=2 * seed + phase,
            inject_failures=False,
        )
        report = wfms.run(duration=minutes, warmup=0.0)
        phases.append(
            _shifted(report.trail, phase * minutes, phase * PHASE_ID_STRIDE)
        )
    trail = phases[0].merge(phases[1:])
    save_trail(trail, path)
    # save_trail writes visits, then requests, then instances.
    keys = [r.left_at for r in trail.state_visits]
    keys += [r.completed_at for r in trail.service_requests]
    keys += [r.completed_at for r in trail.instances]
    lines = path.read_bytes().splitlines(keepends=True)
    order = sorted(range(len(lines)), key=keys.__getitem__)[:records]
    lines = [lines[i] for i in order]
    path.write_bytes(b"".join(lines))
    return lines


def drift_free_trail(seed: int, path: Path) -> tuple[list[bytes], int]:
    """The trail every tenant gets, and the attempt that produced it.

    A fixed record count keeps the work equal across seeds; the cut also
    drops the seed-dependent tail of draining in-flight instances.
    """
    for attempt in range(TRAIL_ATTEMPTS):
        lines = make_trail(
            TRAIL_ATTEMPTS * seed + attempt, (CALM,), TRAIL_MINUTES, path,
            TRAIL_RECORDS,
        )
        if len(lines) < TRAIL_RECORDS:
            continue
        # The detectors exactly as `repro serve` builds them per tenant.
        monitor = DriftMonitor(calibrator=StreamingCalibrator(window=WINDOW))
        if not monitor.observe_all(
            parse_record_line(line.decode(), number)
            for number, line in enumerate(lines, start=1)
        ):
            return lines, attempt
    raise ValueError(
        f"no drift-free trail of {TRAIL_RECORDS} records in "
        f"{TRAIL_ATTEMPTS} attempts from seed {seed}"
    )


def demo_project(path: Path) -> None:
    """Write the ``init-demo`` project (EP + order processing)."""
    save_project(
        Project(
            server_types=standard_server_types(),
            workflows=(ecommerce_workflow(), order_processing_workflow()),
            arrival_rates=dict(CALM),
        ),
        path,
    )


def chunked(lines: list[bytes], size: int) -> list[bytes]:
    """Request bodies of ``size`` JSONL lines each."""
    return [
        b"".join(lines[start:start + size])
        for start in range(0, len(lines), size)
    ]


# ----------------------------------------------------------------------
# The serve subprocess
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess and a one-connection-at-a-time client."""

    def __init__(self, project: Path, goals: str, log: Path) -> None:
        environment = dict(os.environ, PYTHONPATH=str(config.SRC))
        self._log = log.open("wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--project", str(project), "--goals", goals,
            ],
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            cwd=config.ROOT,
            env=environment,
        )
        deadline = time.monotonic() + 60.0
        while True:
            text = log.read_text(errors="replace")
            match = re.search(r"http://([\d.]+):(\d+)", text)
            if match:
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start: {text!r}")
            time.sleep(0.01)
        self.host, self.port = match.group(1), int(match.group(2))

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int | None, dict[str, str], bytes]:
        """One HTTP exchange; status ``None`` on a transport error."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            body = response.read()
            return response.status, dict(response.getheaders()), body
        except (OSError, http.client.HTTPException):
            return None, {}, b""
        finally:
            connection.close()

    def counters(self) -> dict[str, float]:
        """``/metrics`` samples by Prometheus name."""
        status, _, body = self.request("GET", "/metrics")
        if status != 200:
            return {}
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def covering(self, tenant: str, refresh: bool) -> tuple[bool, dict, bytes]:
        """Wait for the revision covering every ingested record; fetch it.

        After a failed last POST no search covers the final records, so
        the document is recomputed synchronously instead.
        """
        query = f"/recommendation?tenant={tenant}"
        if not refresh:
            deadline = time.perf_counter() + PUBLISH_TIMEOUT
            while True:
                status, _, body = self.request(
                    "GET", f"/status?tenant={tenant}"
                )
                if status == 200:
                    meta = json.loads(body)
                    if meta["published"] and (
                        meta["records_at_publish"] == meta["records_seen"]
                    ):
                        break
                if time.perf_counter() > deadline:
                    return False, {}, b""
                time.sleep(0.002)
        else:
            query += "&refresh=1"
        status, headers, body = self.request("GET", query)
        return status == 200, headers, body

    def stop(self) -> None:
        """SIGTERM, wait for the exit (kill after 30 s), close the log."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _delta(before: dict, after: dict, name: str) -> float:
    key = "repro_" + name.replace(".", "_")
    return after.get(key, 0.0) - before.get(key, 0.0)


# ----------------------------------------------------------------------
# Shared workload plumbing
# ----------------------------------------------------------------------
class _ServiceWorkload:
    name = ""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.server: Server | None = None
        self.trail_path = config.OUT / f"{self.name}-trail.jsonl"
        self.project_path = config.OUT / "demo-project.json"

    def setup(self) -> None:
        """Simulate the trail, write the project, start ``repro serve``."""
        self.lines, self.attempt = drift_free_trail(
            self.seed, self.trail_path
        )
        demo_project(self.project_path)
        self.server = Server(
            self.project_path, GOALS, config.OUT / f"{self.name}-serve.log"
        )

    def close(self) -> None:
        """Stop the server."""
        if self.server is not None:
            self.server.stop()
            self.server = None

    def shape(self) -> dict[str, Any]:
        return {
            "trail_records": len(self.lines),
            "trail_minutes": TRAIL_MINUTES,
            "arrival_rates": CALM,
            "trail_configuration": TRAIL_CONFIGURATION,
            "trail_seed": self.seed,
            "trail_attempt": self.attempt,
            "goals": GOALS,
        }

    def gates(self, served: list[bytes], failed_posts: int) -> dict:
        """served == batch (only binding without failed POSTs), plus the
        bundled sample trail against its baseline, always."""
        if failed_posts:
            equal = None
        else:
            batch = render_document(
                batch_recommendation(
                    str(self.trail_path),
                    load_project(self.project_path),
                    parse_goals(GOALS),
                    SearchSettings(),
                    window=WINDOW,
                )
            )
            equal = all(document == batch for document in served)
        return {
            "served_equals_batch": equal,
            "sample_trail_equals_batch": sample_trail_matches(),
        }

    def probes(self, post_p50: float, records_per_post: int) -> dict:
        """In-process per-layer costs on this workload's trail."""
        parse, records = best_of(lambda: [
            parse_record_line(line.decode(), number)
            for number, line in enumerate(self.lines, start=1)
        ])
        calibrate, _ = best_of(lambda: StreamingCalibrator(
            window=WINDOW
        ).replay_records(records))
        observe, _ = best_of(lambda: DriftMonitor(
            calibrator=StreamingCalibrator(window=WINDOW)
        ).observe_all(records))
        parse, calibrate, observe = (
            t / len(records) for t in (parse, calibrate, observe)
        )
        calibrator = StreamingCalibrator(window=WINDOW)
        calibrator.replay_records(records)
        baseline = load_project(self.project_path)
        goals = parse_goals(GOALS)
        cold, document = best_of(
            lambda: recommend_from_calibration(calibrator, baseline, goals)
        )
        cache = EvaluationCache()
        recommend_from_calibration(calibrator, baseline, goals, cache=cache)
        warm, _ = best_of(
            lambda: recommend_from_calibration(
                calibrator, baseline, goals, cache=cache
            )
        )
        render, _ = best_of(lambda: render_document(document))
        state = ServiceState(window=WINDOW)
        state.tenant().monitor.observe_all(records)
        snapshot = config.OUT / f"{self.name}-snapshot.json"
        save, _ = best_of(lambda: state.save_snapshot(snapshot))
        restore, _ = best_of(
            lambda: ServiceState.load_snapshot(snapshot)
        )
        return {
            "monitor.parse_us": 1e6 * parse,
            "monitor.calibrate_us": 1e6 * calibrate,
            # The detectors' share of DriftMonitor.observe.
            "monitor.drift_us": 1e6 * (observe - calibrate),
            "service.http_overhead_ms": 1000.0 * (
                post_p50 - (parse + observe) * records_per_post
            ),
            "service.recommend_cold_ms": 1000.0 * cold,
            "service.recommend_warm_ms": 1000.0 * warm,
            "service.render_ms": 1000.0 * render,
            "service.snapshot_ms": 1000.0 * save,
            "service.restore_ms": 1000.0 * restore,
        }

    def scraped(self, before: dict, after: dict, runs: int) -> dict:
        started = _delta(before, after, "service.searches.started")
        completed = _delta(before, after, "service.searches.completed")
        return {
            "service.searches.started": started / runs,
            "service.searches.completed": completed / runs,
            "service.searches.superseded": _delta(
                before, after, "service.searches.superseded"
            ) / runs,
            "service.searches.completion_ratio": (
                completed / started if started else 0.0
            ),
            "monitor.drift.confirmed": _delta(
                before, after, "monitor.drift.confirmed"
            ) / runs,
        }


def sample_trail_matches() -> bool:
    """Serve the bundled sample trail; compare with the batch bytes."""
    server = Server(
        SAMPLE_BASELINE, SAMPLE_GOALS, config.OUT / "sample-serve.log"
    )
    try:
        lines = SAMPLE_TRAIL.read_bytes().splitlines(keepends=True)
        posted = [
            server.request("POST", "/events?tenant=sample", body)[0]
            for body in chunked(lines, STREAM_CHUNK)
        ]
        ok, _, served = server.covering("sample", refresh=False)
    finally:
        server.stop()
    batch = render_document(
        batch_recommendation(
            str(SAMPLE_TRAIL),
            load_project(SAMPLE_BASELINE),
            parse_goals(SAMPLE_GOALS),
        )
    )
    return ok and all(status == 200 for status in posted) and served == batch


# ----------------------------------------------------------------------
# service-replay
# ----------------------------------------------------------------------
class ServiceReplay(_ServiceWorkload):
    """Closed-loop bulk ingest of the whole trail, then the served bytes."""

    name = "service-replay"

    def measure(self, log: SpanLog | None, speed: MachineSpeed) -> Outcome:
        """Replay the trail again and again, each time to a fresh tenant."""
        bodies = chunked(self.lines, REPLAY_CHUNK)
        samples, served, failed_at = [], [], []
        failed_posts = failed_reads = 0
        before = self.server.counters()
        for unit in units(self.seconds):
            # Between replays the server is idle, so the reference, on
            # the server's CPU, is not slowed by it.
            speed.tick()
            tenant = f"replay-{unit}"
            for index, body in enumerate(bodies):
                # POSTs alternate: later replays meet a warmer server, so
                # alternating whole replays would not compare equal work.
                on = log is not None and index % 2 == 1
                with observing(on):
                    start = time.perf_counter()
                    with obs.span("service.post", request=f"{tenant}-{index}"):
                        status, _, _ = self.server.request(
                            "POST", f"/events?tenant={tenant}", body
                        )
                    samples.append(
                        (index, start, time.perf_counter() - start, on)
                    )
                if on:
                    log.collect()
                if status != 200:
                    failed_posts += 1
                    failed_at.append((unit, index))
            start = time.perf_counter()
            ok, _, document = self.server.covering(
                tenant, refresh=status != 200
            )
            samples.append(
                ("fetch", start, time.perf_counter() - start, False)
            )
            failed_reads += not ok
            served.append(document)
        after = self.server.counters()

        outcome = Outcome(
            samples=samples,
            attempted=len(served) * (len(bodies) + 1),
            failed=failed_posts + failed_reads,
            gates=self.gates(served, failed_posts),
            shape={
                **self.shape(),
                "records_per_post": REPLAY_CHUNK,
                "posts_per_replay": len(bodies),
                "replays": len(served),
                "failed_posts": failed_at,
            },
        )
        if log is not None:
            posts = [t for key, _, t, on in samples if on and key != "fetch"]
            outcome.per_layer = {
                **self.probes(percentile(posts, 50), REPLAY_CHUNK),
                **self.scraped(before, after, len(served)),
                "service.drift_posts_failed": self.drift_probe(),
            }
        return outcome

    def drift_probe(self) -> float:
        """POSTs answered with an error while the service confirms the
        drift of a calm-then-surge trail; untimed, not an operation."""
        lines = make_trail(
            self.seed, (CALM, SURGE), PROBE_MINUTES,
            config.OUT / "drift-probe-trail.jsonl",
        )
        return float(sum(
            self.server.request("POST", "/events?tenant=drift-probe", body)[0]
            != 200
            for body in chunked(lines, REPLAY_CHUNK)
        ))


# ----------------------------------------------------------------------
# service-stream
# ----------------------------------------------------------------------
class ServiceStream(_ServiceWorkload):
    """Open-loop small writes with reads beside them."""

    name = "service-stream"

    def measure(self, log: SpanLog | None, speed: MachineSpeed) -> Outcome:
        """Stream the trail at ``STREAM_RATE`` POSTs/s again and again,
        each time to a fresh tenant."""
        bodies = chunked(self.lines, STREAM_CHUNK)
        schedule = []
        for index, body in enumerate(bodies):
            schedule.append((index / STREAM_RATE, ("post", index, body)))
            if index % READ_EVERY == READ_EVERY - 1:
                schedule.append(
                    ((index + 0.5) / STREAM_RATE, ("get", index, None))
                )

        samples, served, sent, failed_at = [], [], [], []
        failed = 0
        before = self.server.counters()
        for unit in units(self.seconds):
            speed.tick()
            tenant = f"stream-{unit}"

            def send(request: tuple) -> tuple[int | None, dict]:
                kind, index, body = request
                on = log is not None and index % 2 == 1
                with observing(on):
                    with obs.span(
                        f"service.{kind}", request=f"{tenant}-{kind}-{index}"
                    ):
                        if kind == "post":
                            status, headers, _ = self.server.request(
                                "POST", f"/events?tenant={tenant}", body
                            )
                        else:
                            status, headers, _ = self.server.request(
                                "GET", f"/recommendation?tenant={tenant}"
                            )
                if on:
                    log.collect()
                return status, headers

            stream = run_open_loop(
                schedule, send, time.perf_counter, time.sleep
            )
            last_post = next(
                s for s in reversed(stream) if s.request[0] == "post"
            )
            start = time.perf_counter()
            ok, _, document = self.server.covering(
                tenant, refresh=last_post.result[0] != 200
            )
            samples.append(
                ("fetch", start, time.perf_counter() - start, False)
            )
            served.append(document)
            sent.extend(stream)
            for s in stream:
                status = s.result[0]
                if s.request[0] == "post":
                    on = log is not None and s.request[1] % 2 == 1
                    samples.append((s.request[1], s.due, s.latency, on))
                    if status != 200:
                        failed += 1
                        failed_at.append((unit, s.request[1]))
                else:
                    # 404 before the first publish is not a failure.
                    failed += status not in (200, 404)
            failed += not ok
        after = self.server.counters()

        reads = [s for s in sent if s.request[0] == "get"]
        unpublished = sum(s.result[0] == 404 for s in reads)
        untraced = best_per_operation(
            (key, t) for key, _, t, on in samples if not on and key != "fetch"
        )
        outcome = Outcome(
            samples=samples,
            attempted=len(sent) + len(served),
            failed=failed,
            gates=self.gates(served, len(failed_at)),
            shape={
                **self.shape(),
                "streams": len(served),
                "failed_posts": failed_at,
                "records_per_post": STREAM_CHUNK,
                "posts_per_second": STREAM_RATE,
                "posts_per_stream": len(bodies),
                "reads_per_stream": len(schedule) - len(bodies),
                "unpublished_reads": unpublished,
                "latency_limit_ms": LATENCY_LIMIT_MS,
                "latency_limit_met": (
                    1000.0 * summarize(untraced)["tail"] <= LATENCY_LIMIT_MS
                ),
            },
        )
        if log is not None:
            answered = [s for s in reads if s.result[0] == 200]
            read_latency = summarize([s.latency for s in answered] or [0.0])
            ages = [
                float(s.result[1].get("X-Recommendation-Age-Records", 0))
                for s in answered
            ] or [0.0]
            traced_posts = [
                t for key, _, t, on in samples if on and key != "fetch"
            ]
            outcome.per_layer = {
                **self.probes(percentile(traced_posts, 50), STREAM_CHUNK),
                **self.scraped(before, after, len(served)),
                "service.read_p50_ms": 1000.0 * read_latency["p50"],
                "service.read_tail_ms": 1000.0 * read_latency["tail"],
                "service.generator_lateness_ms": 1000.0 * summarize(
                    [s.lateness for s in sent]
                )["tail"],
                "service.age_records_p50": percentile(ages, 50),
                "service.unpublished_reads": float(unpublished),
            }
        return outcome
