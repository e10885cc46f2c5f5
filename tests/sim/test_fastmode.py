"""Fast-RNG mode: determinism contract and campaign goldens.

Fast mode is *not* bit-identical to exact mode (different generators,
different draw order), so it carries its own golden document — recorded
with numpy 2.4, the byte-compare is skipped on other numpy feature
versions because numpy only guarantees stream stability within one.
The worker-count identity test always runs: a fast campaign aggregate
must be byte-identical whether replications run serially or across any
number of workers, exactly like the exact mode.  So does the parity
test, which holds fast mode to exact mode statistically.
"""

import dataclasses
import json
import math

import numpy
import pytest

from repro.exceptions import ValidationError
from repro.sim.campaign import run_campaign
from repro.wfms import RoutingPolicy
from repro.wfms.runtime import RNG_MODES, SimulatedWFMS

from .test_golden_campaign import GOLDEN_DIR, make_plan

#: numpy feature version the fast golden was recorded with.
GOLDEN_NUMPY = "2.4"


def make_fast_plan(policy=RoutingPolicy.ROUND_ROBIN):
    """The exact-golden scenario, switched to the fast RNG mode."""
    return dataclasses.replace(make_plan(policy), rng_mode="fast")


def _render(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


class TestFastCampaignDeterminism:
    def test_fast_document_matches_golden(self):
        current = ".".join(numpy.__version__.split(".")[:2])
        if current != GOLDEN_NUMPY:
            pytest.skip(
                f"fast golden recorded with numpy {GOLDEN_NUMPY}, "
                f"running {current}: bit streams may differ"
            )
        document = run_campaign(make_fast_plan(), workers=1).to_document()
        golden = (
            GOLDEN_DIR / "campaign_fast_round_robin_seed7.json"
        ).read_text()
        assert _render(document) == golden, (
            "fast-mode campaign document diverged from its golden; "
            "the fast RNG mode is no longer deterministic"
        )

    def test_worker_count_does_not_change_the_document(self):
        plan = make_fast_plan()
        serial = _render(run_campaign(plan, workers=1).to_document())
        parallel = _render(run_campaign(plan, workers=2).to_document())
        assert serial == parallel

    def test_fast_document_contains_only_builtin_types(self):
        # numpy scalars must never leak into campaign documents: they
        # serialize (np.float64 subclasses float) but comparisons on
        # them yield np.bool_, which json.dumps rejects — the CLI's
        # campaign --json validation path crashed on exactly that.
        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, (list, tuple)):
                for value in node:
                    walk(value)
            else:
                assert type(node).__module__ == "builtins", (
                    f"non-builtin {type(node)!r} in document: {node!r}"
                )

        walk(run_campaign(make_fast_plan(), workers=1).to_document())

    def test_fast_document_carries_the_rng_mode(self):
        document = run_campaign(make_fast_plan(), workers=1).to_document()
        assert document["rng_mode"] == "fast"

    def test_exact_document_stays_byte_stable(self):
        # The rng_mode key must NOT appear in exact-mode documents:
        # their bytes are pinned by the pre-fast-mode goldens.
        document = run_campaign(
            make_plan(RoutingPolicy.ROUND_ROBIN), workers=1
        ).to_document()
        assert "rng_mode" not in document


class TestExactFastParity:
    """Fast campaigns estimate what exact campaigns estimate.

    The two modes draw different variates, so they agree statistically:
    on the department scenario (the golden mix, 600 minutes after 60 of
    warm-up, 5 replications) the 95% CI on the difference of each
    turnaround, waiting-time and utilization mean, half-width
    ``sqrt(hw_exact² + hw_fast²)``, must contain zero.  Testing the fast
    mean against the exact CI alone would ignore the fast campaign's own
    sampling noise: two exact campaigns with different seeds fail that
    one-sided test on about half of these rows.
    """

    def test_difference_intervals_contain_zero(self):
        plan = dataclasses.replace(
            make_plan(RoutingPolicy.ROUND_ROBIN),
            duration=600.0,
            warmup=60.0,
            replications=5,
            base_seed=23,
        )
        exact = run_campaign(plan, workers=1)
        fast = run_campaign(
            dataclasses.replace(plan, rng_mode="fast"), workers=1
        )
        rows = [
            (f"turnaround[{name}]", aggregate.turnaround,
             fast.workflow_types[name].turnaround)
            for name, aggregate in exact.workflow_types.items()
        ]
        for name, aggregate in exact.server_types.items():
            rows.append((f"waiting[{name}]", aggregate.waiting_time,
                         fast.server_types[name].waiting_time))
            rows.append((f"utilization[{name}]", aggregate.utilization,
                         fast.server_types[name].utilization))
        assert len(rows) == 8
        outside = [
            label
            for label, exact_estimate, fast_estimate in rows
            if abs(fast_estimate.mean - exact_estimate.mean)
            > math.hypot(exact_estimate.half_width, fast_estimate.half_width)
        ]
        assert outside == []


class TestFastRuntime:
    def test_run_reports_and_counts_logical_events(self):
        plan = make_fast_plan()
        wfms = plan.build_wfms(0, record_trail=True)
        report = wfms.run(duration=plan.duration, warmup=plan.warmup)
        # Requests never enter the calendar in fast mode: the logical
        # count folds the replayed submissions and completions back in.
        assert wfms.rng_mode == "fast"
        assert wfms.logical_events > wfms.simulator.executed_events
        assert report.trail.service_requests
        completed = sum(
            m.completed_instances
            for m in report.workflow_types.values()
        )
        assert completed > 0

    def test_exact_logical_events_equal_calendar_events(self):
        plan = make_plan(RoutingPolicy.ROUND_ROBIN)
        wfms = plan.build_wfms(0)
        wfms.run(duration=50.0, warmup=5.0)
        assert wfms.logical_events == wfms.simulator.executed_events

    def test_replay_preserves_request_accounting(self):
        plan = make_fast_plan()
        wfms = plan.build_wfms(0, record_trail=True)
        report = wfms.run(duration=plan.duration, warmup=plan.warmup)
        for pool in wfms.pools.values():
            # Everything submitted was routed (or parked) and nothing
            # completed that was never submitted.
            assert pool.completed_total <= pool.arrivals_processed
        assert all(
            record.submitted_at
            <= record.started_at
            <= record.completed_at
            for record in report.trail.service_requests
        )

    def test_unknown_rng_mode_rejected(self):
        plan = make_plan(RoutingPolicy.ROUND_ROBIN)
        with pytest.raises(ValidationError):
            dataclasses.replace(plan, rng_mode="turbo")
        assert set(RNG_MODES) == {"exact", "fast"}

    def test_fast_mode_rejects_worklist_management(self):
        # The guard fires on any non-None organization, before the
        # worklist machinery is even built.
        plan = make_fast_plan()
        with pytest.raises(ValidationError):
            SimulatedWFMS(
                server_types=plan.server_types,
                configuration=plan.configuration,
                workflow_types=list(plan.workflow_types),
                seed=7,
                rng_mode="fast",
                organization=object(),
            )
