"""Lowering adapters: WorkflowSpec → chart, CTMC, simulator, project.

The spec IR is declarative; everything downstream still consumes the
existing artifacts.  This module lowers a :class:`WorkflowSpec` into

* a validated :class:`~repro.spec.statechart.StateChart`
  (:func:`spec_to_chart`) plus its activity registry
  (:func:`spec_to_registry`),
* the analytic model-layer artifacts — :func:`spec_to_definition` and
  :func:`spec_to_ctmc` (the absorbing-CTMC translation of §4),
* simulator inputs — :func:`spec_to_simulated_type`,
* and a full CLI :class:`~repro.io.serialization.Project`
  (:func:`spec_to_project`), which is also the calibration input shape.

Lowering is **deterministic and order-preserving**: states appear in the
chart in depth-first spec order, and transitions are emitted sorted by
``(source-state position, branch-arm path)``.  This makes the lowering of
the hand-written example specs *byte-identical* to the charts the repo
previously built imperatively (see ``tests/workflows/test_goldens.py``).

Lowering algorithm
------------------

Phase A walks the block tree and collects chart states (activities,
routing states, and composite states whose regions are lowered
recursively into nested charts).  Phase B threads *pending exits* through
the tree: every block consumes the exits of its predecessor and produces
its own.  A branch/loop arm annotates the exits passing through it with
its guard (``And``-composed), its probability (multiplied), and its arm
index (appended to the sort path); ``next="loop"`` arms connect back to
the innermost loop's entry and ``next="final"`` arms jump to the
workflow's final block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.model_types import ServerTypeIndex
from repro.core.workflow_model import (
    WorkflowCTMC,
    WorkflowDefinition,
    build_workflow_ctmc,
)
from repro.exceptions import ValidationError
from repro.io.serialization import Project
from repro.spec.events import And, ECARule, Guard, TrueGuard, completion_event
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.translator import ActivityRegistry, translate_chart
from repro.spec.validation import _ensure_charts_valid
from repro.scenarios.spec import (
    ActivityBlock,
    Arm,
    Block,
    BranchBlock,
    CompositeBlock,
    LoopBlock,
    RoutingBlock,
    SequenceBlock,
    WorkflowSpec,
)


@dataclass(frozen=True)
class _Exit(object):
    """One dangling outgoing edge awaiting its target state.

    ``path`` is the tuple of branch-arm indices the edge has passed
    through since leaving ``source``; sorting emitted transitions by
    ``(source-state position, path)`` reproduces the conventional
    hand-written transition order (all edges of a state together, in arm
    order).
    """

    source: str
    event: str | None
    guard: Guard | None
    probability: float | None
    path: tuple[int, ...]


def _entry(block: Block) -> str:
    """Name of the state entered first when control reaches ``block``."""
    if isinstance(block, (ActivityBlock, RoutingBlock, CompositeBlock)):
        return block.state
    if isinstance(block, SequenceBlock):
        return _entry(block.blocks[0])
    if isinstance(block, LoopBlock):
        return _entry(block.body)
    raise ValidationError(
        f"block type {type(block).__name__} has no entry state"
    )


class _Lowering:
    """Lowers one block tree (a workflow body or a region body)."""

    def __init__(self, name: str, body: Block) -> None:
        self.name = name
        self.body = body
        self.states: list[ChartState] = []
        self.position: dict[str, int] = {}
        self.edges: list[tuple[tuple[int, tuple[int, ...]],
                               ChartTransition]] = []
        self.loop_entries: list[str] = []
        self.validate_regions = True

    # ------------------------------------------------------------------
    # Phase A: state collection (depth-first, definition order)
    # ------------------------------------------------------------------
    def collect(self, block: Block) -> None:
        """Append every chart state under ``block`` in spec order."""
        if isinstance(block, ActivityBlock):
            self._add(ChartState(
                name=block.state,
                activity=(
                    block.activity if block.activity is not None
                    else block.state
                ),
            ))
        elif isinstance(block, RoutingBlock):
            self._add(ChartState(
                name=block.state, mean_duration=block.mean_duration,
            ))
        elif isinstance(block, SequenceBlock):
            for child in block.blocks:
                self.collect(child)
        elif isinstance(block, BranchBlock):
            for arm in block.arms:
                if arm.block is not None:
                    self.collect(arm.block)
        elif isinstance(block, LoopBlock):
            self.collect(block.body)
            for arm in block.arms:
                if arm.next == "loop" and arm.block is not None:
                    self.collect(arm.block)
            for arm in block.arms:
                if arm.next != "loop" and arm.block is not None:
                    self.collect(arm.block)
        elif isinstance(block, CompositeBlock):
            regions = tuple(
                _lower(nested.name, nested.body,
                       validate=self.validate_regions)
                for nested in block.regions
            )
            self._add(ChartState(name=block.state, regions=regions))
        else:
            raise ValidationError(
                f"chart {self.name}: cannot lower block type "
                f"{type(block).__name__}"
            )

    def _add(self, state: ChartState) -> None:
        if state.name in self.position:
            raise ValidationError(
                f"chart {self.name}: duplicate state {state.name!r}"
            )
        self.position[state.name] = len(self.states)
        self.states.append(state)

    # ------------------------------------------------------------------
    # Phase B: wiring
    # ------------------------------------------------------------------
    def wire(self, block: Block, pending: list[_Exit]) -> list[_Exit]:
        """Connect ``pending`` into ``block``; return the block's exits."""
        if isinstance(block, (ActivityBlock, RoutingBlock)):
            self._connect(pending, block.state)
            event = (
                completion_event(
                    block.activity if block.activity is not None
                    else block.state
                )
                if isinstance(block, ActivityBlock)
                else None
            )
            return [_Exit(block.state, event, None, None, ())]
        if isinstance(block, CompositeBlock):
            self._connect(pending, block.state)
            # A composite completes when its region(s) do; the completion
            # is the region join itself, so the exit carries no event.
            return [_Exit(block.state, None, None, None, ())]
        if isinstance(block, SequenceBlock):
            for child in block.blocks:
                pending = self.wire(child, pending)
            return pending
        if isinstance(block, BranchBlock):
            return self._wire_arms(block.arms, pending)
        if isinstance(block, LoopBlock):
            body_exits = self.wire(block.body, pending)
            self.loop_entries.append(_entry(block.body))
            try:
                return self._wire_arms(block.arms, body_exits)
            finally:
                self.loop_entries.pop()
        raise ValidationError(
            f"chart {self.name}: cannot wire block type "
            f"{type(block).__name__}"
        )

    def _wire_arms(
        self, arms: Sequence[Arm], pending: list[_Exit]
    ) -> list[_Exit]:
        joined: list[_Exit] = []
        for index, arm in enumerate(arms):
            routed = [self._through(exit_, arm, index) for exit_ in pending]
            if arm.block is not None:
                routed = self.wire(arm.block, routed)
            if arm.next == "join":
                joined.extend(routed)
            elif arm.next == "loop":
                if not self.loop_entries:
                    raise ValidationError(
                        f"chart {self.name}: next='loop' outside a loop"
                    )
                self._connect(routed, self.loop_entries[-1])
            else:  # "final"
                self._connect(routed, self._final_entry())
        return joined

    @staticmethod
    def _through(exit_: _Exit, arm: Arm, index: int) -> _Exit:
        guard = exit_.guard
        if arm.guard is not None:
            guard = arm.guard if guard is None else And(guard, arm.guard)
        probability = exit_.probability
        if arm.probability is not None:
            probability = (
                arm.probability if probability is None
                else probability * arm.probability
            )
        return _Exit(
            exit_.source, exit_.event, guard, probability,
            exit_.path + (index,),
        )

    def _final_entry(self) -> str:
        if not isinstance(self.body, SequenceBlock):
            raise ValidationError(
                f"chart {self.name}: next='final' needs a sequence body "
                "with a distinguished final block"
            )
        return _entry(self.body.blocks[-1])

    def _connect(self, exits: Iterable[_Exit], target: str) -> None:
        for exit_ in exits:
            transition = ChartTransition(
                source=exit_.source,
                target=target,
                rule=ECARule(
                    event=exit_.event,
                    guard=(
                        exit_.guard if exit_.guard is not None
                        else TrueGuard()
                    ),
                ),
                probability=exit_.probability,
            )
            self.edges.append(
                ((self.position[exit_.source], exit_.path), transition)
            )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> StateChart:
        """Run both phases and assemble the chart.

        Phase A validated the regions; this validates the chart alone.
        """
        self.validate_regions = validate
        self.collect(self.body)
        exits = self.wire(self.body, [])
        if exits:
            # A well-formed spec ends in its final block: every exit of
            # the body must have been consumed except the final state's
            # own (a leaf/composite last block produces exactly one).
            final = _entry_of_last(self.body)
            dangling = [e for e in exits if e.source != final]
            if dangling:
                raise ValidationError(
                    f"chart {self.name}: dangling exits from "
                    f"{sorted({e.source for e in dangling})}"
                )
        self.edges.sort(key=lambda item: item[0])
        chart = StateChart(
            name=self.name,
            states=tuple(self.states),
            transitions=tuple(edge for _, edge in self.edges),
            initial_state=_entry(self.body),
        )
        if validate:
            _ensure_charts_valid([chart])
        return chart


def _entry_of_last(body: Block) -> str:
    """Entry state of the block that terminates ``body``."""
    if isinstance(body, SequenceBlock):
        return _entry_of_last(body.blocks[-1])
    if isinstance(body, (ActivityBlock, RoutingBlock, CompositeBlock)):
        return body.state
    raise ValidationError(
        f"block type {type(body).__name__} cannot terminate a workflow"
    )


def _lower(name: str, body: Block, validate: bool = True) -> StateChart:
    """Lower one body to a chart (regions recurse through here)."""
    return _Lowering(name, body).build(validate=validate)


# ----------------------------------------------------------------------
# Public adapters
# ----------------------------------------------------------------------
def spec_to_chart(spec: WorkflowSpec, validate: bool = True) -> StateChart:
    """Lower a spec to its state chart (validated unless disabled)."""
    return _lower(spec.name, spec.body, validate=validate)


def region_to_chart(region, validate: bool = True) -> StateChart:
    """Lower one :class:`~repro.scenarios.spec.RegionSpec` to its chart.

    Composite states lower their regions through this automatically; it
    is exposed so subworkflow charts can also be built standalone (the
    ``*_subchart()`` helpers of :mod:`repro.workflows`).
    """
    return _lower(region.name, region.body, validate=validate)


def spec_to_registry(spec: WorkflowSpec) -> ActivityRegistry:
    """The spec's activity catalogue as a translator registry."""
    return ActivityRegistry(
        {activity.name: activity for activity in spec.activities}
    )


def spec_to_definition(
    spec: WorkflowSpec, validate: bool = True
) -> WorkflowDefinition:
    """Lower a spec to the model-layer workflow definition.

    Lowering validated the chart; the translation does not repeat it.
    """
    return translate_chart(
        spec_to_chart(spec, validate=validate),
        spec_to_registry(spec),
        validate=False,
    )


def spec_to_ctmc(
    spec: WorkflowSpec, server_types: ServerTypeIndex | None = None
) -> WorkflowCTMC:
    """Lower a spec all the way to the absorbing-CTMC translation.

    ``server_types`` overrides the spec's bundled landscape (required if
    the spec does not bundle one).
    """
    landscape = server_types if server_types is not None \
        else spec.server_types
    if landscape is None:
        raise ValidationError(
            f"spec {spec.name}: no server landscape (pass server_types or "
            "bundle one in the spec)"
        )
    return build_workflow_ctmc(spec_to_definition(spec), landscape)


def spec_to_simulated_type(
    spec: WorkflowSpec, arrival_rate: float | None = None
):
    """Lower a spec to a simulator workflow type.

    ``arrival_rate`` overrides the spec's arrival process (the simulator
    requires a positive rate).  Imported lazily to keep the scenarios
    package usable without the simulator stack.
    """
    from repro.wfms.runtime import SimulatedWorkflowType

    rate = arrival_rate if arrival_rate is not None else spec.arrival.rate
    return SimulatedWorkflowType(
        chart=spec_to_chart(spec),
        activities=spec_to_registry(spec),
        arrival_rate=rate,
    )


def spec_to_project(specs: Iterable[WorkflowSpec]) -> Project:
    """Bundle one or more specs into a CLI project.

    The specs' landscapes are merged by server-type name; two specs
    naming the same server type must agree on its parameters.  Arrival
    rates come from each spec's arrival process.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("spec_to_project needs at least one spec")
    merged: dict[str, object] = {}
    for spec in specs:
        if spec.server_types is None:
            raise ValidationError(
                f"spec {spec.name}: no server landscape; cannot build a "
                "project"
            )
        for name in spec.server_types.names:
            candidate = spec.server_types.spec(name)
            existing = merged.get(name)
            if existing is None:
                merged[name] = candidate
            elif existing != candidate:
                raise ValidationError(
                    f"server type {name!r} differs between specs"
                )
    landscape = ServerTypeIndex(tuple(merged.values()))
    return Project(
        server_types=landscape,
        workflows=tuple(spec_to_definition(spec) for spec in specs),
        arrival_rates={
            spec.name: spec.arrival.rate
            for spec in specs
            if spec.arrival.rate > 0.0
        },
    )
