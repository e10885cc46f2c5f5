"""Lowering adapters: WorkflowSpec → chart, CTMC, simulator, project.

The spec IR is declarative; everything downstream still consumes the
existing artifacts.  This module lowers a :class:`WorkflowSpec` into

* a validated :class:`~repro.spec.statechart.StateChart`
  (:func:`spec_to_chart`) plus its activity registry
  (:func:`spec_to_registry`) — the simulator's input,
* the analytic model-layer artifacts — :func:`spec_to_definition` and
  :func:`spec_to_ctmc` (the absorbing-CTMC translation of §4), built
  straight from the lowering without a chart,
* simulator inputs — :func:`spec_to_simulated_type`,
* and a full CLI :class:`~repro.io.serialization.Project`
  (:func:`spec_to_project`), which is also the calibration input shape.

Lowering is **deterministic and order-preserving**: states appear in the
chart in depth-first spec order, and transitions are emitted sorted by
``(source-state position, branch-arm path)``.  This makes the lowering of
the hand-written example specs *byte-identical* to the charts the repo
previously built imperatively (see ``tests/workflows/test_goldens.py``),
and the definition equal to ``translate_chart`` of that chart.

Lowering algorithm
------------------

Phase A walks the block tree and collects the states (activities,
routing states, and composite states whose regions are lowered
recursively).  Phase B threads *pending exits* through the tree: every
block consumes the exits of its predecessor and produces its own.  A
branch/loop arm annotates the exits passing through it with its guard
(``And``-composed), its probability (multiplied), and its arm index
(appended to the sort path); ``next="loop"`` arms connect back to the
innermost loop's entry and ``next="final"`` arms jump to the workflow's
final block.  The sorted edges are validated once per chart or region by
:mod:`repro.spec.validation`; a chart or a definition is then assembled
from the same walk.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from repro.core.model_types import ServerTypeIndex
from repro.core.workflow_model import (
    WorkflowCTMC,
    WorkflowDefinition,
    WorkflowState,
    build_workflow_ctmc,
)
from repro.exceptions import ValidationError
from repro.io.serialization import Project
from repro.spec import validation
from repro.spec.events import And, ECARule, Guard, TrueGuard, completion_event
from repro.spec.statechart import (
    ChartState,
    ChartTransition,
    StateChart,
    _check_probability,
)
from repro.spec.translator import (
    DEFAULT_ROUTING_DURATION,
    ActivityRegistry,
    _leaf_state,
    _transition_probabilities,
)
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


class _Exit(NamedTuple):
    """One dangling outgoing edge awaiting its target state.

    ``guards`` are the arm guards passed, outermost first; ``path`` is
    the tuple of branch-arm indices the edge has passed through since
    leaving ``source``; sorting emitted transitions by
    ``(source-state position, path)`` reproduces the conventional
    hand-written transition order (all edges of a state together, in arm
    order).
    """

    source: str
    guards: tuple[Guard, ...]
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


def _activity_name(block: ActivityBlock) -> str:
    return block.activity if block.activity is not None else block.state


class _Lowering:
    """Lowers one block tree (a workflow body or a region body).

    Construction runs the walk and the structural validation; the
    result then assembles into a :meth:`chart` or a :meth:`definition`.
    """

    def __init__(self, name: str, body: Block, validate: bool) -> None:
        self.name = name
        self.body = body
        self.validate = validate
        # Leaf and composite blocks, one per state, in chart order.
        self.states: list[Block] = []
        self.position: dict[str, int] = {}
        self.regions: dict[str, tuple[_Lowering, ...]] = {}
        self.edges: list[tuple[tuple[int, tuple[int, ...]], _Exit, str]] = []
        self.loop_entries: list[str] = []
        self.collect(body)
        exits = self.wire(body, [])
        if exits:
            # A well-formed spec ends in its final block: every exit of
            # the body must have been consumed except the final state's
            # own (a leaf/composite last block produces exactly one).
            final = _entry_of_last(body)
            dangling = [e for e in exits if e.source != final]
            if dangling:
                raise ValidationError(
                    f"chart {name}: dangling exits from "
                    f"{sorted({e.source for e in dangling})}"
                )
        self.edges.sort(key=itemgetter(0))
        self.initial_state = _entry(body)
        self.outgoing: dict[str, list[tuple[str, float | None]]] = {
            state: [] for state in self.position
        }
        for _, exit_, target in self.edges:
            self.outgoing[exit_.source].append((target, exit_.probability))
        if validate:
            validation._ensure_structure_valid(
                name, self.initial_state, self.outgoing
            )

    # ------------------------------------------------------------------
    # Phase A: state collection (depth-first, definition order)
    # ------------------------------------------------------------------
    def collect(self, block: Block) -> None:
        """Append every state under ``block`` in spec order."""
        if isinstance(block, (ActivityBlock, RoutingBlock)):
            self._add(block)
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
                _Lowering(nested.name, nested.body, self.validate)
                for nested in block.regions
            )
            self._add(block)
            self.regions[block.state] = regions
        else:
            raise ValidationError(
                f"chart {self.name}: cannot lower block type "
                f"{type(block).__name__}"
            )

    def _add(self, block: ActivityBlock | RoutingBlock | CompositeBlock
             ) -> None:
        if block.state in self.position:
            raise ValidationError(
                f"chart {self.name}: duplicate state {block.state!r}"
            )
        self.position[block.state] = len(self.states)
        self.states.append(block)

    # ------------------------------------------------------------------
    # Phase B: wiring
    # ------------------------------------------------------------------
    def wire(self, block: Block, pending: list[_Exit]) -> list[_Exit]:
        """Connect ``pending`` into ``block``; return the block's exits."""
        if isinstance(block, (ActivityBlock, RoutingBlock, CompositeBlock)):
            self._connect(pending, block.state)
            return [_Exit(block.state, (), None, ())]
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
        guards = exit_.guards
        if arm.guard is not None:
            guards += (arm.guard,)
        probability = exit_.probability
        if arm.probability is not None:
            probability = (
                arm.probability if probability is None
                else probability * arm.probability
            )
        return _Exit(exit_.source, guards, probability, exit_.path + (index,))

    def _final_entry(self) -> str:
        if not isinstance(self.body, SequenceBlock):
            raise ValidationError(
                f"chart {self.name}: next='final' needs a sequence body "
                "with a distinguished final block"
            )
        return _entry(self.body.blocks[-1])

    def _connect(self, exits: Iterable[_Exit], target: str) -> None:
        for exit_ in exits:
            _check_probability(exit_.source, target, exit_.probability)
            self.edges.append(
                ((self.position[exit_.source], exit_.path), exit_, target)
            )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def chart(self) -> StateChart:
        """The lowered chart, regions included (the simulator's input)."""
        return StateChart(
            name=self.name,
            states=tuple(self._chart_state(block) for block in self.states),
            transitions=tuple(
                self._chart_transition(exit_, target)
                for _, exit_, target in self.edges
            ),
            initial_state=self.initial_state,
        )

    def _chart_state(self, block: Block) -> ChartState:
        if isinstance(block, ActivityBlock):
            return ChartState(name=block.state, activity=_activity_name(block))
        if isinstance(block, RoutingBlock):
            return ChartState(
                name=block.state, mean_duration=block.mean_duration,
            )
        return ChartState(
            name=block.state,
            regions=tuple(
                region.chart() for region in self.regions[block.state]
            ),
        )

    def _chart_transition(self, exit_: _Exit, target: str) -> ChartTransition:
        # An activity state completes on its activity's completion event;
        # a routing state, or a composite whose region join completes it,
        # needs no event.
        source = self.states[self.position[exit_.source]]
        return ChartTransition(
            source=exit_.source,
            target=target,
            rule=ECARule(
                event=(
                    completion_event(_activity_name(source))
                    if isinstance(source, ActivityBlock) else None
                ),
                guard=reduce(And, exit_.guards) if exit_.guards
                else TrueGuard(),
            ),
            probability=exit_.probability,
        )

    def definition(self, registry: ActivityRegistry) -> WorkflowDefinition:
        """The lowered workflow definition, as ``translate_chart`` gives."""
        return WorkflowDefinition(
            name=self.name,
            states=tuple(
                self._workflow_state(block, registry) for block in self.states
            ),
            transitions=_transition_probabilities(self.name, self.outgoing),
            initial_state=self.initial_state,
        )

    def _workflow_state(
        self, block: Block, registry: ActivityRegistry
    ) -> WorkflowState:
        if isinstance(block, ActivityBlock):
            return _leaf_state(
                block.state, _activity_name(block), None, registry,
                DEFAULT_ROUTING_DURATION,
            )
        if isinstance(block, RoutingBlock):
            return _leaf_state(
                block.state, None, block.mean_duration, registry,
                DEFAULT_ROUTING_DURATION,
            )
        return WorkflowState(
            name=block.state,
            subworkflows=tuple(
                region.definition(registry)
                for region in self.regions[block.state]
            ),
        )


def _entry_of_last(body: Block) -> str:
    """Entry state of the block that terminates ``body``."""
    if isinstance(body, SequenceBlock):
        return _entry_of_last(body.blocks[-1])
    if isinstance(body, (ActivityBlock, RoutingBlock, CompositeBlock)):
        return body.state
    raise ValidationError(
        f"block type {type(body).__name__} cannot terminate a workflow"
    )


# ----------------------------------------------------------------------
# Public adapters
# ----------------------------------------------------------------------
def spec_to_chart(spec: WorkflowSpec, validate: bool = True) -> StateChart:
    """Lower a spec to its state chart (validated unless disabled)."""
    return _Lowering(spec.name, spec.body, validate).chart()


def region_to_chart(region, validate: bool = True) -> StateChart:
    """Lower one :class:`~repro.scenarios.spec.RegionSpec` to its chart.

    Composite states lower their regions through this automatically; it
    is exposed so subworkflow charts can also be built standalone.
    """
    return _Lowering(region.name, region.body, validate).chart()


def spec_to_registry(spec: WorkflowSpec) -> ActivityRegistry:
    """The spec's activity catalogue as a translator registry."""
    return ActivityRegistry(
        {activity.name: activity for activity in spec.activities}
    )


def spec_to_definition(spec: WorkflowSpec) -> WorkflowDefinition:
    """Lower a spec to the model-layer workflow definition.

    The result equals ``translate_chart(spec_to_chart(spec),
    spec_to_registry(spec))`` and raises the same errors, but no chart is
    built: the lowering's validated edges become the definition directly.
    """
    return _Lowering(spec.name, spec.body, True).definition(
        spec_to_registry(spec)
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
