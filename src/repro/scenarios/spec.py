"""The declarative, JSON-serializable workflow-spec IR.

A :class:`WorkflowSpec` is the single intermediate representation every
scenario in the corpus is expressed in: a tree of *structure blocks*
(sequence, branch, loop, parallel, subworkflow) over activity and routing
leaves, together with the activity catalogue, the server landscape, and
the arrival process.  Adapters in :mod:`repro.scenarios.adapters` lower a
spec to today's artifacts — state chart, workflow definition/CTMC,
simulation runtime inputs — so a new scenario is a data file, not code.

Structure blocks
----------------

* :class:`ActivityBlock` — a leaf state that runs an activity;
* :class:`RoutingBlock` — a leaf state without load (pure control flow);
* :class:`SequenceBlock` — blocks executed one after another;
* :class:`BranchBlock` — probabilistic/guarded alternatives
  (:class:`Arm`\\ s) that re-join afterwards, jump back to the innermost
  loop, or jump to the workflow's final state;
* :class:`LoopBlock` — a body plus arms, where ``next="loop"`` arms
  return to the body (optionally through a section block) and the other
  arms exit;
* :class:`CompositeBlock` — a state hosting nested region charts: one
  region is a *subworkflow*, several regions run *in parallel*.

Everything round-trips through plain JSON (:func:`spec_to_dict` /
:func:`spec_from_dict`), guard expressions included, and all
``*_from_dict`` paths validate through the model constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.model_types import ActivitySpec, ServerTypeIndex
from repro.exceptions import ValidationError
from repro.io.serialization import (
    activity_from_dict,
    activity_to_dict,
    server_types_from_list,
    server_types_to_list,
)
from repro.spec.events import And, Guard, Not, Or, TrueGuard, Var

#: Schema tag embedded in every serialized spec document.
SPEC_SCHEMA = "repro.scenarios.workflow_spec/v1"

#: Valid continuations of a branch/loop arm.
ARM_NEXT = ("join", "loop", "final")


class Block:
    """Base class of all structure blocks (marker only)."""


@dataclass(frozen=True)
class ActivityBlock(Block):
    """A leaf state that starts an activity upon entry.

    ``activity`` defaults to the state name, matching the paper's
    examples where states and their activities share names.
    """

    state: str
    activity: str | None = None

    def __post_init__(self) -> None:
        if not self.state:
            raise ValidationError("activity block needs a state name")


@dataclass(frozen=True)
class RoutingBlock(Block):
    """A leaf state without load (control flow / bookkeeping only)."""

    state: str
    mean_duration: float | None = None

    def __post_init__(self) -> None:
        if not self.state:
            raise ValidationError("routing block needs a state name")
        if self.mean_duration is not None and self.mean_duration <= 0.0:
            raise ValidationError(
                f"routing block {self.state}: mean_duration must be positive"
            )


@dataclass(frozen=True)
class SequenceBlock(Block):
    """Blocks executed one after another."""

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValidationError("sequence block needs at least one block")
        if isinstance(self.blocks[0], BranchBlock):
            raise ValidationError(
                "a branch cannot start a sequence: it needs a preceding "
                "state to branch from"
            )


@dataclass(frozen=True)
class Arm(Block):
    """One alternative of a branch or loop.

    Parameters
    ----------
    block:
        Optional block executed when this arm is taken; an empty arm
        routes straight to its continuation.
    guard:
        Optional guard condition annotating the arm's transitions.
    probability:
        Branching probability annotation (designer estimate or
        calibrated); required whenever a state has several alternatives.
    next:
        Where the arm continues: ``"join"`` re-joins the surrounding
        sequence, ``"loop"`` returns to the innermost loop's body entry,
        ``"final"`` jumps to the workflow's final state.
    """

    block: Block | None = None
    guard: Guard | None = None
    probability: float | None = None
    next: str = "join"

    def __post_init__(self) -> None:
        if self.next not in ARM_NEXT:
            raise ValidationError(
                f"arm continuation {self.next!r} must be one of {ARM_NEXT}"
            )
        if self.probability is not None:
            if not 0.0 < self.probability <= 1.0:
                raise ValidationError(
                    f"arm probability {self.probability} must lie in (0, 1]"
                )
        if isinstance(self.block, (Arm, BranchBlock)):
            raise ValidationError(
                "an arm's block must start with a state, not a branch"
            )


@dataclass(frozen=True)
class BranchBlock(Block):
    """Guarded/probabilistic alternatives following the preceding state."""

    arms: tuple[Arm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(self.arms))
        if len(self.arms) < 2:
            raise ValidationError("branch block needs at least two arms")
        if any(arm.next == "loop" for arm in self.arms):
            raise ValidationError(
                "only loop arms may continue with 'loop'; use a LoopBlock"
            )


@dataclass(frozen=True)
class LoopBlock(Block):
    """A body whose exits either repeat the body or leave the loop.

    Arms with ``next="loop"`` return to the body's entry, executing the
    arm's ``block`` (the *loop section*, e.g. a reminder activity) on the
    way; the remaining arms exit towards the join or the final state.
    """

    body: Block
    arms: tuple[Arm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(self.arms))
        if not self.arms:
            raise ValidationError("loop block needs at least one arm")
        if isinstance(self.body, (Arm, BranchBlock)):
            raise ValidationError(
                "a loop body must start with a state, not a branch"
            )
        if not any(arm.next == "loop" for arm in self.arms):
            raise ValidationError("loop block needs an arm with next='loop'")


@dataclass(frozen=True)
class RegionSpec(Block):
    """One named region (nested chart) of a composite state."""

    name: str
    body: Block

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("region name must be non-empty")
        if isinstance(self.body, (Arm, BranchBlock)):
            raise ValidationError(
                f"region {self.name}: body must start with a state"
            )


@dataclass(frozen=True)
class CompositeBlock(Block):
    """A state hosting nested regions.

    One region nests a *subworkflow*; two or more regions run
    *orthogonally* (in parallel), the composite completing when every
    region has reached its final state.
    """

    state: str
    regions: tuple[RegionSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.state:
            raise ValidationError("composite block needs a state name")
        if not self.regions:
            raise ValidationError(
                f"composite block {self.state}: needs at least one region"
            )
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"composite block {self.state}: duplicate region names"
            )


# ----------------------------------------------------------------------
# Convenience constructors (the fluent spec-building vocabulary)
# ----------------------------------------------------------------------
def activity(state: str, activity_name: str | None = None) -> ActivityBlock:
    """An activity leaf; the activity defaults to the state name."""
    return ActivityBlock(state=state, activity=activity_name)


def routing(state: str, mean_duration: float | None = None) -> RoutingBlock:
    """A load-free routing leaf."""
    return RoutingBlock(state=state, mean_duration=mean_duration)


def sequence(*blocks: Block) -> SequenceBlock:
    """Blocks executed one after another."""
    return SequenceBlock(blocks=tuple(blocks))


def arm(
    block: Block | None = None,
    guard: Guard | None = None,
    probability: float | None = None,
    next: str = "join",
) -> Arm:
    """One branch/loop alternative."""
    return Arm(block=block, guard=guard, probability=probability, next=next)


def branch(*arms: Arm) -> BranchBlock:
    """Alternatives following the preceding state."""
    return BranchBlock(arms=tuple(arms))


def loop(body: Block, *arms: Arm) -> LoopBlock:
    """A repeating body with explicit repeat/exit arms."""
    return LoopBlock(body=body, arms=tuple(arms))


def region(name: str, body: Block) -> RegionSpec:
    """A named region of a composite state."""
    return RegionSpec(name=name, body=body)


def parallel(state: str, *regions: RegionSpec) -> CompositeBlock:
    """A composite state whose regions run in parallel."""
    if len(regions) < 2:
        raise ValidationError(
            f"parallel block {state}: needs at least two regions "
            "(use subworkflow() for a single nested region)"
        )
    return CompositeBlock(state=state, regions=tuple(regions))


def subworkflow(state: str, nested: RegionSpec) -> CompositeBlock:
    """A composite state nesting a single subworkflow region."""
    return CompositeBlock(state=state, regions=(nested,))


# ----------------------------------------------------------------------
# Arrival process and the top-level spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalSpec:
    """The arrival process of a workflow type (Section 4.3).

    Only Poisson arrivals are modelled (the paper's assumption and the
    simulator's arrival process); ``rate`` is the expected number of new
    workflow instances per time unit.
    """

    rate: float = 0.0
    kind: str = "poisson"

    def __post_init__(self) -> None:
        if self.kind != "poisson":
            raise ValidationError(
                f"unsupported arrival kind {self.kind!r}; only 'poisson' "
                "arrivals are modelled"
            )
        if not 0.0 <= self.rate < math.inf:  # NaN fails too
            raise ValidationError("arrival rate must be >= 0 and finite")


@dataclass(frozen=True)
class WorkflowSpec:
    """One self-contained scenario: structure, activities, landscape.

    Parameters
    ----------
    name:
        Workflow type identifier (also the chart name).
    body:
        The root structure block (typically a :class:`SequenceBlock`).
    activities:
        Catalogue of every activity the structure references.
    server_types:
        The server landscape the activities' load vectors refer to;
        optional for specs assessed against an externally supplied
        landscape.
    arrival:
        The arrival process (rate 0 = not part of any workload mix).
    """

    name: str
    body: Block
    activities: tuple[ActivitySpec, ...] = ()
    server_types: ServerTypeIndex | None = None
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("workflow spec name must be non-empty")
        object.__setattr__(self, "activities", tuple(self.activities))
        names = [spec.name for spec in self.activities]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"workflow spec {self.name}: duplicate activity names"
            )
        if isinstance(self.body, (Arm, BranchBlock)):
            raise ValidationError(
                f"workflow spec {self.name}: body must start with a state"
            )

    def activity(self, name: str) -> ActivitySpec:
        """The catalogued activity called ``name`` (raises if unknown)."""
        for spec in self.activities:
            if spec.name == name:
                return spec
        raise ValidationError(
            f"workflow spec {self.name}: no activity named {name!r}"
        )

    def walk_blocks(self) -> Iterator[tuple[Block, int]]:
        """Every block of the tree with its region-nesting depth."""
        yield from _walk(self.body, 0)

    def state_count(self) -> int:
        """Number of chart states the spec lowers to (regions included)."""
        return sum(
            1
            for block, _ in self.walk_blocks()
            if isinstance(block, (ActivityBlock, RoutingBlock,
                                  CompositeBlock))
        )

    def nesting_depth(self) -> int:
        """Maximum region-nesting depth (0 = flat workflow)."""
        return max(
            (depth for _, depth in self.walk_blocks()), default=0
        )


def _walk(block: Block, depth: int) -> Iterator[tuple[Block, int]]:
    yield block, depth
    if isinstance(block, SequenceBlock):
        for child in block.blocks:
            yield from _walk(child, depth)
    elif isinstance(block, BranchBlock):
        for child in block.arms:
            yield from _walk(child, depth)
    elif isinstance(block, LoopBlock):
        yield from _walk(block.body, depth)
        for child in block.arms:
            yield from _walk(child, depth)
    elif isinstance(block, Arm):
        if block.block is not None:
            yield from _walk(block.block, depth)
    elif isinstance(block, CompositeBlock):
        for nested in block.regions:
            yield nested, depth + 1
            yield from _walk(nested.body, depth + 1)


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------
def guard_to_dict(guard: Guard) -> dict[str, Any]:
    """Serialize a guard expression tree."""
    if isinstance(guard, TrueGuard):
        return {"type": "true"}
    if isinstance(guard, Var):
        return {"type": "var", "name": guard.name}
    if isinstance(guard, Not):
        return {"type": "not", "operand": guard_to_dict(guard.operand)}
    if isinstance(guard, And):
        return {
            "type": "and",
            "operands": [guard_to_dict(g) for g in guard.operands],
        }
    if isinstance(guard, Or):
        return {
            "type": "or",
            "operands": [guard_to_dict(g) for g in guard.operands],
        }
    raise ValidationError(
        f"cannot serialize guard type {type(guard).__name__}"
    )


def guard_from_dict(data: Mapping[str, Any]) -> Guard:
    """Deserialize a guard expression tree."""
    kind = data.get("type")
    if kind == "true":
        return TrueGuard()
    if kind == "var":
        return Var(data["name"])
    if kind == "not":
        return Not(guard_from_dict(data["operand"]))
    if kind == "and":
        return And(*(guard_from_dict(g) for g in data["operands"]))
    if kind == "or":
        return Or(*(guard_from_dict(g) for g in data["operands"]))
    raise ValidationError(f"unknown guard type {kind!r}")


def block_to_dict(block: Block) -> dict[str, Any]:
    """Serialize one structure block (recursively)."""
    if isinstance(block, ActivityBlock):
        result: dict[str, Any] = {"kind": "activity", "state": block.state}
        if block.activity is not None and block.activity != block.state:
            result["activity"] = block.activity
        return result
    if isinstance(block, RoutingBlock):
        result = {"kind": "routing", "state": block.state}
        if block.mean_duration is not None:
            result["mean_duration"] = block.mean_duration
        return result
    if isinstance(block, SequenceBlock):
        return {
            "kind": "sequence",
            "blocks": [block_to_dict(child) for child in block.blocks],
        }
    if isinstance(block, BranchBlock):
        return {
            "kind": "branch",
            "arms": [_arm_to_dict(child) for child in block.arms],
        }
    if isinstance(block, LoopBlock):
        return {
            "kind": "loop",
            "body": block_to_dict(block.body),
            "arms": [_arm_to_dict(child) for child in block.arms],
        }
    if isinstance(block, CompositeBlock):
        regions = [
            {"name": nested.name, "body": block_to_dict(nested.body)}
            for nested in block.regions
        ]
        if len(regions) == 1:
            return {
                "kind": "subworkflow",
                "state": block.state,
                "region": regions[0],
            }
        return {"kind": "parallel", "state": block.state, "regions": regions}
    raise ValidationError(
        f"cannot serialize block type {type(block).__name__}"
    )


def _arm_to_dict(arm_: Arm) -> dict[str, Any]:
    result: dict[str, Any] = {}
    if arm_.guard is not None:
        result["guard"] = guard_to_dict(arm_.guard)
    if arm_.probability is not None:
        result["probability"] = arm_.probability
    if arm_.next != "join":
        result["next"] = arm_.next
    if arm_.block is not None:
        result["block"] = block_to_dict(arm_.block)
    return result


def block_from_dict(data: Mapping[str, Any]) -> Block:
    """Deserialize one structure block (recursively)."""
    kind = data.get("kind")
    if kind == "activity":
        return ActivityBlock(
            state=data["state"], activity=data.get("activity")
        )
    if kind == "routing":
        return RoutingBlock(
            state=data["state"],
            mean_duration=(
                float(data["mean_duration"])
                if data.get("mean_duration") is not None
                else None
            ),
        )
    if kind == "sequence":
        return SequenceBlock(
            blocks=tuple(block_from_dict(child) for child in data["blocks"])
        )
    if kind == "branch":
        return BranchBlock(
            arms=tuple(_arm_from_dict(child) for child in data["arms"])
        )
    if kind == "loop":
        return LoopBlock(
            body=block_from_dict(data["body"]),
            arms=tuple(_arm_from_dict(child) for child in data["arms"]),
        )
    if kind == "subworkflow":
        nested = data["region"]
        return CompositeBlock(
            state=data["state"],
            regions=(
                RegionSpec(
                    name=nested["name"], body=block_from_dict(nested["body"])
                ),
            ),
        )
    if kind == "parallel":
        return CompositeBlock(
            state=data["state"],
            regions=tuple(
                RegionSpec(
                    name=nested["name"], body=block_from_dict(nested["body"])
                )
                for nested in data["regions"]
            ),
        )
    raise ValidationError(f"unknown block kind {kind!r}")


def _arm_from_dict(data: Mapping[str, Any]) -> Arm:
    return Arm(
        block=(
            block_from_dict(data["block"])
            if data.get("block") is not None
            else None
        ),
        guard=(
            guard_from_dict(data["guard"])
            if data.get("guard") is not None
            else None
        ),
        probability=(
            float(data["probability"])
            if data.get("probability") is not None
            else None
        ),
        next=data.get("next", "join"),
    )


def spec_to_dict(spec: WorkflowSpec) -> dict[str, Any]:
    """Serialize a workflow spec to a JSON-compatible dictionary."""
    result: dict[str, Any] = {
        "schema": SPEC_SCHEMA,
        "name": spec.name,
        "body": block_to_dict(spec.body),
        "activities": [
            activity_to_dict(activity_spec)
            for activity_spec in spec.activities
        ],
        "arrival": {"kind": spec.arrival.kind, "rate": spec.arrival.rate},
    }
    if spec.server_types is not None:
        result["server_types"] = server_types_to_list(spec.server_types)
    return result


def spec_from_dict(data: Mapping[str, Any]) -> WorkflowSpec:
    """Deserialize a workflow spec from a JSON-compatible dictionary."""
    schema = data.get("schema")
    if schema is not None and schema != SPEC_SCHEMA:
        raise ValidationError(
            f"unsupported workflow-spec schema {schema!r} "
            f"(expected {SPEC_SCHEMA!r})"
        )
    missing = {"name", "body"} - set(data)
    if missing:
        raise ValidationError(
            f"workflow spec record is missing keys: {sorted(missing)}"
        )
    arrival_data = dict(data.get("arrival", {}))
    return WorkflowSpec(
        name=data["name"],
        body=block_from_dict(data["body"]),
        activities=tuple(
            activity_from_dict(item) for item in data.get("activities", [])
        ),
        server_types=(
            server_types_from_list(data["server_types"])
            if data.get("server_types")
            else None
        ),
        arrival=ArrivalSpec(
            rate=float(arrival_data.get("rate", 0.0)),
            kind=arrival_data.get("kind", "poisson"),
        ),
    )


def spec_to_json(spec: WorkflowSpec) -> str:
    """Canonical pretty-printed JSON text of a spec."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def save_spec(spec: WorkflowSpec, path: str | Path) -> None:
    """Write a spec as pretty-printed JSON."""
    Path(path).write_text(spec_to_json(spec))


def load_spec(path: str | Path) -> WorkflowSpec:
    """Read a spec from JSON (validates through the constructors)."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    return spec_from_dict(data)
