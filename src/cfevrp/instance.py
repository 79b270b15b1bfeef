"""Problem instance model: jobs, tasks, vehicles, fleet parameters.

An Instance bundles the plant graph with the transport requests and the
fleet description.

Every number of an instance is an exact Fraction: the constructors below
pass their numbers through `graph.exact` once, so all later arithmetic is
exact and needs no tolerance; a solve decides on them as ints, the
instance's `ticks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import InvariantViolation
from .graph import NodeId, PlantGraph, exact


def _make_exact(obj: object, *names: str) -> None:
    """Replace the named fields of a frozen dataclass by their exact values."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, exact(value))
        except (TypeError, ValueError) as exc:
            raise InvariantViolation(
                f"{type(obj).__name__}.{name} is not a finite number: {value!r}"
            ) from exc


@dataclass(frozen=True)
class TimeWindow:
    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        _make_exact(self, "lower", "upper")
        if not (0 <= self.lower <= self.upper):
            raise InvariantViolation(
                f"bad time window [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class Task:
    id: str
    job: str
    location: NodeId
    window: TimeWindow
    service_time: Fraction
    predecessors: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _make_exact(self, "service_time")


class Job(NamedTuple):
    id: str
    tasks: tuple[str, ...]
    eligible_vehicles: frozenset[str]


class Vehicle(NamedTuple):
    id: str
    depot: NodeId


@dataclass(frozen=True)
class FleetParams:
    operating_range: Fraction   # max distance on a full charge
    charge_coeff: Fraction      # charging time per unit of route length
    discharge_coeff: Fraction   # charge consumed per unit distance
    charge_to_range: Fraction   # converts stored charge to achievable distance
    speed: Fraction
    horizon: Fraction

    def __post_init__(self) -> None:
        names = ("operating_range", "charge_coeff", "discharge_coeff",
                 "charge_to_range", "speed", "horizon")
        _make_exact(self, *names)
        for name in names:
            if getattr(self, name) <= 0:
                raise InvariantViolation(f"fleet parameter {name} must be > 0")


@dataclass(frozen=True)
class Instance:
    graph: PlantGraph
    depots: tuple[NodeId, ...]
    fleet: FleetParams
    vehicles: dict[str, Vehicle] = field(hash=False)
    jobs: dict[str, Job] = field(hash=False)
    tasks: dict[str, Task] = field(hash=False)
    # The numbers a solve decides on, worked out once per instance.
    ticks: Ticks = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ticks", Ticks(self))

    def task_ids(self) -> list[str]:
        return sorted(self.tasks)

    def job_of(self, task_id: str) -> Job:
        return self.jobs[self.tasks[task_id].job]

    def vehicles_at(self, depot: NodeId) -> list[str]:
        return sorted(v.id for v in self.vehicles.values() if v.depot == depot)

    def task_locations(self) -> set[NodeId]:
        locs = {t.location for t in self.tasks.values()}
        locs.update(self.depots)
        return locs


class Ticks:
    """An instance's times and charges as ints, in ticks of 1/scale units,
    on which a solve decides: a positive rescaling keeps every comparison.
    `scale` makes whole T, the windows, the services, a full charge OR/rho
    and, per graph unit of length, the travel time, the charging time C and
    the charge D/v; so the 1-unit separation is `scale` ticks.
    """

    def __init__(self, inst: Instance) -> None:
        fleet, tasks, unit = inst.fleet, inst.tasks.values(), inst.graph.unit
        # T, a full charge; per graph unit of length: travel, charging, charge
        fixed = (fleet.horizon, fleet.operating_range / fleet.charge_to_range,
                 unit / fleet.speed, fleet.charge_coeff * unit,
                 fleet.discharge_coeff * unit / fleet.speed)
        self.scale = scale = math.lcm(
            *(x.denominator for x in fixed),
            *(x.denominator for t in tasks
              for x in (t.window.lower, t.window.upper, t.service_time)))

        def whole(x: Fraction) -> int:  # x * scale, which must be whole
            n, rest = divmod(x.numerator * scale, x.denominator)
            assert rest == 0, f"{x} is not a whole number of 1/{scale} units"
            return n

        (self.horizon, self.full, self.travel, self.charging,
         self.charge) = map(whole, fixed)
        self.lower = {t.id: whole(t.window.lower) for t in tasks}
        self.upper = {t.id: whole(t.window.upper) for t in tasks}
        self.service = {t.id: whole(t.service_time) for t in tasks}


def build_instance(
    graph: PlantGraph,
    depots: list[NodeId],
    fleet: FleetParams,
    vehicles: list[Vehicle],
    jobs: list[Job],
    tasks: list[Task],
) -> Instance:
    """Assemble and validate an Instance."""
    if not depots:
        raise InvariantViolation("depot set must be nonempty")
    depot_set = set(depots)
    if len(depot_set) != len(depots):
        raise InvariantViolation("duplicate depots")
    if not depot_set <= graph.hubs:
        raise InvariantViolation(
            f"depots {sorted(depot_set - graph.hubs)} are not hub nodes"
        )
    vmap = {v.id: v for v in vehicles}
    if len(vmap) != len(vehicles):
        raise InvariantViolation("duplicate vehicle ids")
    for v in vehicles:
        if v.depot not in depot_set:
            raise InvariantViolation(f"vehicle {v.id} starts at non-depot {v.depot}")

    tmap = {t.id: t for t in tasks}
    if len(tmap) != len(tasks):
        raise InvariantViolation("duplicate task ids")
    jmap = {j.id: j for j in jobs}
    if len(jmap) != len(jobs):
        raise InvariantViolation("duplicate job ids")

    seen_tasks: set[str] = set()
    for j in jobs:
        if not j.tasks:
            raise InvariantViolation(f"job {j.id} has no tasks")
        if not j.eligible_vehicles:
            raise InvariantViolation(f"job {j.id} has empty eligible vehicle set")
        unknown_v = set(j.eligible_vehicles) - set(vmap)
        if unknown_v:
            raise InvariantViolation(f"job {j.id} references unknown vehicles {sorted(unknown_v)}")
        for tid in j.tasks:
            if tid not in tmap:
                raise InvariantViolation(f"job {j.id} references unknown task {tid}")
            if tid in seen_tasks:
                raise InvariantViolation(f"task {tid} appears in more than one job")
            seen_tasks.add(tid)
            if tmap[tid].job != j.id:
                raise InvariantViolation(f"task {tid} does not point back to job {j.id}")
    orphans = set(tmap) - seen_tasks
    if orphans:
        raise InvariantViolation(f"tasks {sorted(orphans)} belong to no job")

    T = fleet.horizon
    for t in tasks:
        if t.location not in graph.nodes:
            raise InvariantViolation(f"task {t.id} at unknown node {t.location}")
        if t.window.upper > T:
            raise InvariantViolation(f"task {t.id} window exceeds horizon {T}")
        if t.service_time < 0:
            raise InvariantViolation(f"task {t.id} has negative service time")
        # predecessors must be tasks of the same job
        same_job = set(jmap[t.job].tasks)
        if not set(t.predecessors) <= same_job - {t.id}:
            raise InvariantViolation(f"task {t.id} has predecessors outside its job")

    return Instance(
        graph=graph,
        depots=tuple(sorted(depots)),
        fleet=fleet,
        vehicles=vmap,
        jobs=jmap,
        tasks=tmap,
    )
