"""Top-level solve loop composing the sub-problem solvers.

The full algorithm iterates: build routes, assign vehicles, schedule
against capacities; when scheduling fails, try alternative leg paths and
re-check the routes, backtracking through assignments and route sets as
the inner problems run dry.  Each searching stage is a generator over one
fixed input (route sets per solve, vehicle maps per route set, the route
set on other leg paths per vehicle map) that keeps one model and blocks
what it yields in place.  Only route sets and vehicle maps pass between
the stages: the capacity check decides every time.  A relaxed mode
schedules with the same capacity model without its occupancy limits,
which cannot fail on a map the assignment stage yields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .assignment import Assignment, assignments
from .capacity import Schedule, verify_capacity
from .graph import all_pairs_task_paths
from .instance import Instance, Ticks
from .pathschanger import path_sets
from .routesverify import verify_routes
from .routing import PathMap, RouteSet, route_sets
from .errors import InvariantViolation

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
ABORTED = "aborted"


@dataclass(frozen=True)
class Limits:
    max_path_sets: int = 50          # alternative path combinations per assignment


@dataclass(frozen=True)
class Event:
    phase: str       # router | assign | capacity | paths | routes_check
    sat: bool
    seconds: float


@dataclass
class SolveOutcome:
    status: str
    schedule: Schedule | None
    events: list[Event] = field(default_factory=list)
    reason: str = ""

    @property
    def paths_changer_calls(self) -> int:
        return sum(1 for e in self.events if e.phase == "paths")


def total_distance(outcome: SolveOutcome) -> Fraction:
    if outcome.status != FEASIBLE or outcome.schedule is None:
        raise InvariantViolation(
            f"no total distance: the outcome is {outcome.status}")
    return outcome.schedule.total_distance


def shortest_path_map(inst: Instance) -> PathMap:
    return all_pairs_task_paths(inst.graph, inst.task_locations())


# The searching stages as the loop calls them, once per event: each takes
# the stage's next candidate, or None when it has run dry.  These are the
# names the per-layer tracer (bench/tracing.py) wraps.

def solve_routing(routes: Iterator[RouteSet]) -> RouteSet | None:
    return next(routes, None)


def solve_assignment(found: Iterator[Assignment]) -> Assignment | None:
    return next(found, None)


def solve_paths_changing(paths: Iterator[RouteSet]) -> RouteSet | None:
    return next(paths, None)


class _Clock:
    def __init__(self, events: list[Event]):
        self.events = events

    def run(self, phase: str, fn, ok=lambda r: r is not None):
        t0 = time.perf_counter()
        result = fn()
        self.events.append(
            Event(phase, bool(ok(result)), time.perf_counter() - t0))
        return result


def comsat_solve(inst: Instance, limits: Limits = Limits()) -> SolveOutcome:
    """Full solve: routes, assignment, conflict-free schedule."""
    return _solve(inst, limits, conflicts=True)


def c_comsat_solve(inst: Instance, limits: Limits = Limits()) -> SolveOutcome:
    """Relaxed solve: schedule without the node/edge occupancy limits."""
    return _solve(inst, limits, conflicts=False)


def _solve(inst, limits, conflicts):
    """The route sets of one solve, each with its assignments.

    `conflicts` says whether the capacity model keeps its occupancy limits.
    """
    routes = route_sets(inst, shortest_path_map(inst), Ticks(inst))
    clock = _Clock([])
    tried = 0
    while True:
        cr = clock.run("router", lambda: solve_routing(routes))
        if cr is None:
            reason = "no route set serves all tasks"
            if tried:
                reason = (f"{tried} route set(s) tried; each ran out "
                          "of assignments"
                          + (" and path changes" if conflicts else ""))
            return SolveOutcome(INFEASIBLE, None, clock.events, reason)
        tried += 1
        outcome = _route_set_phase(inst, cr, limits, clock, conflicts)
        if outcome is not None:
            return outcome


def _route_set_phase(inst, cr, limits, clock, conflicts):
    """The assignments of one route set, each with its capacity phase.

    Returns a final SolveOutcome, or None to signal 'try a new route set'.
    """
    found = assignments(cr, inst)
    while True:
        ca = clock.run("assign", lambda: solve_assignment(found))
        if ca is None:
            return None
        outcome = _capacity_phase(inst, cr, ca, limits, clock, conflicts)
        if outcome is not None:
            return outcome


def _capacity_phase(inst, cr, ca, limits, clock, conflicts):
    """Capacity check with the path-changing inner loop.

    `assignments` yields only maps that `cr` times without the occupancy
    limits, so the relaxed check cannot fail.  A strict check that fails
    tries the route set on other leg paths that `verify_routes` accepts.

    Returns a final SolveOutcome, or None to signal 'try a new assignment'.
    """
    current = cr  # carries the current leg paths
    paths = path_sets(cr, inst)
    tried = 0
    while True:
        cvs = clock.run(
            "capacity",
            lambda: verify_capacity(ca, current, inst, conflicts),
            ok=lambda pair: pair[0] is not None)[0]
        if cvs is not None:
            return SolveOutcome(FEASIBLE, cvs, clock.events)
        if not conflicts:
            raise InvariantViolation(
                f"the assignment stage yielded untimable map {ca.vehicle_of}")
        while True:
            if tried >= limits.max_path_sets:
                return SolveOutcome(
                    ABORTED, None, clock.events,
                    f"path set limit reached ({limits.max_path_sets} "
                    "combinations for one assignment)")
            np = clock.run("paths", lambda: solve_paths_changing(paths))
            tried += 1
            if np is None:
                return None  # every path combination failed: new assignment
            if np == cr:
                continue  # the legs the first check refused
            rvf = clock.run(
                "routes_check",
                lambda: verify_routes(np),
                ok=bool)
            if rvf:
                current = np
                break  # re-run capacity verification with the new paths
