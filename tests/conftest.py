"""Shared fixtures: the seven-node corridor instance, a tiny-instance fuzzer,
and helpers that build paths and routes by hand."""

from __future__ import annotations

import dataclasses
import random

import pytest

from cfevrp.errors import InvariantViolation
from cfevrp.graph import NodeId, Path, PlantGraph, single_source_paths, validate_graph
from cfevrp.instance import (
    FleetParams, Instance, Job, Task, TimeWindow, Vehicle,
    build_instance,
)
from cfevrp.routing import PathMap, Route, RouteSet


def shortest_path(g: PlantGraph, src: NodeId, dst: NodeId) -> Path:
    """Minimum-length path from src to dst.

    Ties among equal-length paths are broken by the lexicographically
    smallest node sequence, so results are reproducible across runs.
    """
    return single_source_paths(g, src, [dst])[dst]


def routes_from_task_orders(
    inst: Instance,
    sp: PathMap,
    orders: list[tuple[int, list[str]]],
) -> RouteSet:
    """Build a route set from explicit (depot, task order) pairs.

    This lets a test run the later stages on routes of its choosing.
    """
    routes = []
    served: set[str] = set()
    for depot, tasks in orders:
        if depot not in inst.depots:
            raise InvariantViolation(f"{depot} is not a depot")
        locs = [depot] + [inst.tasks[t].location for t in tasks] + [depot]
        legs = tuple(sp[(a, b)] for a, b in zip(locs, locs[1:]))
        routes.append(Route(depot, tuple(tasks), legs))
        served.update(tasks)
    if served != set(inst.task_ids()):
        raise InvariantViolation("forced routes must cover every task exactly once")
    return tuple(routes)


def eligible_vehicles(inst: Instance, route: Route) -> frozenset[str]:
    """The vehicles that may run `route`, as the validator checks them:
    eligible for every job on it and stationed at its depot."""
    return frozenset(
        v.id for v in inst.vehicles.values() if v.depot == route.depot
        and all(v.id in inst.job_of(t).eligible_vehicles for t in route.tasks))


CORRIDOR_SEGMENTS = [
    (1, 2, 1.0, 1), (2, 3, 1.0, 1), (2, 5, 1.0, 1), (3, 4, 1.0, 1),
    (4, 7, 1.0, 1), (5, 6, 1.0, 1), (6, 7, 1.0, 1),
]


def corridor_graph() -> PlantGraph:
    """Seven nodes in a ring with a corridor between the two depots."""
    return validate_graph(list(range(1, 8)), [1, 6], CORRIDOR_SEGMENTS)


def corridor_instance() -> Instance:
    """Two vehicles at opposite depots; three single-task jobs along the ring.

    v1 must occupy node 5 exactly at t=2, pinning the corridor; v2 has to
    serve nodes 2 and 4 from the other side.  With everyone on shortest
    paths the corridor cannot be shared, so solving this instance forces a
    path change for v2.
    """
    fleet = FleetParams(operating_range=10, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=13)
    tasks = [
        Task("j11", "j1", 5, TimeWindow(2, 2), 2.0),
        Task("j21", "j2", 2, TimeWindow(2, 5), 1.0),
        Task("j31", "j3", 4, TimeWindow(2, 7), 1.0),
    ]
    jobs = [
        Job("j1", ("j11",), frozenset({"v1"})),
        Job("j2", ("j21",), frozenset({"v2"})),
        Job("j3", ("j31",), frozenset({"v2"})),
    ]
    vehicles = [Vehicle("v1", 1), Vehicle("v2", 6)]
    return build_instance(corridor_graph(), [1, 6], fleet, vehicles, jobs, tasks)


@pytest.fixture
def corridor():
    return corridor_instance()


def swap_deadlock_instance() -> Instance:
    """Three-node line where two vehicles must swap ends and cannot.

    Routing and assignment are both feasible, yet no timing avoids the
    head-on meeting on the single-capacity middle segment.
    """
    g = validate_graph([1, 2, 3], [1, 3], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(operating_range=10, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=6)
    tasks = [
        Task("a1", "a", 3, TimeWindow(2, 2), 0.0),
        Task("b1", "b", 1, TimeWindow(2, 2), 0.0),
    ]
    jobs = [
        Job("a", ("a1",), frozenset({"v1"})),
        Job("b", ("b1",), frozenset({"v2"})),
    ]
    vehicles = [Vehicle("v1", 1), Vehicle("v2", 3)]
    return build_instance(g, [1, 3], fleet, vehicles, jobs, tasks)


@pytest.fixture
def swap_deadlock():
    return swap_deadlock_instance()


def decimal_line_instance() -> Instance:
    """The line 1-2-3-4-5-6 with decimal segment lengths 1.0/0.7/0.9/0.8/0.6.

    One vehicle at hub 1 serves node 2 exactly at t=1 and node 6 exactly
    at t=4, so it needs the leg 2->6 to take exactly 3 = 0.7+0.9+0.8+0.6
    time units; the round trip is 8 long.  In binary floating point that
    sum is 3.0000000000000004, one ulp late.
    """
    g = validate_graph([1, 2, 3, 4, 5, 6], [1], [
        (1, 2, 1.0, 1), (2, 3, 0.7, 1), (3, 4, 0.9, 1), (4, 5, 0.8, 1),
        (5, 6, 0.6, 1)])
    fleet = FleetParams(operating_range=20, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=20)
    tasks = [
        Task("a1", "a", 2, TimeWindow(1.0, 1.0), 0.0),
        Task("b1", "b", 6, TimeWindow(4.0, 4.0), 0.0),
    ]
    jobs = [
        Job("a", ("a1",), frozenset({"v1"})),
        Job("b", ("b1",), frozenset({"v1"})),
    ]
    return build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)


@pytest.fixture
def decimal_line():
    return decimal_line_instance()


def random_tiny_instance(seed: int, unit: bool = True) -> Instance:
    """Random small instance for oracle comparison.

    At most 7 nodes, 3 single-task jobs, 2 vehicles; distinct task
    locations away from the hubs.  With `unit`, the data are integers: unit
    edge lengths, speed and coefficients 1, whole service times.  Without
    it, edge lengths, the charging coefficient C, the speed and the service
    times are drawn from short lists of decimals, in the same draw order.
    """
    rng = random.Random(seed)
    n = rng.randint(5, 7)
    nodes = list(range(1, n + 1))
    # random connected backbone: attach each node to an earlier one
    segs = set()
    for b in nodes[1:]:
        a = rng.choice(nodes[:b - 1])
        segs.add((a, b))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(nodes, 2)
        segs.add((min(a, b), max(a, b)))
    n_vehicles = rng.randint(1, 2)
    depots = [1] if n_vehicles == 1 else [1, n]
    hubs = depots
    segments = [
        (a, b, 1.0 if unit else rng.choice([0.3, 0.5, 1.0, 1.5, 2.0]),
         rng.choice([1, 1, 1, 2]))
        for a, b in sorted(segs)
    ]
    g = validate_graph(nodes, hubs, segments)

    T = rng.randint(8, 14)
    fleet = FleetParams(
        operating_range=rng.randint(8, 16),
        charge_coeff=1 if unit else rng.choice([0.7, 1, 1.5]),
        discharge_coeff=1, charge_to_range=1,
        speed=1 if unit else rng.choice([0.5, 1, 2, 3]),
        horizon=T)
    vehicles = [Vehicle(f"v{i + 1}", depots[i % len(depots)])
                for i in range(n_vehicles)]
    non_hub = [x for x in nodes if x not in g.hubs]
    n_jobs = rng.randint(1, min(3, len(non_hub)))
    locations = rng.sample(non_hub, n_jobs)
    jobs, tasks = [], []
    for j in range(n_jobs):
        jid = f"j{j + 1}"
        lower = rng.randint(0, T - 3)
        upper = rng.randint(lower, T - 1)
        service = (float(rng.randint(0, 2)) if unit
                   else rng.choice([0, 0.5, 1, 1.5]))
        tasks.append(Task(f"{jid}t", jid, locations[j],
                          TimeWindow(float(lower), float(upper)), service))
        eligible = frozenset(rng.sample([v.id for v in vehicles],
                                        rng.randint(1, n_vehicles)))
        jobs.append(Job(jid, (f"{jid}t",), eligible))
    return build_instance(g, depots, fleet, vehicles, jobs, tasks)


def short_range_tiny_instance(seed: int, unit: bool = True) -> Instance:
    """random_tiny_instance(seed, unit) with an operating range of 2 to 6,
    so that a vehicle runs several routes."""
    inst = random_tiny_instance(seed, unit)
    reach = random.Random(seed * 7919 + 1).randint(2, 6)
    return dataclasses.replace(
        inst, fleet=dataclasses.replace(inst.fleet, operating_range=reach))
