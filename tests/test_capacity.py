"""Capacity scheduling: visit lists, conflict constraints, exemption stats."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cfevrp.assignment import assignments
from cfevrp.capacity import (
    CapacityStats, build_visit_lists, replay, verify_capacity,
)
from cfevrp.driver import (
    FEASIBLE, c_comsat_solve, comsat_solve, shortest_path_map,
)
from cfevrp.errors import BrokenChain
from cfevrp.fileio import parse_instance
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
)
from cfevrp.routing import Route
from cfevrp.validator import (
    EDGE_CAPACITY_OPPOSITE, NODE_CAPACITY, validate_schedule,
)
from cfevrp.routesverify import verify_routes
from conftest import (
    corridor_graph, random_tiny_instance, routes_from_task_orders,
    swap_deadlock_instance,
)

GRID = Path(__file__).resolve().parent.parent / "bench" / "instances" / "grid"


def partial_routes(inst, orders):
    """Route set over a subset of the tasks, legs on shortest paths."""
    sp = shortest_path_map(inst)
    routes = []
    for depot, tasks in orders:
        locs = [depot] + [inst.tasks[t].location for t in tasks] + [depot]
        legs = tuple(sp[(a, b)] for a, b in zip(locs, locs[1:]))
        routes.append(Route(depot, tuple(tasks), legs))
    return tuple(routes)


def test_visit_list_concatenates_legs(corridor):
    cr = partial_routes(corridor, [(1, ["j11"])])
    vls = build_visit_lists(cr, corridor)
    assert len(vls) == 1
    vl = vls[0]
    assert tuple(p.node for p in vl.positions) == (1, 2, 5, 2, 1)
    assert len(vl.edges) == 4
    served = [p for p in vl.positions if p.tasks]
    assert len(served) == 1 and served[0].tasks == ("j11",)
    assert served[0].lower == 2.0 and served[0].upper == 2.0
    assert served[0].service == 2.0


def test_empty_route_set_gives_empty_lists(corridor):
    assert build_visit_lists((), corridor) == []


def test_task_at_depot_collapses_to_single_position():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 1, TimeWindow(0, 10), 1.0)])
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["t1"])])
    vls = build_visit_lists(cr, inst)
    assert tuple(p.node for p in vls[0].positions) == (1,)
    assert vls[0].edges == ()
    assert vls[0].positions[0].service == 1.0
    assert vls[0].positions[0].upper == 9  # the service ends by T=10


def test_broken_chain_detected(corridor):
    r = Route(1, ("j11",), (
        corridor.graph.path_between((1, 2, 5)),
        corridor.graph.path_between((2, 1)),  # starts at the wrong node
    ))
    with pytest.raises(BrokenChain):
        build_visit_lists((r,), corridor)


def co_located_instance(windows, services):
    """Tasks a (job A) and b (job B) at node 2 of the line 1-2, and the
    route [a, b] that serves them back to back from depot 1."""
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    fleet = FleetParams(100, 1, 1, 1, 1, 20)
    tasks = [Task(tid, job, 2, TimeWindow(*w), service)
             for tid, job, w, service in zip("ab", "AB", windows, services)]
    jobs = [Job("A", ("a",), frozenset({"v1"})),
            Job("B", ("b",), frozenset({"v1"}))]
    inst = build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)
    return inst, partial_routes(inst, [(1, ["a", "b"])])


def test_co_located_tasks_are_served_at_one_instant():
    # the windows do not meet, so no instant serves both tasks
    inst, cr = co_located_instance([(0, 5), (6, 8)], [1, 1])
    schedule, _ = verify_capacity(("v1",), cr, inst, False)
    assert schedule is None
    assert replay(cr[0], inst.ticks) is None
    assert not verify_routes(cr, inst)
    # one stop serves both within [0, 6] for 3 + 1 units: the latest start
    # is 6 minus one unit of travel, and from time 0 the route is back at
    # 1 + 4 + 1 = 6
    inst, cr = co_located_instance([(0, 10), (0, 6)], [3, 1])
    assert replay(cr[0], inst.ticks) == (5, 6)
    schedule, _ = verify_capacity(("v1",), cr, inst, False)
    assert schedule.routes[0].position_tasks == ((), ("a", "b"), ())


def test_replay_times_a_lone_route_as_the_capacity_model_does():
    """On random tiny instances with the tasks moved to random nodes (so
    some share a node or sit at a depot), replay times a route on shortest
    legs iff the capacity model without occupancy limits schedules it
    alone, and that schedule starts by the latest start and ends no earlier
    than the earliest end."""
    timed = untimed = 0
    for seed in range(60):
        rng = random.Random(seed)
        inst = random_tiny_instance(seed, unit=seed % 2 == 0)
        nodes = sorted(inst.graph.nodes)
        inst = dataclasses.replace(inst, tasks={
            tid: dataclasses.replace(t, location=rng.choice(nodes))
            for tid, t in inst.tasks.items()})
        for _ in range(5):
            tasks = rng.sample(inst.task_ids(), rng.randint(1, len(inst.tasks)))
            cr = partial_routes(inst, [(rng.choice(inst.depots), tasks)])
            bounds = replay(cr[0], inst.ticks)
            schedule, _ = verify_capacity(
                ("v1",), cr, inst, conflicts=False)
            assert (bounds is None) == (schedule is None), seed
            if bounds is None:
                untimed += 1
                continue
            timed += 1
            rs = schedule.routes[0]
            late, early = (Fraction(b, inst.ticks.scale) for b in bounds)
            assert rs.start <= late and rs.node_out[-1] >= early, seed
    assert timed >= 50 and untimed >= 50


def _assign(inst, cr):
    ca = next(assignments(cr, inst), None)
    assert ca is not None
    return ca


def test_disjoint_routes_schedule_tightly(corridor):
    cr = partial_routes(corridor, [(1, ["j11"])])
    ca = _assign(corridor, cr)
    cvs, stats = verify_capacity(ca, cr, corridor)
    assert cvs is not None
    rs = cvs.routes[0]
    assert rs.start == rs.node_in[0]
    for q, e in enumerate(rs.edges):
        d = corridor.graph.edges[e].length
        assert rs.node_in[q + 1] == rs.edge_in[q] + d
    assert stats.node_conflict_constraints == 0
    assert stats.edge_direct_constraints == 0


def crossing_instance(lower=0.0, upper=10.0):
    """Two vehicles whose routes traverse one 3-node line head-on."""
    g = validate_graph([1, 2, 3], [1, 3], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 12)
    tasks = [
        Task("a1", "a", 3, TimeWindow(lower, upper), 0.0),
        Task("b1", "b", 1, TimeWindow(lower, upper), 0.0),
    ]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v2"}))]
    vehicles = [Vehicle("v1", 1), Vehicle("v2", 3)]
    return build_instance(g, [1, 3], fleet, vehicles, jobs, tasks)


def test_opposite_edge_crossing_is_serialized():
    inst = crossing_instance()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["a1"]), (3, ["b1"])])
    ca = _assign(inst, cr)
    cvs, stats = verify_capacity(ca, cr, inst)
    assert cvs is not None
    assert stats.edge_opposite_constraints > 0
    assert validate_schedule(cvs, inst).ok
    # the two traversals of each shared segment never overlap
    for e1, t1 in zip(cvs.routes[0].edges, cvs.routes[0].edge_in):
        for e2, t2 in zip(cvs.routes[1].edges, cvs.routes[1].edge_in):
            if e1 == (e2[1], e2[0]):
                d = inst.graph.edges[e1].length
                assert t1 >= t2 + d or t2 >= t1 + d


def test_pinned_windows_make_crossing_infeasible():
    inst = swap_deadlock_instance()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["a1"]), (3, ["b1"])])
    ca = _assign(inst, cr)
    cvs, _ = verify_capacity(ca, cr, inst)
    assert cvs is None


def test_without_conflicts_the_pinned_crossing_is_timed():
    inst = swap_deadlock_instance()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["a1"]), (3, ["b1"])])
    ca = _assign(inst, cr)
    cvs, stats = verify_capacity(ca, cr, inst, conflicts=False)
    assert cvs is not None
    assert stats == CapacityStats()  # not one conflict clause encoded
    kinds = {v.kind for v in validate_schedule(cvs, inst).violations}
    assert kinds and kinds <= {NODE_CAPACITY, EDGE_CAPACITY_OPPOSITE}


def test_hub_nodes_generate_no_conflicts():
    g = validate_graph([1, 2, 3], [1, 2, 3],
                       [(1, 2, 1.0, 2), (2, 3, 1.0, 2)])
    fleet = FleetParams(10, 1, 1, 1, 1, 12)
    tasks = [Task("a1", "a", 3, TimeWindow(0, 10), 0.0),
             Task("b1", "b", 1, TimeWindow(0, 10), 0.0)]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v2"}))]
    inst = build_instance(g, [1, 3], fleet,
                          [Vehicle("v1", 1), Vehicle("v2", 3)], jobs, tasks)
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["a1"]), (3, ["b1"])])
    ca = _assign(inst, cr)
    cvs, stats = verify_capacity(ca, cr, inst)
    assert cvs is not None
    # every node is a hub and every segment has capacity 2: nothing to check
    assert stats.node_conflict_constraints == 0
    assert stats.edge_direct_constraints == 0
    assert stats.edge_opposite_constraints == 0
    assert stats.hub_exempt_pairs > 0
    assert stats.capacity2_exempt_pairs > 0


def test_same_vehicle_routes_respect_charging_gap():
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(20, 1, 1, 1, 1, 30)
    tasks = [Task("a1", "a", 2, TimeWindow(0, 30), 0.0),
             Task("b1", "b", 3, TimeWindow(0, 30), 0.0)]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v1"}))]
    inst = build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["a1"]), (1, ["b1"])])
    ca = _assign(inst, cr)
    cvs, _ = verify_capacity(ca, cr, inst)
    assert cvs is not None
    a, b = cvs.routes
    first, second = (a, b) if a.node_in[0] <= b.node_in[0] else (b, a)
    gap = inst.fleet.charge_coeff * second.length
    assert second.node_in[0] >= first.node_out[-1] + gap


def test_edge_entry_is_arrival_minus_travel():
    """Every schedule enters a segment exactly its travel time before it
    reaches the segment's end, the instant it leaves the position before:
    exact equalities, where the validator allows 1e-6."""
    insts = [parse_instance(path.read_text())
             for path in sorted(GRID.glob("g*.json"))]
    insts += [random_tiny_instance(seed, unit=seed % 2 == 0)
              for seed in range(60)]
    checked = 0
    for inst in insts:
        for solve in (comsat_solve, c_comsat_solve):
            out = solve(inst)
            if out.status != FEASIBLE:
                continue
            for rs in out.schedule.routes:
                for q, e in enumerate(rs.edges):
                    travel = inst.graph.edges[e].length / inst.fleet.speed
                    assert isinstance(rs.edge_in[q], Fraction)
                    assert rs.edge_in[q] + travel == rs.node_in[q + 1]
                    assert rs.node_out[q] == rs.edge_in[q]
                    checked += 1
    assert checked >= 400  # 434 segment traversals


def corridor_route(horizon, window=(2, 2), home_service=None):
    """One vehicle's route 1-2-5-2-1 on the corridor graph at horizon T:
    task j11 at node 5 in `window` (service 2), and, with `home_service`,
    a task h1 served on the return to depot 1.  Node 2 is a task-free
    position both ways; from j11 pinned at 2 the route is back at 6."""
    fleet = FleetParams(10, 1, 1, 1, 1, horizon)
    tasks = [Task("j11", "j1", 5, TimeWindow(*window), 2)]
    jobs = [Job("j1", ("j11",), frozenset({"v1"}))]
    if home_service is not None:
        tasks.append(Task("h1", "h", 1, TimeWindow(0, 6), home_service))
        jobs.append(Job("h", ("h1",), frozenset({"v1"})))
    inst = build_instance(corridor_graph(), [1, 6], fleet,
                          [Vehicle("v1", 1)], jobs, tasks)
    cr = partial_routes(inst, [(1, [t.id for t in tasks])])
    return verify_capacity(("v1",), cr, inst)[0], inst.ticks


def test_horizon_binds_through_the_last_stop():
    """Only the last position carries the horizon, and it bounds the
    route's end: feasible when T is the return time plus the last service,
    infeasible one tick below.  A window below T binds wherever it is."""
    for home_service in (None, Fraction(1, 2)):
        T = 6 + (home_service or 0)
        schedule, ticks = corridor_route(T, home_service=home_service)
        assert schedule is not None
        rs = schedule.routes[0]
        assert rs.nodes == (1, 2, 5, 2, 1)
        assert rs.node_in[-1] == 6 and rs.node_out[-1] == T
        tick = Fraction(1, ticks.scale)
        schedule, below = corridor_route(T - tick, home_service=home_service)
        assert below.scale == ticks.scale
        assert schedule is None, home_service
    # j11 is reached at 2 at the earliest, far below T
    assert corridor_route(13, window=(0, 2))[0] is not None
    assert corridor_route(13, window=(0, 1))[0] is None
