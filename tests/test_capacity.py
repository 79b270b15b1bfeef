"""Capacity scheduling: visit lists, conflict constraints, exemption stats."""

import pytest

from cfevrp.assignment import compute_route_attributes, solve_assignment
from cfevrp.capacity import build_visit_lists, verify_capacity
from cfevrp.driver import routes_from_task_orders, shortest_path_map
from cfevrp.errors import BrokenChain
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
)
from cfevrp.routing import Route, RouteSet
from cfevrp.validator import validate_schedule
from conftest import swap_deadlock_instance


def partial_routes(inst, orders):
    """Route set over a subset of the tasks, legs on shortest paths."""
    sp = shortest_path_map(inst)
    routes = []
    for depot, tasks in orders:
        locs = [depot] + [inst.tasks[t].location for t in tasks] + [depot]
        legs = tuple(sp[(a, b)] for a, b in zip(locs, locs[1:]))
        routes.append(Route(depot, tuple(tasks), legs))
    return RouteSet(tuple(routes), frozenset())


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
    assert build_visit_lists(RouteSet((), frozenset()), corridor) == []


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


def test_broken_chain_detected(corridor):
    r = Route(1, ("j11",), (
        corridor.graph.path_between((1, 2, 5)),
        corridor.graph.path_between((2, 1)),  # starts at the wrong node
    ))
    with pytest.raises(BrokenChain):
        build_visit_lists(RouteSet((r,), frozenset()), corridor)


def _assign(inst, cr):
    attrs = compute_route_attributes(cr, inst)
    ca = solve_assignment(cr, attrs, inst, [])
    assert ca is not None
    return ca


def test_disjoint_routes_schedule_tightly(corridor):
    cr = partial_routes(corridor, [(1, ["j11"])])
    ca = _assign(corridor, cr)
    cvs, stats = verify_capacity(ca, build_visit_lists(cr, corridor), corridor)
    assert cvs is not None
    rs = cvs.routes[0]
    assert rs.node_in[0] >= ca.starts[0]
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
    cvs, stats = verify_capacity(ca, build_visit_lists(cr, inst), inst)
    assert cvs is not None
    assert stats.edge_opposite_constraints > 0
    assert validate_schedule(cvs, inst).ok
    # the two traversals of each shared segment never overlap
    for e1, t1 in zip(cvs.routes[0].edges, cvs.routes[0].edge_in):
        for e2, t2 in zip(cvs.routes[1].edges, cvs.routes[1].edge_in):
            if e1 == (e2[1], e2[0]):
                d = inst.graph.edges[e1].length
                assert t1 >= t2 + d - 1e-9 or t2 >= t1 + d - 1e-9


def test_pinned_windows_make_crossing_infeasible():
    inst = swap_deadlock_instance()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["a1"]), (3, ["b1"])])
    ca = _assign(inst, cr)
    cvs, _ = verify_capacity(ca, build_visit_lists(cr, inst), inst)
    assert cvs is None


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
    cvs, stats = verify_capacity(ca, build_visit_lists(cr, inst), inst)
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
    cvs, _ = verify_capacity(ca, build_visit_lists(cr, inst), inst)
    assert cvs is not None
    a, b = cvs.routes
    first, second = (a, b) if a.node_in[0] <= b.node_in[0] else (b, a)
    gap = inst.fleet.charge_coeff * second.length
    assert second.node_in[0] >= first.node_out[-1] + gap - 1e-9
