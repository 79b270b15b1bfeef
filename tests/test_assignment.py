"""Vehicle assignment: eligibility, feasibility, blocking-based enumeration."""

from itertools import permutations, product

from cfevrp.assignment import assignments
from cfevrp.capacity import replay, verify_capacity
from cfevrp.driver import shortest_path_map
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Ticks, Vehicle, build_instance,
)
from cfevrp.routing import RouteSet
from cfevrp.validator import CHARGING_GAP, validate_schedule
from conftest import corridor_instance, eligible_vehicles, routes_from_task_orders


def test_attribute_computation_on_corridor_route():
    inst = corridor_instance()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["j11"]), (6, ["j21", "j31"])])
    r = cr.routes[0]  # depot 1, task j11 at node 5, distance 2 each way
    assert r.length == 4
    # latest start: u=2 minus travel time 2; earliest end: 2 + service 2 + 2
    assert replay(r, cr.ticks) == (0, 6 * cr.ticks.scale)
    assert eligible_vehicles(inst, r) == frozenset({"v1"})
    assert {ca.vehicle_of[0] for ca in assignments(cr, inst)} == {"v1"}


def test_eligibility_restricted_to_route_depot():
    inst = corridor_instance()
    sp = shortest_path_map(inst)
    # j21/j31 are v2's jobs, but their route leaves from v1's depot; each
    # route can be timed alone, so only eligibility refuses every map
    cr = routes_from_task_orders(inst, sp, [(1, ["j11"]), (1, ["j21", "j31"])])
    assert [eligible_vehicles(inst, r) for r in cr.routes] == [
        frozenset({"v1"}), frozenset()]
    assert all(replay(r, cr.ticks) is not None for r in cr.routes)
    assert next(assignments(cr, inst), None) is None


def test_corridor_assignment_picks_the_only_eligible_vehicles():
    inst = corridor_instance()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["j11"]), (6, ["j31", "j21"])])
    ca = next(assignments(cr, inst), None)
    assert ca is not None
    assert ca.vehicle_of == ("v1", "v2")


def test_zero_routes_is_trivially_sat():
    inst = corridor_instance()
    cr = RouteSet((), Ticks(inst))
    ca = next(assignments(cr, inst), None)
    assert ca is not None and ca.vehicle_of == ()


def three_vehicle_fixture():
    g = validate_graph([1, 2, 3, 4], [1],
                       [(1, 2, 1.0, 1), (2, 3, 1.0, 1), (3, 4, 1.0, 1)])
    fleet = FleetParams(operating_range=20, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=10)
    tasks = [
        Task("t1", "j1", 2, TimeWindow(0, 4), 1.0),
        Task("t2", "j2", 3, TimeWindow(0, 6), 1.0),
    ]
    jobs = [
        Job("j1", ("t1",), frozenset({"v1", "v2"})),
        Job("j2", ("t2",), frozenset({"v2", "v3"})),
    ]
    vehicles = [Vehicle("v1", 1), Vehicle("v2", 1), Vehicle("v3", 1)]
    return build_instance(g, [1], fleet, vehicles, jobs, tasks)


def brute_force_vehicle_maps(cr, inst):
    """All eligibility-respecting maps admitting a sequential timing, with
    each route's latest start from `replay`."""
    vehicles = sorted(inst.vehicles)
    n = len(cr.routes)
    eligible = [eligible_vehicles(inst, r) for r in cr.routes]
    latest_start = [replay(r, cr.ticks)[0] / cr.ticks.scale for r in cr.routes]
    length = [r.length * inst.graph.unit for r in cr.routes]
    service = [sum(inst.tasks[t].service_time for t in r.tasks)
               for r in cr.routes]
    feasible = []
    for combo in product(vehicles, repeat=n):
        if any(combo[r] not in eligible[r] for r in range(n)):
            continue
        ok = True
        for v in set(combo):
            rs = [r for r in range(n) if combo[r] == v]
            if len(rs) < 2:
                continue
            # some service order must meet every latest start
            orderings = False
            for order in permutations(rs):
                t = 0.0
                fits = True
                for pos, r in enumerate(order):
                    start = t
                    if pos > 0:  # charge for the route about to start
                        start += inst.fleet.charge_coeff * length[r]
                    if start > latest_start[r] + 1e-9:
                        fits = False
                        break
                    t = start + length[r] / inst.fleet.speed + service[r]
                if fits:
                    orderings = True
                    break
            ok = ok and orderings
        if ok:
            feasible.append(combo)
    return feasible


def test_blocking_enumerates_all_vehicle_maps_then_infeasible():
    inst = three_vehicle_fixture()
    sp = shortest_path_map(inst)
    cr = routes_from_task_orders(inst, sp, [(1, ["t1"]), (1, ["t2"])])
    expected = set(brute_force_vehicle_maps(cr, inst))
    assert expected  # fixture admits at least one assignment
    seen = set()
    for ca in assignments(cr, inst):
        assert ca.vehicle_of in expected
        assert ca.vehicle_of not in seen
        seen.add(ca.vehicle_of)
        assert len(seen) <= len(expected)
    assert seen == expected


def one_vehicle_fixture():
    """The routes of three_vehicle_fixture's tasks, both on v1, with room
    to run one after the other."""
    g = validate_graph([1, 2, 3, 4], [1],
                       [(1, 2, 1.0, 1), (2, 3, 1.0, 1), (3, 4, 1.0, 1)])
    fleet = FleetParams(operating_range=20, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=30)
    tasks = [
        Task("t1", "j1", 2, TimeWindow(0, 20), 1.0),
        Task("t2", "j2", 3, TimeWindow(0, 20), 1.0),
    ]
    jobs = [Job("j1", ("t1",), frozenset({"v1"})),
            Job("j2", ("t2",), frozenset({"v1"}))]
    return build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)


def test_charging_gap_separates_same_vehicle_routes():
    shared = 0
    for inst in (three_vehicle_fixture(), one_vehicle_fixture()):
        sp = shortest_path_map(inst)
        cr = routes_from_task_orders(inst, sp, [(1, ["t1"]), (1, ["t2"])])
        for ca in assignments(cr, inst):
            cvs, _ = verify_capacity(ca, cr, inst)
            assert cvs is not None
            for v in set(ca.vehicle_of):
                rs = sorted((rs for rs in cvs.routes if rs.vehicle == v),
                            key=lambda rs: rs.start)
                for prev, nxt in zip(rs, rs[1:]):
                    gap = inst.fleet.charge_coeff * nxt.length
                    assert nxt.start >= prev.node_out[-1] + gap
                    shared += 1
            kinds = {x.kind for x in validate_schedule(cvs, inst).violations}
            assert CHARGING_GAP not in kinds
    assert shared  # some map puts two routes on one vehicle
