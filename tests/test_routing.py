"""Route construction: minimality, blocking-based enumeration, edge cases."""

from fractions import Fraction

from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Ticks, Vehicle, build_instance,
)
from cfevrp.driver import (
    FEASIBLE, INFEASIBLE, c_comsat_solve, comsat_solve, shortest_path_map,
)
from cfevrp.routing import Anchor, RoutingModel, route_sets
from cfevrp.validator import brute_force_feasible
from conftest import (
    corridor_graph, random_tiny_instance, short_range_tiny_instance,
    shortest_path,
)


def enumerate_route_partitions(inst):
    """Brute-force count of feasible depot-anchored route collections."""
    return len(route_partitions(inst))


def route_partitions(inst):
    """Every feasible depot-anchored route collection, by brute force.

    Returns {frozenset of (depot, task tuple): (route count, distance)}.
    Mirrors the travel-link model's semantics in exact arithmetic:
    earliest-arrival replay with waiting, a per-route charge budget,
    consecutive tasks whose jobs share an eligible vehicle, and a first and
    a last task whose jobs share one with the vehicles at the route's depot.
    """
    g = inst.graph
    fleet = inst.fleet
    tasks = inst.task_ids()
    budget = fleet.operating_range / fleet.charge_to_range * fleet.speed \
        / fleet.discharge_coeff

    def dist(a, b):  # a plant length: the path's units times the unit
        return shortest_path(g, a, b).length * g.unit

    def vehicles(tid):
        return inst.job_of(tid).eligible_vehicles

    def route_length(depot, seq):
        """The route's length, or None if it cannot run."""
        at_depot = set(inst.vehicles_at(depot))
        if not (vehicles(seq[0]) & at_depot and vehicles(seq[-1]) & at_depot):
            return None
        if any(not (vehicles(a) & vehicles(b)) for a, b in zip(seq, seq[1:])):
            return None
        t = 0
        length = 0
        loc = depot
        prev_service = 0
        for tid in seq:
            task = inst.tasks[tid]
            d = dist(loc, task.location)
            length += d
            t = max(t + prev_service + d / fleet.speed, task.window.lower)
            if t > task.window.upper:
                return None
            prev_service = task.service_time
            loc = task.location
        d_back = dist(loc, depot)
        length += d_back
        if t + prev_service + d_back / fleet.speed > fleet.horizon:
            return None
        return length if length <= budget else None

    def ordered_partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in ordered_partitions(rest):
            yield [[head]] + [list(s) for s in part]
            for i, seq in enumerate(part):
                for pos in range(len(seq) + 1):
                    new = [list(s) for s in part]
                    new[i] = seq[:pos] + [head] + seq[pos:]
                    yield new

    from itertools import product
    found = {}
    for part in ordered_partitions(tasks):
        for depots in product(inst.depots, repeat=len(part)):
            lengths = [route_length(o, seq) for o, seq in zip(depots, part)]
            if None not in lengths:
                key = frozenset((o, tuple(seq)) for o, seq in zip(depots, part))
                found[key] = (len(part), sum(lengths))
    return found


def three_task_instance():
    g = corridor_graph()
    fleet = FleetParams(operating_range=12, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=12)
    tasks = [
        Task("t1", "j1", 2, TimeWindow(1, 6), 1.0),
        Task("t2", "j2", 4, TimeWindow(2, 8), 1.0),
        Task("t3", "j3", 5, TimeWindow(1, 7), 1.0),
    ]
    shared = frozenset({"v1", "v2"})
    jobs = [Job("j1", ("t1",), shared), Job("j2", ("t2",), shared),
            Job("j3", ("t3",), shared)]
    vehicles = [Vehicle("v1", 1), Vehicle("v2", 6)]
    return build_instance(g, [1, 6], fleet, vehicles, jobs, tasks)


def test_corridor_first_solution_has_two_routes(corridor):
    sp = shortest_path_map(corridor)
    cr = next(route_sets(corridor, sp, Ticks(corridor)), None)
    assert cr is not None
    assert len(cr.routes) == 2
    # mutual exclusion keeps j1 apart from j2/j3, so the minimal split is
    # forced; the depot anchors are a tie-break left to the assignment stage
    groups = sorted(sorted(r.tasks) for r in cr.routes)
    assert groups == [["j11"], ["j21", "j31"]]


def test_every_route_starts_and_ends_at_its_depot(corridor):
    sp = shortest_path_map(corridor)
    cr = next(route_sets(corridor, sp, Ticks(corridor)), None)
    for r in cr.routes:
        locs = r.locations(corridor)
        assert locs[0] == r.depot and locs[-1] == r.depot
        for leg, (a, b) in zip(r.legs, zip(locs, locs[1:])):
            assert leg.nodes[0] == a and leg.nodes[-1] == b


def test_window_impossible_task_is_infeasible():
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 3, TimeWindow(0, 1), 0.0)])  # distance 2 > upper 1
    assert next(route_sets(inst, shortest_path_map(inst), Ticks(inst)), None) is None


def two_depot_instance_with_an_unserved_depot():
    """Three single-task jobs at two depots; depot 6 hosts no vehicle that
    may serve j1, and depot 1 none that may serve j3."""
    g = corridor_graph()
    fleet = FleetParams(operating_range=12, charge_coeff=1, discharge_coeff=1,
                        charge_to_range=1, speed=1, horizon=12)
    tasks = [
        Task("t1", "j1", 2, TimeWindow(1, 6), 1.0),
        Task("t2", "j2", 4, TimeWindow(2, 8), 1.0),
        Task("t3", "j3", 5, TimeWindow(1, 7), 1.0),
    ]
    jobs = [Job("j1", ("t1",), frozenset({"v1"})),
            Job("j2", ("t2",), frozenset({"v1", "v2", "v3"})),
            Job("j3", ("t3",), frozenset({"v3"}))]
    vehicles = [Vehicle("v1", 1), Vehicle("v2", 1), Vehicle("v3", 6)]
    return build_instance(g, [1, 6], fleet, vehicles, jobs, tasks)


def _check_enumeration_against_reference(inst):
    """The router yields every brute-force route set once, by route count
    and then by distance; returns how many it yields."""
    expected = route_partitions(inst)
    sp = shortest_path_map(inst)
    seen = []
    for cr in route_sets(inst, sp, Ticks(inst)):
        key = frozenset((r.depot, r.tasks) for r in cr.routes)
        assert key in expected and key not in seen
        seen.append(key)
    assert len(seen) == len(expected)
    order = [expected[key] for key in seen]
    assert order == sorted(order)
    return len(seen)


def test_blocking_enumerates_all_partitions_then_infeasible():
    assert _check_enumeration_against_reference(three_task_instance())


def test_router_skips_depots_that_host_no_eligible_vehicle():
    inst = two_depot_instance_with_an_unserved_depot()
    assert _check_enumeration_against_reference(inst)
    for cr in route_sets(inst, shortest_path_map(inst), Ticks(inst)):
        for r in cr.routes:
            assert "t1" not in r.tasks or r.depot == 1
            assert "t3" not in r.tasks or r.depot == 6


def test_route_counts_never_decrease_during_enumeration():
    inst = three_task_instance()
    sp = shortest_path_map(inst)
    counts = []
    keys = []
    for cr in route_sets(inst, sp, Ticks(inst)):
        counts.append(len(cr.routes))
        keys.append((len(cr.routes), sum(r.length for r in cr.routes)))
    assert counts == sorted(counts)
    # within a count, the shortest route sets come first
    assert keys == sorted(keys)


def test_multi_task_job_runs_contiguously():
    g = corridor_graph()
    fleet = FleetParams(14, 1, 1, 1, 1, 16)
    tasks = [
        Task("a1", "a", 2, TimeWindow(0, 14), 1.0),
        Task("a2", "a", 4, TimeWindow(0, 14), 1.0),
        Task("b1", "b", 5, TimeWindow(0, 14), 1.0),
    ]
    shared = frozenset({"v1"})
    jobs = [Job("a", ("a1", "a2"), shared), Job("b", ("b1",), shared)]
    inst = build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)
    cr = next(route_sets(inst, shortest_path_map(inst), Ticks(inst)), None)
    assert cr is not None
    for r in cr.routes:
        idx = [i for i, t in enumerate(r.tasks) if t in ("a1", "a2")]
        if len(idx) == 2:
            assert abs(idx[0] - idx[1]) == 1


def test_zero_job_instance_yields_empty_route_set():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    inst = build_instance(g, [1], FleetParams(10, 1, 1, 1, 1, 10),
                          [Vehicle("v1", 1)], [], [])
    cr = next(route_sets(inst, shortest_path_map(inst), Ticks(inst)), None)
    assert cr is not None and cr.routes == ()


def _expected_links(inst, sp):
    """The travel links some route can use, restated from the instance:
    the two ends share a vehicle (an anchor's are those at its depot), the
    later end's window can be reached from the earlier end's earliest time,
    and one full charge covers the leg."""
    fleet = inst.fleet
    full = fleet.operating_range / fleet.charge_to_range
    stops = {}  # key -> (node, earliest, service, latest, vehicles)
    for o in inst.depots:
        at_depot = set(inst.vehicles_at(o))
        stops[Anchor(o, end=False)] = (o, 0, 0, None, at_depot)
        stops[Anchor(o, end=True)] = (o, None, 0, fleet.horizon, at_depot)
    for tid, t in inst.tasks.items():
        stops[tid] = (t.location, t.window.lower, t.service_time,
                      t.window.upper, inst.job_of(tid).eligible_vehicles)
    links = set()
    for a, (loc_a, early, service, _, va) in stops.items():
        for b, (loc_b, _, _, late, vb) in stops.items():
            if a == b or early is None or late is None \
                    or isinstance(a, Anchor) and isinstance(b, Anchor):
                continue
            hours = sp[(loc_a, loc_b)].length * inst.graph.unit / fleet.speed
            if va & vb and early + service + hours <= late \
                    and fleet.discharge_coeff * hours <= full:
                links.add((a, b))
    return links


def test_router_has_exactly_the_links_a_route_can_use():
    dropped = 0
    for seed in range(40):
        for unit in (True, False):
            inst = random_tiny_instance(seed, unit)
            sp = shortest_path_map(inst)
            links = _expected_links(inst, sp)
            assert set(RoutingModel(inst, sp, Ticks(inst)).theta) == links, (seed, unit)
            n, d = len(inst.tasks), len(inst.depots)
            dropped += 2 * n * d + n * (n - 1) - len(links)
    assert dropped > 0


def test_router_enumerates_the_brute_force_route_sets_of_tiny_instances():
    """Unit and decimal data, each with its own range and with a short
    one under which a vehicle runs several routes."""
    found = 0
    for seed in range(75):
        for unit in (True, False):
            for make in (random_tiny_instance, short_range_tiny_instance):
                found += _check_enumeration_against_reference(make(seed, unit))
    assert found > 400


def _charge_boundary_instance(unit, short):
    """The line 1-2-3 with depot 1 and one vehicle serving tasks at 2 and
    3; the one route that serves both is 4 units of time long and T = 4,
    so it uses D * T of charge.  A full charge OR/rho is exactly D * T, or
    one tick of the solve's clock less when `short`."""
    # segment length, speed, C and D; a tick is 1, or 1/20 from C * length
    half = Fraction(1, 2)
    length, speed, c, d = ((1, 1, 1, 1) if unit
                           else (half, half, Fraction(7, 10), 3 * half))
    tick = 1 if unit else Fraction(1, 20)
    g = validate_graph([1, 2, 3], [1], [(1, 2, length, 1), (2, 3, length, 1)])
    fleet = FleetParams(4 * d - (tick if short else 0), c, d, 1, speed, 4)
    shared = frozenset({"v1"})
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("a", ("a1",), shared), Job("b", ("b1",), shared)],
        [Task("a1", "a", 2, TimeWindow(0, 4), 0),
         Task("b1", "b", 3, TimeWindow(0, 4), 0)])
    assert Ticks(inst).scale * tick == 1
    return inst


def test_router_makes_charge_reals_only_where_a_full_charge_can_run_out():
    """At D * T = OR/rho the time chain alone keeps every route within a
    full charge, so the router has one real per task (its arrival time);
    one tick short, a second one per task carries the charge used, and
    only it refuses the route that is back at T."""
    for unit in (True, False):
        for short in (False, True):
            inst = _charge_boundary_instance(unit, short)
            model = RoutingModel(inst, shortest_path_map(inst), Ticks(inst))
            reals = model.ctx._graph.n - 1  # node 0 is the zero node
            assert reals == (2 if short else 1) * len(inst.tasks), (unit, short)
            feasible = brute_force_feasible(inst).feasible
            assert feasible is not short, (unit, short)
            for solve in (comsat_solve, c_comsat_solve):
                # raises MalformedChain on a route past the range
                out = solve(inst)
                assert out.status == (FEASIBLE if feasible else INFEASIBLE), (
                    unit, short, solve.__name__, out.reason)
