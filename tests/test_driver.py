"""End-to-end solve loop: outcomes, backtracking, event log, relaxed mode."""

import random
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest

from cfevrp.assignment import Assignment, assignments
from cfevrp.capacity import replay, verify_capacity
from cfevrp.driver import (
    ABORTED, FEASIBLE, INFEASIBLE, Limits, _Clock, _route_set_phase,
    c_comsat_solve, comsat_solve, shortest_path_map, total_distance,
)
from cfevrp.errors import InvariantViolation
from cfevrp.fileio import parse_instance
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Ticks, Vehicle, build_instance,
)
from cfevrp.pathschanger import path_sets
from cfevrp.routing import route_sets
from cfevrp.validator import (
    EDGE_CAPACITY_DIRECT, EDGE_CAPACITY_OPPOSITE, NODE_CAPACITY,
    brute_force_feasible, validate_schedule,
)
from conftest import (
    eligible_vehicles, random_tiny_instance, routes_from_task_orders,
    short_range_tiny_instance,
)

BENCH_INSTANCES = Path(__file__).resolve().parent.parent / "bench" / "instances"


def test_corridor_solves_and_validates(corridor):
    out = comsat_solve(corridor)
    assert out.status == FEASIBLE
    assert total_distance(out) == 12.0
    assert out.paths_changer_calls > 0
    assert validate_schedule(out.schedule, corridor).ok


def solve_from_route_orders(inst, orders):
    """The strict solve loop on one route set of (depot, task order) pairs,
    given instead of the router's: its assignments, capacity checks and
    path changes."""
    cr = routes_from_task_orders(inst, shortest_path_map(inst), orders)
    return _route_set_phase(inst, cr, Limits(), _Clock([]), True)


def test_forced_route_order_reproduces_detour(corridor):
    out = solve_from_route_orders(
        corridor, [(1, ["j11"]), (6, ["j21", "j31"])])
    assert out.status == FEASIBLE
    assert out.paths_changer_calls > 0
    v2 = next(r for r in out.schedule.routes if r.vehicle == "v2")
    assert v2.length == 8.0
    assert total_distance(out) == 12.0


def test_relaxed_mode_ignores_capacity(corridor):
    out = c_comsat_solve(corridor)
    assert out.status == FEASIBLE
    assert total_distance(out) == 10.0  # shortest paths, conflicts ignored
    rep = validate_schedule(out.schedule, corridor)
    assert not rep.ok
    assert any(v.kind.startswith("EdgeCapacity") or v.kind == "NodeCapacity"
               for v in rep.violations)


def test_timing_refuted_on_shortest_legs_is_refuted_on_every_path_set():
    """`assignments` yields exactly the eligible vehicle maps whose timing
    holds on the router's legs without occupancy limits.  A map it refuses
    has some vehicle running two routes (or a route that cannot be timed
    alone), and has no schedule, strict or relaxed, on the other path
    combinations: each refused map is checked on the path changer's first
    ten, which keeps the test fast."""
    refused = combinations = 0
    for seed, unit in ([(s, True) for s in range(100)]
                       + [(s, False) for s in range(100, 150)]):
        inst = random_tiny_instance(seed, unit=unit)
        for cr in route_sets(inst, shortest_path_map(inst), Ticks(inst)):
            alone = all(replay(r, cr.ticks) is not None for r in cr.routes)
            yielded = {ca.vehicle_of for ca in assignments(cr, inst)}
            eligible = list(product(
                *(sorted(eligible_vehicles(inst, r)) for r in cr.routes)))
            assert yielded <= set(eligible), seed
            for vehicle_of in eligible:
                ca = Assignment(vehicle_of)
                timed = verify_capacity(ca, cr, inst, False)[0] is not None
                assert timed == (vehicle_of in yielded), (seed, unit)
                if timed:
                    continue
                refused += 1
                assert len(set(vehicle_of)) < len(vehicle_of) or not alone
                for np in islice(path_sets(cr, inst), 10):
                    combinations += 1
                    for conflicts in (True, False):
                        schedule, _ = verify_capacity(ca, np, inst, conflicts)
                        assert schedule is None, (seed, unit, conflicts)
    assert refused >= 40 and combinations >= 600


def test_capacity_bound_instance_diverges(swap_deadlock):
    assert comsat_solve(swap_deadlock).status == INFEASIBLE
    assert c_comsat_solve(swap_deadlock).status == FEASIBLE


def test_zero_path_budget_aborts(corridor):
    out = comsat_solve(corridor, Limits(max_path_sets=0))
    assert out.status == ABORTED
    assert "path set" in out.reason


def test_routing_impossible_is_infeasible_in_both_modes():
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 3, TimeWindow(0, 1), 0.0)])
    assert comsat_solve(inst).status == INFEASIBLE
    assert c_comsat_solve(inst).status == INFEASIBLE


def test_event_log_structure(corridor):
    out = comsat_solve(corridor)
    phases = [e.phase for e in out.events]
    assert phases[0] == "router"
    assert out.events[-1].phase == "capacity" and out.events[-1].sat
    assert all(
        p in ("router", "assign", "capacity", "paths", "routes_check")
        for p in phases)
    assert all(e.seconds >= 0 for e in out.events)


def test_single_trivial_route():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 1, TimeWindow(0, 10), 1.0)])  # at the depot
    out = comsat_solve(inst)
    assert out.status == FEASIBLE
    assert total_distance(out) == 0.0
    assert len(out.schedule.routes) == 1
    assert validate_schedule(out.schedule, inst).ok


def test_zero_jobs_feasible_with_empty_schedule():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    inst = build_instance(g, [1], FleetParams(10, 1, 1, 1, 1, 10),
                          [Vehicle("v1", 1)], [], [])
    out = comsat_solve(inst)
    assert out.status == FEASIBLE
    assert out.schedule.routes == ()
    assert total_distance(out) == 0
    assert isinstance(total_distance(out), Fraction)


def test_total_distance_of_an_outcome_without_schedule_is_refused(
        swap_deadlock, corridor):
    for out in (comsat_solve(swap_deadlock),
                comsat_solve(corridor, Limits(max_path_sets=0))):
        assert out.status in (INFEASIBLE, ABORTED)
        with pytest.raises(InvariantViolation):
            total_distance(out)


def _star_instance():
    """One vehicle at hub 1 of the star 1-2, 1-3; each task needs its own
    route, and the charging gap between the two routes overruns T=6."""
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (1, 3, 1.0, 1)])
    fleet = FleetParams(2, 1.5, 1, 1, 1, 6)
    return build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j2", ("t2",), frozenset({"v1"})),
         Job("j3", ("t3",), frozenset({"v1"}))],
        [Task("t2", "j2", 2, TimeWindow(0, 6), 0.0),
         Task("t3", "j3", 3, TimeWindow(0, 6), 0.0)])


def test_exhausted_route_sets_have_their_own_reason():
    out = comsat_solve(_star_instance())
    assert out.status == INFEASIBLE
    # the assignment stage refuses the route set at once: the two routes'
    # latest starts already count the return to the depot by T
    assert [e.phase for e in out.events] == ["router", "assign", "router"]
    assert out.reason == (
        "1 route set(s) tried; each ran out of assignments and path changes")
    # relaxed mode shares the loop but never changes paths
    assert c_comsat_solve(_star_instance()).reason == (
        "1 route set(s) tried; each ran out of assignments")


def test_task_served_at_the_depot_must_end_its_service_by_the_horizon():
    """The oracle once bounded only the arrival at a route's last position
    by T, and called this feasible at distance 0."""
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    inst = build_instance(
        g, [1], FleetParams(10, 1, 1, 1, 1, 7), [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 1, TimeWindow(6, 6), 2.0)])  # done at 8 > T=7
    assert comsat_solve(inst).status == INFEASIBLE
    assert c_comsat_solve(inst).status == INFEASIBLE
    assert not brute_force_feasible(inst).feasible


def test_service_at_the_depot_is_back_by_the_horizon_in_both_modes():
    """The capacity model once bounded only the arrival at a route's last
    position by T: v1 served a1 at the depot from 9.0 and was back at 12.0
    with T=10, where starting at 7.0 keeps v2's window and T."""
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    inst = build_instance(
        g, [1], FleetParams(20, 1, 1, 1, 1, 10),
        [Vehicle("v1", 1), Vehicle("v2", 1)],
        [Job("a", ("a1",), frozenset({"v1"})),
         Job("b", ("b1",), frozenset({"v2"}))],
        [Task("a1", "a", 1, TimeWindow(0, 10), 3.0),
         Task("b1", "b", 3, TimeWindow(7, 8), 0.0)])
    assert brute_force_feasible(inst).feasible
    for solve in (comsat_solve, c_comsat_solve):
        out = solve(inst)
        assert out.status == FEASIBLE, solve.__name__
        assert validate_schedule(out.schedule, inst).ok, solve.__name__
        assert all(r.node_out[-1] <= 10 for r in out.schedule.routes)


def test_task_named_like_a_depot_anchor_is_routed():
    """The router once keyed its depot anchors by the task ids
    `__start_<depot>` and `__end_<depot>`, and a task of that name made
    every solve infeasible."""
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    inst = build_instance(
        g, [1], FleetParams(10, 1, 1, 1, 1, 10), [Vehicle("v1", 1)],
        [Job("j1", ("__start_1",), frozenset({"v1"}))],
        [Task("__start_1", "j1", 2, TimeWindow(0, 10), 0.0)])
    assert brute_force_feasible(inst).feasible
    out = comsat_solve(inst)
    assert out.status == FEASIBLE, out.reason
    assert total_distance(out) == 2
    assert validate_schedule(out.schedule, inst).ok


def test_star_instance_cannot_finish_by_the_horizon():
    """Both modes once scheduled the second route back at 7.0 with T=6."""
    inst = _star_instance()
    assert c_comsat_solve(inst).status == INFEASIBLE
    assert comsat_solve(inst).status == INFEASIBLE
    assert not brute_force_feasible(inst).feasible


def test_congested_tiny046_cannot_finish_by_the_horizon():
    """The relaxed mode once returned a route back at 13.0 with T=12."""
    inst = parse_instance(
        (BENCH_INSTANCES / "congested" / "tiny046.json").read_text())
    assert c_comsat_solve(inst).status == INFEASIBLE
    assert comsat_solve(inst).status == INFEASIBLE


def _two_leaf_instance(a_at, b_at):
    """The line 2-1-3 with hub 1 and one vehicle whose range fits one task
    per route.  Task a's window [6, 7] comes after task b's [0, 5], so the
    route to b must run first."""
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (1, 3, 1.0, 1)])
    return build_instance(
        g, [1], FleetParams(2, 1, 1, 1, 1, 20), [Vehicle("v", 1)],
        [Job("a", ("a",), frozenset({"v"})), Job("b", ("b",), frozenset({"v"}))],
        [Task("a", "a", a_at, TimeWindow(6, 7), 0.0),
         Task("b", "b", b_at, TimeWindow(0, 5), 0.0)])


def test_routes_of_one_vehicle_run_in_the_order_their_windows_need():
    """The assignment stage once fixed the order of a vehicle's routes,
    and both modes called this instance infeasible when it put a's route
    first.  Both labellings are solved, whichever order it picks."""
    for a_at, b_at in ((2, 3), (3, 2)):
        inst = _two_leaf_instance(a_at, b_at)
        assert brute_force_feasible(inst).feasible
        for solve in (comsat_solve, c_comsat_solve):
            out = solve(inst)
            assert out.status == FEASIBLE, (a_at, solve.__name__, out.reason)
            assert validate_schedule(out.schedule, inst).ok
            first = min(out.schedule.routes, key=lambda r: r.start)
            assert first.tasks == ("b",)


def _co_located_instance(service=2):
    """Tasks a (job A) and b (job B) both at node 2 of the line 1-2, each
    with window [5, 5] and the given service: one stop serves both at
    instant 5."""
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    return build_instance(
        g, [1], FleetParams(100, 1, 1, 1, 1, 20), [Vehicle("v1", 1)],
        [Job("A", ("a",), frozenset({"v1"})), Job("B", ("b",), frozenset({"v1"}))],
        [Task("a", "A", 2, TimeWindow(5, 5), service),
         Task("b", "B", 2, TimeWindow(5, 5), service)])


def test_co_located_tasks_are_feasible_for_the_oracle():
    verdict = brute_force_feasible(_co_located_instance())
    assert verdict.feasible and verdict.best_total_distance == 2


@pytest.mark.xfail(strict=True, reason=(
    "the router times co-located tasks one after the other, so both modes "
    "answer infeasible (events router, assign-, router-); ROADMAP item 1"))
@pytest.mark.parametrize("solve", [comsat_solve, c_comsat_solve])
def test_co_located_tasks_are_served_at_one_arrival(solve):
    out = solve(_co_located_instance())
    assert out.status == FEASIBLE, [(e.phase, e.sat) for e in out.events]
    assert total_distance(out) == 2


@pytest.mark.parametrize("solve", [comsat_solve, c_comsat_solve])
def test_co_located_tasks_without_service_close_no_cycle(solve):
    """Time does not advance on a link between two tasks at one node when
    the first takes no service, so the router once linked a and b to each
    other in a cycle with no depot, and extracting its routes raised."""
    inst = _co_located_instance(service=0)
    assert brute_force_feasible(inst).best_total_distance == 2
    out = solve(inst)
    assert out.status == FEASIBLE, [(e.phase, e.sat) for e in out.events]
    assert total_distance(out) == 2


def _shared_node_instance(seed):
    """Two or three single-task jobs without service on the line 1-2-3,
    each task at node 2 or 3, served by one or two vehicles at depot 1."""
    rng = random.Random(seed)
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    T = 10
    vehicles = [Vehicle(f"v{i + 1}", 1) for i in range(rng.randint(1, 2))]
    fleet = frozenset(v.id for v in vehicles)
    jobs, tasks = [], []
    for j in range(rng.randint(2, 3)):
        lower = rng.randint(0, T - 2)
        upper = rng.randint(lower, T - 2)
        tasks.append(Task(f"t{j}", f"j{j}", rng.choice([2, 3]),
                          TimeWindow(lower, upper), 0))
        jobs.append(Job(f"j{j}", (f"t{j}",), fleet))
    return build_instance(g, [1], FleetParams(100, 1, 1, 1, 1, T),
                          vehicles, jobs, tasks)


def test_tasks_without_service_on_shared_nodes_agree_with_the_oracle():
    wrong = []
    for seed in range(200):
        inst = _shared_node_instance(seed)
        feasible = brute_force_feasible(inst).feasible
        out = comsat_solve(inst)
        if (out.status == FEASIBLE) != feasible or (
                feasible and not validate_schedule(out.schedule, inst).ok):
            wrong.append((seed, out.status, feasible))
        if feasible and c_comsat_solve(inst).status != FEASIBLE:
            wrong.append((seed, "relaxed mode refuses a feasible instance"))
    assert not wrong


def test_short_range_tiny_instances_agree_with_the_oracle():
    """Seed 143 was once infeasible in both modes, with a feasible oracle
    verdict: its vehicle had to run its routes in the other order.  Seed 94
    once stopped at the path-set budget."""
    aborted, wrong = set(), []
    for seed in range(300):
        inst = short_range_tiny_instance(seed)
        out = comsat_solve(inst)
        feasible = brute_force_feasible(inst).feasible
        if out.status == ABORTED:
            aborted.add(seed)
        elif (out.status == FEASIBLE) != feasible:
            wrong.append((seed, out.status, feasible))
        elif out.status == FEASIBLE and not validate_schedule(
                out.schedule, inst).ok:
            wrong.append((seed, "schedule fails validation"))
        if c_comsat_solve(inst).status == INFEASIBLE and feasible:
            wrong.append((seed, "relaxed mode refuses a feasible instance"))
    assert not wrong
    assert aborted == set()


def test_relaxed_schedules_are_well_formed_and_keep_windows():
    # Relaxed mode ignores occupancy, so only the capacity kinds may appear,
    # and it refuses only what no schedule at all can serve.
    allowed = {NODE_CAPACITY, EDGE_CAPACITY_DIRECT, EDGE_CAPACITY_OPPOSITE}
    for seed in range(300):
        inst = random_tiny_instance(seed)
        out = c_comsat_solve(inst)
        if out.status == FEASIBLE:
            kinds = {v.kind
                     for v in validate_schedule(out.schedule, inst).violations}
            assert kinds <= allowed, (seed, kinds)
        else:
            assert out.status == INFEASIBLE, (seed, out.reason)
            assert not brute_force_feasible(inst).feasible, seed


# Pinned event sequences and schedules: a change to any search step of the
# solver (decision order, learned clauses, theory conflicts) shows here.
# Re-record them only for a change that means to alter the search.

def _trajectory(out):
    return [(e.phase, e.sat) for e in out.events]


def test_swap_deadlock_trajectory_is_pinned(swap_deadlock):
    out = comsat_solve(swap_deadlock)
    # the router yields no route set whose depot hosts no eligible vehicle;
    # the first path combination is the refused route set, and is skipped
    assert _trajectory(out) == [
        ("router", True), ("assign", True),
        ("capacity", False), ("paths", True),
        ("paths", False), ("assign", False),
        ("router", False)]
    assert out.schedule is None
    assert out.reason.startswith("1 route set(s) tried")


def test_tiny_seed_250_trajectory_is_pinned():
    out = comsat_solve(random_tiny_instance(250))
    # the first route set's only eligible vehicle map fails its timing even
    # without occupancy limits, so the assignment stage yields no map
    assert _trajectory(out) == [
        ("router", True), ("assign", False),
        ("router", True), ("assign", True), ("capacity", True)]
    assert out.paths_changer_calls == 0
    assert [(r.vehicle, r.nodes, r.node_in, r.node_out, r.edge_in)
            for r in out.schedule.routes] == [
        ("v1", (1, 2, 1), (10.0, 11.0, 13.0), (10.0, 12.0, 13.0),
         (10.0, 12.0)),
        ("v2", (6, 1, 3, 4, 3, 1, 6),
         (6.0, 7.0, 8.0, 9.0, 11.0, 12.0, 13.0),
         (6.0, 7.0, 8.0, 10.0, 11.0, 12.0, 13.0),
         (6.0, 7.0, 8.0, 10.0, 11.0, 12.0)),
    ]
