"""End-to-end solve loop: outcomes, backtracking, event log, relaxed mode."""

from cfevrp.driver import (
    ABORTED, FEASIBLE, INFEASIBLE, Limits, c_comsat_solve, comsat_solve,
    total_distance,
)
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
)
from cfevrp.validator import validate_schedule
from conftest import random_tiny_instance


def test_corridor_solves_and_validates(corridor):
    out = comsat_solve(corridor)
    assert out.status == FEASIBLE
    assert total_distance(out) == 12.0
    assert out.paths_changer_calls > 0
    assert validate_schedule(out.schedule, corridor).ok


def test_forced_route_order_reproduces_detour(corridor):
    out = comsat_solve(
        corridor, force_first_routes=[(1, ["j11"]), (6, ["j21", "j31"])])
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


def test_capacity_bound_instance_diverges(swap_deadlock):
    assert comsat_solve(swap_deadlock).status == INFEASIBLE
    assert c_comsat_solve(swap_deadlock).status == FEASIBLE


def test_zero_path_budget_aborts(corridor):
    out = comsat_solve(corridor, Limits(max_path_sets=0))
    assert out.status == ABORTED
    assert "path set" in out.reason


def test_route_set_limit_aborts(swap_deadlock):
    out = comsat_solve(swap_deadlock, Limits(max_route_sets=1))
    assert out.status == ABORTED


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
    assert [e.phase for e in out.events] == [
        "router", "assign", "capacity", "paths", "routes_check",
        "capacity", "paths", "assign", "router"]
    assert out.reason == (
        "1 route set(s) tried; each ran out of assignments and path changes")


# Pinned event sequences and schedules: a change to any search step of the
# solver (decision order, learned clauses, theory conflicts) shows here.
# Re-record them only for a change that means to alter the search.

def _trajectory(out):
    return [(e.phase, e.sat) for e in out.events]


def test_swap_deadlock_trajectory_is_pinned(swap_deadlock):
    out = comsat_solve(swap_deadlock)
    assert _trajectory(out) == (
        [("router", True), ("assign", False)] * 3
        + [("router", True), ("assign", True),
           ("capacity", False), ("paths", True), ("routes_check", True),
           ("capacity", False), ("paths", False), ("assign", False),
           ("router", False)])
    assert out.schedule is None
    assert out.reason.startswith("4 route set(s) tried")


def test_tiny_seed_250_trajectory_is_pinned():
    out = comsat_solve(random_tiny_instance(250))
    assert _trajectory(out) == (
        [("router", True), ("assign", False)] * 2
        + [("router", True), ("assign", True)]
        + [("capacity", False), ("paths", True), ("routes_check", True)] * 16
        + [("capacity", False), ("paths", False), ("assign", False),
           ("router", True), ("assign", True), ("capacity", True)])
    assert out.paths_changer_calls == 17
    assert [(r.vehicle, r.nodes, r.node_in, r.node_out, r.edge_in)
            for r in out.schedule.routes] == [
        ("v1", (1, 2, 1), (10.0, 11.0, 13.0), (10.0, 12.0, 13.0),
         (10.0, 12.0)),
        ("v2", (6, 1, 3, 4, 3, 1, 6),
         (6.0, 7.0, 8.0, 9.0, 11.0, 12.0, 13.0),
         (6.0, 7.0, 8.0, 10.0, 11.0, 12.0, 13.0),
         (6.0, 7.0, 8.0, 10.0, 11.0, 12.0)),
    ]
