"""Independent schedule validation and the brute-force oracle.

The fault-injection battery mutates known-good schedules in twenty-one
ways and checks each one is rejected with the right violation kind (or as
structurally malformed).
"""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from cfevrp.assignment import assignments
from cfevrp.capacity import Schedule, verify_capacity
from cfevrp.driver import comsat_solve, shortest_path_map
from cfevrp.errors import MalformedSchedule, TooLarge
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Ticks, Vehicle, build_instance,
)
from cfevrp.routing import Route, RouteSet
from cfevrp.validator import (
    CHARGING_GAP, EDGE_CAPACITY_DIRECT, EDGE_CAPACITY_OPPOSITE, ELIGIBILITY,
    HORIZON, JOB_CONTIGUITY, NODE_CAPACITY, OPERATING_RANGE, PRECEDENCE,
    TIME_WINDOW,
    _Potential, _ticks, brute_force_feasible, validate_schedule,
)
from conftest import corridor_instance, swap_deadlock_instance


# --- fixture schedules ------------------------------------------------------

def _manual_schedule(inst, orders):
    sp = shortest_path_map(inst)
    routes = []
    for depot, tasks in orders:
        locs = [depot] + [inst.tasks[t].location for t in tasks] + [depot]
        legs = tuple(sp[(a, b)] for a, b in zip(locs, locs[1:]))
        routes.append(Route(depot, tuple(tasks), legs))
    cr = RouteSet(tuple(routes), Ticks(inst))
    ca = next(assignments(cr, inst), None)
    assert ca is not None
    cvs, _ = verify_capacity(ca, cr, inst)
    assert cvs is not None
    return cvs


def corridor_case():
    inst = corridor_instance()
    out = comsat_solve(inst)
    assert out.status == "feasible"
    return inst, out.schedule


def tandem_case():
    """One vehicle runs two routes back to back (charging gap in between)."""
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(20, 1, 1, 1, 1, 30)
    tasks = [Task("a1", "a", 2, TimeWindow(0, 30), 0.0),
             Task("b1", "b", 3, TimeWindow(0, 30), 0.0)]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v1"}))]
    inst = build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)
    return inst, _manual_schedule(inst, [(1, ["a1"]), (1, ["b1"])])


def crossing_case():
    """Two vehicles traverse a 3-node line head-on, serialized."""
    g = validate_graph([1, 2, 3], [1, 3], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 12)
    tasks = [Task("a1", "a", 3, TimeWindow(0, 10), 0.0),
             Task("b1", "b", 1, TimeWindow(0, 10), 0.0)]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v2"}))]
    inst = build_instance(g, [1, 3], fleet,
                          [Vehicle("v1", 1), Vehicle("v2", 3)], jobs, tasks)
    return inst, _manual_schedule(inst, [(1, ["a1"]), (3, ["b1"])])


def precedence_case():
    """One job with two ordered zero-service tasks along a line."""
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(20, 1, 1, 1, 1, 30)
    tasks = [Task("p1", "p", 2, TimeWindow(0, 30), 0.0),
             Task("p2", "p", 3, TimeWindow(0, 30), 0.0,
                  frozenset({"p1"}))]
    jobs = [Job("p", ("p1", "p2"), frozenset({"v1"}))]
    inst = build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)
    return inst, _manual_schedule(inst, [(1, ["p1", "p2"])])


def contiguity_case():
    """Two jobs on one route; job 'a' has two tasks around job 'b'."""
    g = validate_graph([1, 2, 3, 4], [1],
                       [(1, 2, 1.0, 1), (2, 3, 1.0, 1), (3, 4, 1.0, 1)])
    fleet = FleetParams(20, 1, 1, 1, 1, 30)
    tasks = [Task("a1", "a", 2, TimeWindow(0, 30), 0.0),
             Task("a2", "a", 3, TimeWindow(0, 30), 0.0),
             Task("b1", "b", 4, TimeWindow(0, 30), 0.0)]
    jobs = [Job("a", ("a1", "a2"), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v1"}))]
    inst = build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)
    return inst, _manual_schedule(inst, [(1, ["a1", "a2", "b1"])])


# --- mutation helpers -------------------------------------------------------

def shift_route(cvs: Schedule, idx: int, delta: float) -> Schedule:
    routes = list(cvs.routes)
    r = routes[idx]
    routes[idx] = dataclasses.replace(
        r,
        node_in=tuple(t + delta for t in r.node_in),
        node_out=tuple(t + delta for t in r.node_out),
        edge_in=tuple(t + delta for t in r.edge_in),
        start=r.start + delta,
    )
    return Schedule(tuple(routes))


def patch(cvs: Schedule, idx: int, **fields) -> Schedule:
    routes = list(cvs.routes)
    routes[idx] = dataclasses.replace(routes[idx], **fields)
    return Schedule(tuple(routes))


def _v1_index(cvs):
    return next(i for i, r in enumerate(cvs.routes) if r.vehicle == "v1")


def _later_index(cvs):
    return max(range(len(cvs.routes)), key=lambda i: cvs.routes[i].node_in[0])


# --- the twenty-one injections -----------------------------------------------

def mutations():
    """Yields (label, instance, broken schedule, expectation)."""
    inst, good = corridor_case()
    i1 = _v1_index(good)
    i2 = 1 - i1
    yield ("shifted start late", inst, shift_route(good, i1, 0.5), TIME_WINDOW)
    yield ("shifted start early", inst, shift_route(good, i1, -1.5), TIME_WINDOW)
    yield ("other route shifted past its windows", inst,
           shift_route(good, i2, 10.0), TIME_WINDOW)
    swapped = patch(patch(good, i1, vehicle=good.routes[i2].vehicle),
                    i2, vehicle=good.routes[i1].vehicle)
    yield ("vehicles swapped", inst, swapped, ELIGIBILITY)
    yield ("ineligible vehicle on one route", inst,
           patch(good, i1, vehicle=good.routes[i2].vehicle), ELIGIBILITY)
    yield ("route length beyond the charge budget", inst,
           patch(good, i2, length=11.0), OPERATING_RANGE)
    yield ("route length just over the budget", inst,
           patch(good, i1, length=10.5), OPERATING_RANGE)

    t_inst, t_good = tandem_case()
    late = _later_index(t_good)
    first = 1 - late
    gap_start = t_good.routes[late].node_in[0]
    prev_end = t_good.routes[first].node_out[-1]
    required = t_inst.fleet.charge_coeff * t_good.routes[late].length
    yield ("charging gap shaved", t_inst,
           shift_route(t_good, late,
                       prev_end + required / 2 - gap_start), CHARGING_GAP)
    yield ("charging gap removed entirely", t_inst,
           shift_route(t_good, late, -(gap_start - prev_end)), CHARGING_GAP)
    yield ("same-direction edge shared within a time unit", t_inst,
           shift_route(t_good, late,
                       -(gap_start - t_good.routes[first].node_in[0]) - 0.5),
           EDGE_CAPACITY_DIRECT)
    # the task's window reaches T, so only the return comes too late
    yield ("route back half a unit past the horizon", t_inst,
           shift_route(t_good, late, t_inst.fleet.horizon + Fraction(1, 2)
                       - t_good.routes[late].node_out[-1]), HORIZON)

    c_inst, c_good = crossing_case()
    c_late = _later_index(c_good)
    c_first = 1 - c_late
    # both vehicles reach the middle node (index 1 on both routes) at once
    align = c_good.routes[c_first].node_in[1] - c_good.routes[c_late].node_in[1]
    yield ("head-on meeting at the middle node", c_inst,
           shift_route(c_good, c_late, align), NODE_CAPACITY)
    # overlap the opposite traversals of one segment by half its length
    y_first = c_good.routes[c_first].edge_in[1]   # enters (2,3)
    y_late = c_good.routes[c_late].edge_in[0]     # enters (3,2)
    yield ("opposite traversals overlap", c_inst,
           shift_route(c_good, c_late, y_first - y_late + 0.5),
           EDGE_CAPACITY_OPPOSITE)

    p_inst, _ = precedence_case()
    yield ("predecessor served after its successor", p_inst,
           _reversed_line_schedule(p_inst), PRECEDENCE)

    k_inst, k_good = contiguity_case()
    yield ("job interleaved in the task order", k_inst,
           patch(k_good, 0, tasks=("a1", "b1", "a2")), JOB_CONTIGUITY)
    yield ("job split across routes", k_inst,
           _split_job_schedule(k_inst), JOB_CONTIGUITY)

    yield ("legs swapped mid-route", inst,
           patch(good, i1, edges=tuple(reversed(good.routes[i1].edges))),
           MalformedSchedule)
    tampered = list(good.routes[i1].edge_in)
    tampered[0] += 0.25
    yield ("transit time tampered", inst,
           patch(good, i1, edge_in=tuple(tampered)), MalformedSchedule)
    dropped = [list(ts) for ts in good.routes[i1].position_tasks]
    for ts in dropped:
        ts.clear()
    yield ("task dropped from the schedule", inst,
           patch(good, i1, position_tasks=tuple(map(tuple, dropped))),
           MalformedSchedule)
    doubled = [list(ts) for ts in good.routes[i2].position_tasks]
    served = [p for p, ts in enumerate(doubled) if ts]
    doubled[served[0]].append(doubled[served[0]][0])
    yield ("task served twice", inst,
           patch(good, i2, position_tasks=tuple(map(tuple, doubled))),
           MalformedSchedule)
    yield ("departure before arrival", inst,
           patch(good, i1,
                 node_out=tuple(t - 0.5 for t in good.routes[i1].node_out)),
           MalformedSchedule)


def _reversed_line_schedule(inst):
    """Serve p2 before p1 by visiting node 3 first: 1,2,3,2,1 with the
    task labels attached to the later node-2 visit."""
    return _manual_schedule(inst, [(1, ["p2", "p1"])])


def _split_job_schedule(inst):
    return _manual_schedule(inst, [(1, ["a1", "b1"]), (1, ["a2"])])


def test_fault_injection_battery():
    cases = list(mutations())
    assert len(cases) == 21
    for label, inst, bad, expected in cases:
        if expected is MalformedSchedule:
            with pytest.raises(MalformedSchedule):
                validate_schedule(bad, inst)
        else:
            report = validate_schedule(bad, inst)
            kinds = {v.kind for v in report.violations}
            assert not report.ok, label
            assert expected in kinds, (label, kinds)


def test_good_schedules_validate():
    for case in (corridor_case, tandem_case, crossing_case,
                 precedence_case, contiguity_case):
        inst, cvs = case()
        report = validate_schedule(cvs, inst)
        assert report.ok, (case.__name__, report.violations)


def test_exact_window_bounds_are_ok():
    inst, cvs = corridor_case()
    i1 = _v1_index(cvs)
    served = next(p for p, ts in enumerate(cvs.routes[i1].position_tasks)
                  if ts)
    assert cvs.routes[i1].node_in[served] == 2.0  # window is [2, 2]
    assert validate_schedule(cvs, inst).ok


def test_opposite_traversals_are_timed_at_fleet_speed():
    # segments of length 4 at speed 2 take 2 time units each way
    g = validate_graph([1, 2, 3], [1, 3], [(1, 2, 4.0, 1), (2, 3, 4.0, 1)])
    fleet = FleetParams(20, 1, 1, 1, 2, 20)
    tasks = [Task("a1", "a", 3, TimeWindow(0, 20), 0.0),
             Task("b1", "b", 1, TimeWindow(0, 20), 0.0)]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v2"}))]
    inst = build_instance(g, [1, 3], fleet,
                          [Vehicle("v1", 1), Vehicle("v2", 3)], jobs, tasks)
    out = comsat_solve(inst)
    assert out.status == "feasible"
    report = validate_schedule(out.schedule, inst)
    assert EDGE_CAPACITY_OPPOSITE not in {v.kind for v in report.violations}
    assert report.ok, report.violations


# --- brute-force oracle -----------------------------------------------------

def test_oracle_guard_rejects_large_instances():
    from cfevrp.generator import GenParams, generate_instance
    inst = generate_instance(3, GenParams(nodes=15, vehicles=2, jobs=2,
                                          horizon=20))
    with pytest.raises(TooLarge):
        brute_force_feasible(inst)


def test_oracle_window_impossible_task():
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 3, TimeWindow(0, 1), 0.0)])
    assert not brute_force_feasible(inst).feasible


def test_oracle_zero_jobs_feasible():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    inst = build_instance(g, [1], FleetParams(10, 1, 1, 1, 1, 10),
                          [Vehicle("v1", 1)], [], [])
    verdict = brute_force_feasible(inst)
    assert verdict.feasible and verdict.best_total_distance == 0.0


def test_oracle_minimum_on_corridor():
    verdict = brute_force_feasible(corridor_instance())
    assert verdict.feasible
    # with everyone on shortest paths the corridor deadlocks in either task
    # order, so the true minimum needs the length-4 detour: 4 + 8 = 12
    assert verdict.best_total_distance == 12.0


def test_oracle_pins_on_the_fixtures():
    # verdicts, minima and search counts of the Fraction Bellman-Ford oracle
    # this one replaced; the incremental check visits the same search nodes
    for inst, expected in ((corridor_instance(), (True, 12.0, 128, 1054)),
                           (swap_deadlock_instance(), (False, None, 1, 3))):
        v = brute_force_feasible(inst)
        assert (v.feasible, v.best_total_distance,
                v.stats.candidates, v.stats.timing_checks) == expected


def _fractional_gap_instance(T):
    """One vehicle serves a star's two leaves on separate routes (one route
    for both is out of range), so the charging gap 0.7*len decides T."""
    g = validate_graph([1, 2, 3], [1], [(1, 2, 0.5, 1), (1, 3, 0.75, 1)])
    fleet = FleetParams(1.0, 0.7, 1, 1, 2, T)
    tasks = [Task("a1", "a", 2, TimeWindow(0, T), 0.5),
             Task("b1", "b", 3, TimeWindow(0.25, T), 0.0)]
    jobs = [Job("a", ("a1",), frozenset({"v1"})),
            Job("b", ("b1",), frozenset({"v1"}))]
    return build_instance(g, [1], fleet, [Vehicle("v1", 1)], jobs, tasks)


def test_oracle_exact_on_fractional_charging_gap():
    # route 1-3-1 (0.75 time units), charge 0.7*1.0, route 1-2-1 with 0.5
    # service (1.0): done at 2.45 (a hair less, as Fraction(0.7) < 0.7)
    for T, expected in ((2.45, (True, 2.5, 3, 2)), (2.449, (False, None, 3, 3))):
        v = brute_force_feasible(_fractional_gap_instance(T))
        assert (v.feasible, v.best_total_distance,
                v.stats.candidates, v.stats.timing_checks) == expected, T


def _reference_feasible(n, edges):
    """From-scratch Fraction Bellman-Ford: True iff no negative cycle."""
    dist = [Fraction(0)] * n
    for _ in range(n + 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False


def test_potential_matches_fraction_bellman_ford():
    rng = random.Random(2006)
    cycles = tight = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        pool = [Fraction(rng.randint(-6, 6), rng.choice((1, 3, 7)))
                for _ in range(6)]
        pool += [Fraction(0.7), -Fraction(0.7), 3 * Fraction(0.7)]
        scale = lcm(21, *(w.denominator for w in pool))
        system = _Potential(n)
        edges: list[tuple[int, int, Fraction]] = []  # as pushed, in order
        for _ in range(rng.randint(5, 30)):
            if edges and rng.random() < 0.2:
                system.pop()
                edges.pop()
            else:
                if edges and rng.random() < 0.3:
                    # close a two-cycle on an edge: zero weight or negative
                    a, b, w = rng.choice(edges)
                    u, v = b, a
                    w = -w - rng.choice((0, 0, Fraction(1, 7), Fraction(1, 3)))
                else:
                    u, v = rng.sample(range(n), 2)
                    w = rng.choice(pool)
                edges.append((u, v, w))
                ok = system.push(u, v, _ticks(w, scale))
                assert ok == _reference_feasible(n, edges), edges
                if not ok:
                    # backtrack out of the negative cycle and go on
                    cycles += 1
                    system.pop()
                    edges.pop()
                tight += ok and any(
                    (b, a, -w) in edges for a, b, w in edges)
            # the potential solves every edge still in the system
            for u, v, w in edges:
                assert system.pot[v] - system.pot[u] <= _ticks(w, scale)
    assert cycles > 100 and tight > 100, (cycles, tight)
