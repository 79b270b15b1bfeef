"""Acceptance battery: one printed pass/fail line per criterion.

Run with `pytest -rP tests/test_acceptance.py` (or `-s`) to see the lines.
Each criterion is a separate test so a failure pinpoints what broke.
"""

import time
from functools import lru_cache

from cfevrp.assignment import assignments
from cfevrp.driver import (
    FEASIBLE, INFEASIBLE, Limits, c_comsat_solve, comsat_solve,
    shortest_path_map, total_distance,
)
from cfevrp.instance import Ticks
from cfevrp.routing import route_sets
from cfevrp.validator import brute_force_feasible, validate_schedule

from conftest import corridor_instance, random_tiny_instance, \
    routes_from_task_orders, shortest_path, swap_deadlock_instance
from test_assignment import brute_force_vehicle_maps, three_vehicle_fixture
from test_driver import solve_from_route_orders
from test_graph import floyd_warshall, random_connected_graph
from test_paths import dfs_simple_paths, enumerate_combinations, route_set
from test_routing import enumerate_route_partitions, three_task_instance


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@lru_cache(maxsize=None)
def _solved_tiny(seed: int):
    inst = random_tiny_instance(seed)
    out = comsat_solve(inst, Limits(max_path_sets=2000))
    return inst, out


def test_criterion_1_reference_instance_solves():
    t0 = time.perf_counter()
    inst = corridor_instance()
    out = comsat_solve(inst)
    elapsed = time.perf_counter() - t0
    ok = (out.status == FEASIBLE
          and total_distance(out) in (10.0, 12.0)
          and validate_schedule(out.schedule, inst).ok
          and elapsed < 10.0)
    _report(1, "reference instance feasible, total in {10, 12}, "
               f"validated, {elapsed:.2f}s", ok)


def test_criterion_2_detour_witness():
    inst = corridor_instance()
    out = solve_from_route_orders(inst, [(1, ["j11"]), (6, ["j21", "j31"])])
    v2 = next(r for r in out.schedule.routes if r.vehicle == "v2")
    ok = (out.status == FEASIBLE
          and out.paths_changer_calls > 0
          and v2.length == 8.0
          and total_distance(out) == 12.0
          and total_distance(out) > 10.0)
    _report(2, "forced route order triggers the path changer and yields the "
               "length-8 detour route (total 12 > shortest-path 10)", ok)


def test_criterion_3_oracle_agreement():
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(50):
        inst, out = _solved_tiny(seed)
        verdict = brute_force_feasible(inst)
        if out.status not in (FEASIBLE, INFEASIBLE):
            mismatches.append((seed, "aborted"))
        elif (out.status == FEASIBLE) != verdict.feasible:
            mismatches.append((seed, out.status, verdict.feasible))
        elif out.status == FEASIBLE \
                and not validate_schedule(out.schedule, inst).ok:
            mismatches.append((seed, "witness failed validation"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 600.0
    _report(3, "solver agrees with the brute-force oracle on 50 random tiny "
               f"instances ({elapsed:.1f}s, mismatches: {mismatches})", ok)


def test_criterion_4_exhaustive_enumeration():
    # route collections: blocking enumerates exactly the brute-force count
    inst_r = three_task_instance()
    expected_r = enumerate_route_partitions(inst_r)
    sp = shortest_path_map(inst_r)
    seen_r = 0
    for _cr in route_sets(inst_r, sp, Ticks(inst_r)):
        seen_r += 1
        assert seen_r <= expected_r
    # vehicle maps: same, against the permutation oracle
    inst_a = three_vehicle_fixture()
    cr_a = routes_from_task_orders(inst_a, shortest_path_map(inst_a),
                                   [(1, ["t1"]), (1, ["t2"])])
    expected_a = set(brute_force_vehicle_maps(cr_a, inst_a))
    seen_a = set()
    for ca in assignments(cr_a, inst_a):
        seen_a.add(ca.vehicle_of)
    # path combinations: product of simple-path counts per leg
    inst_p = corridor_instance()
    g = inst_p.graph
    cr_p = route_set(inst_p, 6, ["j21", "j31"])
    expected_p = (len(dfs_simple_paths(g, 6, 2))
                  * len(dfs_simple_paths(g, 2, 4))
                  * len(dfs_simple_paths(g, 4, 6)))
    seen_p = enumerate_combinations(inst_p, cr_p)
    ok = (seen_r == expected_r and seen_a == expected_a
          and seen_p == expected_p)
    _report(4, "blocking loops enumerate exactly the brute-force sets "
               f"(routes {seen_r}/{expected_r}, maps {len(seen_a)}/"
               f"{len(expected_a)}, paths {seen_p}/{expected_p})", ok)


def test_criterion_5_shortest_paths_exact():
    import random
    rng = random.Random(20240817)
    checked = 0
    ok = True
    for _ in range(100):
        g = random_connected_graph(rng)
        dist = floyd_warshall(g)
        for a in g.nodes:
            for b in g.nodes:
                p = shortest_path(g, a, b)
                if p.length * g.unit != dist[(a, b)]:
                    ok = False
                checked += 1
    _report(5, "shortest paths match an independent all-pairs computation "
               f"on 100 random graphs ({checked} pairs, exact equality)", ok)


def test_criterion_6_relaxation_ordering():
    violations = []
    for seed in range(30):
        inst, out = _solved_tiny(seed)
        if out.status == FEASIBLE:
            relaxed = c_comsat_solve(
                inst, Limits(max_path_sets=2000))
            if relaxed.status != FEASIBLE:
                violations.append(seed)
            elif total_distance(relaxed) > total_distance(out):
                violations.append((seed, "relaxed total above strict total"))
    deadlock = swap_deadlock_instance()
    diverges = (comsat_solve(deadlock).status == INFEASIBLE
                and c_comsat_solve(deadlock).status == FEASIBLE)
    ok = not violations and diverges
    _report(6, "relaxed mode solves everything the strict mode solves, at "
               "no greater cost, and accepts the swap-deadlock instance the "
               f"strict mode rejects (violations: {violations})", ok)


def test_criterion_7_optimal_when_no_rerouting():
    checked, wrong = 0, []
    for seed in range(50):
        inst, out = _solved_tiny(seed)
        if out.status == FEASIBLE and out.paths_changer_calls == 0:
            verdict = brute_force_feasible(inst)
            checked += 1
            if total_distance(out) != verdict.best_total_distance:
                wrong.append((seed, total_distance(out),
                              verdict.best_total_distance))
    ok = checked >= 10 and not wrong
    _report(7, "when no path change is needed the solver's total equals the "
               f"oracle minimum exactly ({checked} instances checked, "
               f"mismatches: {wrong})", ok)


def test_criterion_8_validator_fault_injection():
    from cfevrp.errors import MalformedSchedule
    from test_validator import mutations
    cases = list(mutations())
    caught = 0
    for label, inst, bad, expected in cases:
        if expected is MalformedSchedule:
            try:
                validate_schedule(bad, inst)
            except MalformedSchedule:
                caught += 1
        else:
            report = validate_schedule(bad, inst)
            if not report.ok and expected in {v.kind for v in report.violations}:
                caught += 1
    ok = len(cases) >= 20 and caught == len(cases)
    _report(8, f"validator rejects {caught}/{len(cases)} fault injections "
               "with the expected violation kind", ok)
