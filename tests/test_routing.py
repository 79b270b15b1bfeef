"""Route construction: minimality, blocking-based enumeration, edge cases."""

from cfevrp.graph import shortest_path, validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
    mutually_exclusive_jobs,
)
from cfevrp.driver import shortest_path_map
from cfevrp.routing import route_sets
from conftest import corridor_graph


def enumerate_route_partitions(inst):
    """Brute-force count of feasible depot-anchored route collections.

    Mirrors the travel-link model's semantics: earliest-arrival replay with
    waiting, a per-route charge budget, and mutual exclusion applied to
    consecutive tasks only.
    """
    g = inst.graph
    fleet = inst.fleet
    mex = mutually_exclusive_jobs(inst)
    tasks = inst.task_ids()
    budget = fleet.operating_range / fleet.charge_to_range * fleet.speed \
        / fleet.discharge_coeff

    def dist(a, b):
        return shortest_path(g, a, b).length

    def route_ok(depot, seq):
        t = 0.0
        length = 0.0
        loc = depot
        prev_service = 0.0
        for i, tid in enumerate(seq):
            task = inst.tasks[tid]
            if i > 0:
                prev = inst.tasks[seq[i - 1]]
                if task.job in mex[prev.job]:
                    return False
            d = dist(loc, task.location)
            length += d
            t = max(t + prev_service + d / fleet.speed, task.window.lower)
            if t > task.window.upper + 1e-9:
                return False
            prev_service = task.service_time
            loc = task.location
        d_back = dist(loc, depot)
        length += d_back
        if t + prev_service + d_back / fleet.speed > fleet.horizon + 1e-9:
            return False
        return length <= budget + 1e-9

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
    count = 0
    for part in ordered_partitions(tasks):
        for depots in product(inst.depots, repeat=len(part)):
            if all(route_ok(o, seq) for o, seq in zip(depots, part)):
                count += 1
    return count


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
    cr = next(route_sets(corridor, sp), None)
    assert cr is not None
    assert len(cr.routes) == 2
    # mutual exclusion keeps j1 apart from j2/j3, so the minimal split is
    # forced; the depot anchors are a tie-break left to the assignment stage
    groups = sorted(sorted(r.tasks) for r in cr.routes)
    assert groups == [["j11"], ["j21", "j31"]]


def test_every_route_starts_and_ends_at_its_depot(corridor):
    sp = shortest_path_map(corridor)
    cr = next(route_sets(corridor, sp), None)
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
    assert next(route_sets(inst, shortest_path_map(inst)), None) is None


def test_blocking_enumerates_all_partitions_then_infeasible():
    inst = three_task_instance()
    expected = enumerate_route_partitions(inst)
    assert expected > 0
    sp = shortest_path_map(inst)
    seen = set()
    for cr in route_sets(inst, sp):
        key = frozenset((r.depot, r.tasks) for r in cr.routes)
        assert key not in seen
        seen.add(key)
        assert len(seen) <= expected
    assert len(seen) == expected


def test_route_counts_never_decrease_during_enumeration():
    inst = three_task_instance()
    sp = shortest_path_map(inst)
    counts = []
    keys = []
    for cr in route_sets(inst, sp):
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
    cr = next(route_sets(inst, shortest_path_map(inst)), None)
    assert cr is not None
    for r in cr.routes:
        idx = [i for i, t in enumerate(r.tasks) if t in ("a1", "a2")]
        if len(idx) == 2:
            assert abs(idx[0] - idx[1]) == 1


def test_zero_job_instance_yields_empty_route_set():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    inst = build_instance(g, [1], FleetParams(10, 1, 1, 1, 1, 10),
                          [Vehicle("v1", 1)], [], [])
    cr = next(route_sets(inst, shortest_path_map(inst)), None)
    assert cr is not None and cr.routes == ()
