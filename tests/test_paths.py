"""Alternative path synthesis: minimality and exhaustive enumeration."""

import gc
import itertools
import random
import sys
import weakref

from cfevrp import solver as S
from cfevrp.driver import comsat_solve, shortest_path_map, solve_paths_changing
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Ticks, Vehicle, build_instance,
)
from cfevrp.pathschanger import path_sets, simple_paths
from cfevrp.routing import Route, RouteSet
from conftest import corridor_instance, random_tiny_instance
from test_graph import random_connected_graph


def dfs_simple_paths(g, src, dst):
    """Independent enumeration of all simple src->dst paths."""
    if src == dst:
        return [(src,)]
    found = []

    def walk(seq):
        if seq[-1] == dst:
            found.append(tuple(seq))
            return
        for (a, b) in sorted(g.edges):
            if a == seq[-1] and b not in seq:
                seq.append(b)
                walk(seq)
                seq.pop()

    walk([src])
    return found


def route_set(inst, depot, tasks):
    sp = shortest_path_map(inst)
    locs = [depot] + [inst.tasks[t].location for t in tasks] + [depot]
    legs = tuple(sp[(a, b)] for a, b in zip(locs, locs[1:]))
    return RouteSet((Route(depot, tuple(tasks), legs),), Ticks(inst))


def test_two_node_graph_single_leg():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 2, TimeWindow(0, 10), 0.0)])
    cr = route_set(inst, 1, ["t1"])
    np = solve_paths_changing(path_sets(cr, inst))
    assert np is not None
    assert np.routes[0].legs[0].nodes == (1, 2)
    assert np.routes[0].legs[1].nodes == (2, 1)


def test_first_solution_uses_shortest_paths():
    inst = corridor_instance()
    cr = route_set(inst, 1, ["j11"])
    np = solve_paths_changing(path_sets(cr, inst))
    assert np is not None
    # minimal used-node count: both legs on the two-edge corridor paths
    assert np.routes[0].legs[0].length == 2.0
    assert np.routes[0].legs[1].length == 2.0


def test_blocked_shortest_leg_takes_the_detour():
    inst = corridor_instance()
    cr = route_set(inst, 6, ["j21"])  # leg 6 -> 2 and back
    changer = path_sets(cr, inst)
    seen_detour = False
    while True:
        np = solve_paths_changing(changer)
        if np is None:
            break
        if np.routes[0].legs[0].nodes == (6, 7, 4, 3, 2):
            seen_detour = True
    assert seen_detour


def enumerate_combinations(inst, cr):
    count = 0
    changer = path_sets(cr, inst)
    seen = set()
    while True:
        np = solve_paths_changing(changer)
        if np is None:
            break
        assert [(r.depot, r.tasks) for r in np.routes] == [
            (r.depot, r.tasks) for r in cr.routes]
        combo = tuple(tuple(p.nodes for p in route.legs)
                      for route in np.routes)
        assert combo not in seen
        seen.add(combo)
        count += 1
        assert count < 1000
    return count


def test_enumeration_count_single_task_route():
    inst = corridor_instance()
    g = inst.graph
    cr = route_set(inst, 1, ["j11"])
    expected = len(dfs_simple_paths(g, 1, 5)) * len(dfs_simple_paths(g, 5, 1))
    assert expected == 4
    assert enumerate_combinations(inst, cr) == expected


def test_enumeration_count_two_task_route():
    inst = corridor_instance()
    g = inst.graph
    cr = route_set(inst, 6, ["j21", "j31"])  # legs 6->2, 2->4, 4->6
    expected = (
        len(dfs_simple_paths(g, 6, 2))
        * len(dfs_simple_paths(g, 2, 4))
        * len(dfs_simple_paths(g, 4, 6))
    )
    assert expected == 8
    assert enumerate_combinations(inst, cr) == expected


def test_enumeration_count_multi_route():
    inst = corridor_instance()
    g = inst.graph
    sp = shortest_path_map(inst)
    r1 = Route(1, ("j11",), (sp[(1, 5)], sp[(5, 1)]))
    r2 = Route(6, ("j31",), (sp[(6, 4)], sp[(4, 6)]))
    cr = RouteSet((r1, r2), Ticks(inst))
    expected = (
        len(dfs_simple_paths(g, 1, 5)) * len(dfs_simple_paths(g, 5, 1))
        * len(dfs_simple_paths(g, 6, 4)) * len(dfs_simple_paths(g, 4, 6))
    )
    assert enumerate_combinations(inst, cr) == expected


def test_degenerate_leg_has_exactly_one_combination():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    fleet = FleetParams(10, 1, 1, 1, 1, 10)
    inst = build_instance(
        g, [1], fleet, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 1, TimeWindow(0, 10), 0.0)])  # task at the depot
    cr = route_set(inst, 1, ["t1"])
    changer = path_sets(cr, inst)
    np = solve_paths_changing(changer)
    assert np is not None
    assert np.routes[0].legs[0].nodes == (1,)
    assert np.routes[0].legs[1].nodes == (1,)
    assert solve_paths_changing(changer) is None


def test_every_decoded_path_is_simple_and_connects():
    inst = corridor_instance()
    cr = route_set(inst, 6, ["j21", "j31"])
    changer = path_sets(cr, inst)
    while True:
        np = solve_paths_changing(changer)
        if np is None:
            break
        locs = cr.routes[0].locations(inst)
        for i, (a, b) in enumerate(zip(locs, locs[1:])):
            p = np.routes[0].legs[i]
            assert p.nodes[0] == a and p.nodes[-1] == b
            assert len(set(p.nodes)) == len(p.nodes)


def _random_plant(seed, n_routes, max_nodes):
    """A random connected plant with depot 1 and one single-task route per
    random task location (a location may be the depot itself)."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_nodes=max_nodes)
    locs = [rng.choice(sorted(g.nodes)) for _ in range(n_routes)]
    inst = build_instance(
        g, [1], FleetParams(100, 1, 1, 1, 1, 100), [Vehicle("v1", 1)],
        [Job(f"j{k}", (f"t{k}",), frozenset({"v1"})) for k in range(n_routes)],
        [Task(f"t{k}", f"j{k}", x, TimeWindow(0, 100), 0.0)
         for k, x in enumerate(locs)])
    sp = shortest_path_map(inst)
    routes = tuple(Route(1, (f"t{k}",), (sp[(1, x)], sp[(x, 1)]))
                   for k, x in enumerate(locs))
    return inst, RouteSet(routes, Ticks(inst))


def test_changer_lists_every_combination_in_node_count_order():
    nontrivial = 0
    for n_routes, max_nodes in ((1, 6), (2, 5)):
        for seed in range(12):
            inst, cr = _random_plant(seed, n_routes, max_nodes)
            per_leg = [
                dfs_simple_paths(inst.graph, a, b)
                for route in cr.routes
                for a, b in zip(route.locations(inst),
                                route.locations(inst)[1:])
            ]
            expected = list(itertools.product(*per_leg))
            changer = path_sets(cr, inst)
            got = []
            while (np := solve_paths_changing(changer)) is not None:
                got.append(tuple(np.routes[r].legs[i].nodes
                                 for r, route in enumerate(cr.routes)
                                 for i in range(len(route.legs))))
                assert len(got) <= len(expected)
            assert len(got) == len(expected)
            assert len(set(got)) == len(got)
            assert set(got) == set(expected)
            assert [sum(map(len, c)) for c in got] == sorted(
                sum(map(len, c)) for c in expected)
            nontrivial += len(expected) > 1
    assert nontrivial >= 12


def test_leg_paths_come_in_node_count_then_sequence_order():
    nontrivial = 0
    for seed in range(40):
        inst, cr = _random_plant(seed, 2, 8)
        for route in cr.routes:
            locs = route.locations(inst)
            for a, b in zip(locs, locs[1:]):
                expected = sorted(dfs_simple_paths(inst.graph, a, b),
                                  key=lambda s: (len(s), s))
                assert list(simple_paths(inst.graph, a, b)) == expected
                nontrivial += len(expected) > 2

        def combinations():
            return [tuple(tuple(p.nodes for p in route.legs)
                          for route in np.routes)
                    for np in itertools.islice(path_sets(cr, inst), 200)]

        assert combinations() == combinations()
    assert nontrivial >= 20


def _count_contexts(monkeypatch):
    """Weak references to every solver Context made from now on, by the
    module that made it."""
    made = {}

    class Counted(S.Context):
        def __init__(self):
            super().__init__()
            module = sys._getframe(1).f_globals["__name__"]
            made.setdefault(module, []).append(weakref.ref(self))

    monkeypatch.setattr(S, "Context", Counted)
    return made


def test_changer_builds_no_solver_context(monkeypatch):
    # random_tiny_instance(47) makes 68 path changer calls in one solve.
    made = _count_contexts(monkeypatch)
    out = comsat_solve(random_tiny_instance(47))
    assert out.paths_changer_calls == 68
    assert "cfevrp.pathschanger" not in made


def test_router_and_assignment_keep_one_model_per_input_and_free_them(
        monkeypatch):
    # random_tiny_instance(250) tries 2 route sets in one solve (see the
    # trajectory pin in test_driver.py).
    made = _count_contexts(monkeypatch)
    inst = random_tiny_instance(250)
    gc.disable()
    try:
        out = comsat_solve(inst)
        assert sum(e.phase == "router" for e in out.events) == 2
        assert len(made["cfevrp.routing"]) == 1
        assert len(made["cfevrp.assignment"]) == 2
        assert all(ref() is None for refs in made.values() for ref in refs)
    finally:
        gc.enable()
