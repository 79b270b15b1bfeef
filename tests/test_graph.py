"""Graph validation and shortest paths, cross-checked against Floyd-Warshall."""

import random

import pytest

from cfevrp.errors import (
    BadCapacity, DanglingEdgeEndpoint, NonPositiveLength, NotStronglyConnected,
)
from cfevrp.graph import all_pairs_task_paths, validate_graph
from conftest import corridor_graph, shortest_path


def floyd_warshall(g):
    inf = float("inf")
    nodes = sorted(g.nodes)
    dist = {(a, b): (0.0 if a == b else inf) for a in nodes for b in nodes}
    for (a, b), e in g.edges.items():
        dist[(a, b)] = min(dist[(a, b)], e.length)
    for k in nodes:
        for i in nodes:
            for j in nodes:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


def random_connected_graph(rng, max_nodes=30):
    n = rng.randint(2, max_nodes)
    nodes = list(range(1, n + 1))
    segs = set()
    for b in nodes[1:]:
        segs.add((rng.choice(nodes[:b - 1]), b))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        segs.add((min(a, b), max(a, b)))
    segments = [
        (a, b, float(rng.randint(1, 5)), rng.choice([1, 2]))
        for a, b in sorted(segs)
    ]
    return validate_graph(nodes, [1], segments)


def test_minimal_two_node_graph():
    g = validate_graph([1, 2], [1], [(1, 2, 1.0, 1)])
    assert len(g.edges) == 2  # the reverse direction is synthesized
    assert g.edges[(2, 1)].length == 1.0


def test_corridor_graph_has_14_directed_edges():
    g = corridor_graph()
    assert len(g.edges) == 14
    assert all(e.capacity == 1 for e in g.edges.values())


def test_not_strongly_connected_rejected():
    with pytest.raises(NotStronglyConnected):
        validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1)])


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEdgeEndpoint):
        validate_graph([1, 2], [1], [(1, 3, 1.0, 1)])


def test_bad_capacity_rejected():
    with pytest.raises(BadCapacity):
        validate_graph([1, 2], [1], [(1, 2, 1.0, 3)])


def test_non_positive_length_rejected():
    with pytest.raises(NonPositiveLength):
        validate_graph([1, 2], [1], [(1, 2, 0.0, 1)])


def test_identity_path_is_empty():
    g = corridor_graph()
    p = shortest_path(g, 3, 3)
    assert p.nodes == (3,) and p.length == 0.0


def test_corridor_shortest_paths():
    g = corridor_graph()
    assert shortest_path(g, 6, 2).nodes == (6, 5, 2)
    assert shortest_path(g, 6, 4).nodes == (6, 7, 4)
    assert shortest_path(g, 1, 5).length == 2.0
    assert shortest_path(g, 1, 5).nodes == (1, 2, 5)


def test_all_pairs_map_over_corridor_locations():
    g = corridor_graph()
    cp = all_pairs_task_paths(g, {1, 2, 4, 5, 6})
    assert len(cp) == 25
    assert cp[(1, 5)].length == 2.0
    assert cp[(5, 5)].length == 0.0


def test_dijkstra_matches_floyd_warshall_on_100_graphs():
    rng = random.Random(20260823)
    for _ in range(100):
        g = random_connected_graph(rng)
        oracle = floyd_warshall(g)
        for a in sorted(g.nodes):
            for b in sorted(g.nodes):
                p = shortest_path(g, a, b)
                assert p.length * g.unit == oracle[(a, b)], (a, b)
                assert len(set(p.nodes)) == len(p.nodes)  # simple


def test_triangle_inequality_sampled():
    rng = random.Random(7)
    g = random_connected_graph(rng, max_nodes=12)
    nodes = sorted(g.nodes)
    for _ in range(200):
        a, b, c = rng.choice(nodes), rng.choice(nodes), rng.choice(nodes)
        ab = shortest_path(g, a, b).length
        bc = shortest_path(g, b, c).length
        ac = shortest_path(g, a, c).length
        assert ac <= ab + bc


def test_determinism():
    g1 = corridor_graph()
    g2 = corridor_graph()
    for a in sorted(g1.nodes):
        for b in sorted(g1.nodes):
            assert shortest_path(g1, a, b).nodes == shortest_path(g2, a, b).nodes


def test_adjacency_matches_sort_and_filter():
    rng = random.Random(31)
    for _ in range(50):
        g = random_connected_graph(rng, max_nodes=15)
        for n in sorted(g.nodes) + [max(g.nodes) + 1]:
            assert list(g.out_edges(n)) == [
                g.edges[k] for k in sorted(g.edges) if k[0] == n]
