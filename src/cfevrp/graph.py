"""Plant layout graph: validation, deterministic shortest paths, path arithmetic.

The plant is a strongly connected directed graph.  Every road segment is
stored as a pair of directed edges with equal length and capacity; edge
capacity is 1 or 2 and hub nodes may host any number of vehicles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BadCapacity, DanglingEdgeEndpoint, NonPositiveLength, NotStronglyConnected

NodeId = int


def exact(x: int | float | Fraction) -> Fraction:
    """The exact value of an instance number.

    A float is read from its shortest decimal text, so 0.7 is 7/10 whether
    it came from JSON, the generator or a literal; ints and Fractions are
    taken as they are.  Raises ValueError for inf and nan.
    """
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x} is not a finite number")
        return Fraction(repr(x))
    return Fraction(x)


@dataclass(frozen=True)
class Edge:
    src: NodeId
    dst: NodeId
    length: Fraction
    capacity: int


@dataclass(frozen=True)
class Path:
    """A simple directed path, stored as its node sequence, and its length
    as a whole number of its graph's `unit`.

    The empty path (a single node, no edges) has length 0.
    """

    nodes: tuple[NodeId, ...]
    length: int

    def __post_init__(self) -> None:
        assert len(self.nodes) >= 1
        assert len(set(self.nodes)) == len(self.nodes), "path revisits a node"

    @property
    def src(self) -> NodeId:
        return self.nodes[0]

    @property
    def dst(self) -> NodeId:
        return self.nodes[-1]

    @property
    def edge_keys(self) -> tuple[tuple[NodeId, NodeId], ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))


@dataclass(frozen=True)
class PlantGraph:
    nodes: frozenset[NodeId]
    hubs: frozenset[NodeId]
    edges: dict[tuple[NodeId, NodeId], Edge] = field(hash=False)

    # Out-edges per node, in (src, dst) key order.  Built in
    # __post_init__, not cached on first use: adding a key to a built
    # instance's __dict__ makes every later attribute read on it slower,
    # and the oracle reads g.edges in its inner loops.
    _out: dict[NodeId, tuple[Edge, ...]] = field(init=False, repr=False, compare=False)
    # `unit` is the longest length that divides every edge's, and units[key]
    # an edge's length in units.  _steps is Dijkstra's view: per node its
    # out-edges as (dst, units), in the order of _out.
    unit: Fraction = field(init=False, repr=False, compare=False)
    units: dict[tuple[NodeId, NodeId], int] = field(
        init=False, repr=False, compare=False)
    _steps: dict[NodeId, tuple[tuple[NodeId, int], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        outs: dict[NodeId, list[Edge]] = {}
        for key in sorted(self.edges):
            e = self.edges[key]
            outs.setdefault(e.src, []).append(e)
        object.__setattr__(self, "_out", {n: tuple(es) for n, es in outs.items()})
        lengths = [e.length for e in self.edges.values()]
        num = math.gcd(*(x.numerator for x in lengths)) or 1  # 1: no edge
        den = math.lcm(*(x.denominator for x in lengths))
        units = {k: e.length.numerator * den // e.length.denominator // num
                 for k, e in self.edges.items()}
        object.__setattr__(self, "unit", Fraction(num, den))
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "_steps", {
            n: tuple((e.dst, units[(n, e.dst)]) for e in es)
            for n, es in self._out.items()})

    def out_edges(self, n: NodeId) -> tuple[Edge, ...]:
        return self._out.get(n, ())

    def path_between(self, nodes: tuple[NodeId, ...]) -> Path:
        """Build a Path from an explicit node sequence, summing edge lengths."""
        total = 0
        for key in zip(nodes, nodes[1:]):
            if key not in self.units:
                raise DanglingEdgeEndpoint(f"no edge {key[0]}->{key[1]}")
            total += self.units[key]
        return Path(tuple(nodes), total)


def validate_graph(
    nodes: list[NodeId],
    hubs: list[NodeId],
    segments: list[tuple[NodeId, NodeId, float, int]],
) -> PlantGraph:
    """Build a PlantGraph from an undirected segment list.

    Each segment (a, b, length, capacity) yields the directed edges a->b and
    b->a with equal length and capacity; the length is stored `exact`.
    Raises if capacities fall outside {1, 2}, lengths are not positive and
    finite, endpoints are unknown, or the resulting digraph is not strongly
    connected.
    """
    node_set = frozenset(nodes)
    hub_set = frozenset(hubs)
    if not hub_set <= node_set:
        raise DanglingEdgeEndpoint(f"hub nodes {sorted(hub_set - node_set)} not in node set")
    edges: dict[tuple[NodeId, NodeId], Edge] = {}
    for a, b, length, capacity in segments:
        if a not in node_set or b not in node_set:
            raise DanglingEdgeEndpoint(f"segment ({a},{b}) references an unknown node")
        if a == b:
            raise DanglingEdgeEndpoint(f"segment ({a},{b}) is a self-loop")
        try:
            exact_length = exact(length)
        except ValueError as exc:
            raise NonPositiveLength(f"segment ({a},{b}) has length {length}") from exc
        if exact_length <= 0:
            raise NonPositiveLength(f"segment ({a},{b}) has length {length}")
        if capacity not in (1, 2):
            raise BadCapacity(f"segment ({a},{b}) has capacity {capacity}")
        edges[(a, b)] = Edge(a, b, exact_length, capacity)
        edges[(b, a)] = Edge(b, a, exact_length, capacity)
    g = PlantGraph(node_set, hub_set, edges)
    _check_strongly_connected(g)
    return g


def _check_strongly_connected(g: PlantGraph) -> None:
    """One search from the least node: every segment is stored both ways,
    so a node that it reaches also reaches it back."""
    if not g.nodes:
        raise NotStronglyConnected("empty node set")
    start = min(g.nodes)
    seen = {start}
    stack = [start]
    while stack:
        for e in g.out_edges(stack.pop()):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    if seen != g.nodes:
        missing = sorted(g.nodes - seen)
        raise NotStronglyConnected(f"nodes {missing} not mutually reachable")


def single_source_paths(g: PlantGraph, src: NodeId,
                        dsts: list[NodeId]) -> dict[NodeId, Path]:
    """The shortest path from src to each of dsts, by Dijkstra with labels
    keyed by (length, node sequence) for determinism.
    """
    best: dict[NodeId, tuple[int, tuple[NodeId, ...]]] = {src: (0, (src,))}
    heap: list[tuple[int, tuple[NodeId, ...]]] = [best[src]]
    steps = g._steps
    while heap:
        dist, seq = heapq.heappop(heap)
        node = seq[-1]
        if (dist, seq) != best[node]:
            continue  # stale: the first pop of a node takes its final label
        for dst, length in steps.get(node, ()):
            if dst in seq:
                continue  # keep paths simple
            cand = (dist + length, seq + (dst,))
            if dst not in best or cand < best[dst]:
                best[dst] = cand
                heapq.heappush(heap, cand)
    return {n: Path(best[n][1], best[n][0]) for n in dsts}


def all_pairs_task_paths(
    g: PlantGraph, locations: set[NodeId]
) -> dict[tuple[NodeId, NodeId], Path]:
    """Shortest paths between every ordered pair of the given locations."""
    ends = sorted(locations)
    return {(src, dst): path for src in ends
            for dst, path in single_source_paths(g, src, ends).items()}
