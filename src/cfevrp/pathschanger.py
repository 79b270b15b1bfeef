"""Alternative path synthesis for route legs.

`path_sets` yields a route set's routes with every combination of simple
paths for their legs, each once, fewest nodes in total first.  It is graph
code with no solver model:
- each leg lists its simple paths lazily in (node count, node sequence)
  order, by Yen's algorithm ("Finding the K shortest loopless paths in a
  network", 1971) with breadth-first spur searches; legs with the same
  endpoints share one list;
- the combinations come from a best-first merge of those lists over index
  tuples, keyed by (total node count, index tuple), so ties come in a
  fixed order.

It serves one route set for as long as its assignment is tried, and works
out only as many paths as the combinations asked for need.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import Iterator

from .graph import NodeId, Path, PlantGraph
from .instance import Instance
from .routing import Route, RouteSet

Nodes = tuple[NodeId, ...]


def _fewest_hops(g: PlantGraph, root: Nodes, dst: NodeId,
                 cut: set[NodeId]) -> Nodes | None:
    """The smallest node sequence among the fewest-edge paths from the
    last node of `root` to `dst` that avoid the other `root` nodes and do
    not step first to a node of `cut`.

    A breadth-first search from `dst` gives each node its distance to
    `dst` (every segment runs both ways with one length), and the walk
    forward takes the smallest next node one step closer.
    """
    banned = set(root)
    dist = {dst: 0}
    frontier = [dst]
    while frontier:
        reached = []
        for n in frontier:
            for e in g.out_edges(n):
                if e.dst not in dist and e.dst not in banned:
                    dist[e.dst] = dist[n] + 1
                    reached.append(e.dst)
        frontier = reached
    firsts = [(dist[e.dst], e.dst) for e in g.out_edges(root[-1])
              if e.dst in dist and e.dst not in cut]
    if not firsts:
        return None
    seq = [root[-1], min(firsts)[1]]
    while seq[-1] != dst:
        d = dist[seq[-1]] - 1
        seq.append(next(e.dst for e in g.out_edges(seq[-1])
                        if dist.get(e.dst) == d))
    return tuple(seq)


def simple_paths(g: PlantGraph, src: NodeId, dst: NodeId) -> Iterator[Nodes]:
    """Every simple src -> dst path once, by (node count, node sequence).

    Yen's algorithm: a path not listed yet leaves the listed path it
    shares the longest prefix with at some spur node, so the next path is
    the best of the spur searches from every listed path's nodes.  The
    spur search fixes the root (the prefix up to the spur node), so its
    smallest (node count, node sequence) path makes the smallest whole
    path of that root.
    """
    if src == dst:
        yield (src,)
        return
    listed = [_fewest_hops(g, (src,), dst, set())]
    candidates: list[tuple[int, Nodes]] = []
    seen = set(listed)
    while True:
        last = listed[-1]
        yield last
        for i in range(len(last) - 1):
            root = last[:i + 1]
            cut = {p[i + 1] for p in listed if p[:i + 1] == root}
            spur = _fewest_hops(g, root, dst, cut)
            if spur is not None and (path := root[:-1] + spur) not in seen:
                seen.add(path)
                heappush(candidates, (len(path), path))
        if not candidates:
            return
        listed.append(heappop(candidates)[1])


class _Leg:
    """The paths of one leg's endpoints, worked out as they are asked for."""

    def __init__(self, g: PlantGraph, src: NodeId, dst: NodeId):
        self._g = g
        self._more = simple_paths(g, src, dst)
        self._paths: list[Path] = []

    def path(self, k: int) -> Path | None:
        """The k-th path (from 0), or None when there are fewer."""
        while len(self._paths) <= k:
            nodes = next(self._more, None)
            if nodes is None:
                return None
            self._paths.append(self._g.path_between(nodes))
        return self._paths[k]


def path_sets(cr: RouteSet, inst: Instance) -> Iterator[RouteSet]:
    """`cr` with every combination of paths for its legs, fewest nodes
    first, each once.

    Ties come by index tuple: the leg paths' ranks, legs in (route, leg)
    order.
    """
    legs: list[_Leg] = []
    shared: dict[tuple[NodeId, NodeId], _Leg] = {}
    for route in cr:
        locs = route.locations(inst)
        for ends in zip(locs, locs[1:]):
            if ends not in shared:
                shared[ends] = _Leg(inst.graph, *ends)
            legs.append(shared[ends])

    def size(index: tuple[int, ...]) -> int:
        return sum(len(leg.path(k).nodes) for leg, k in zip(legs, index))

    first = (0,) * len(legs)
    frontier = [(size(first), first)]
    seen = {first}
    while frontier:
        _, index = heappop(frontier)
        paths = (leg.path(k) for leg, k in zip(legs, index))
        yield tuple(
            Route(r.depot, r.tasks, tuple(islice(paths, len(r.legs))))
            for r in cr)
        for j, leg in enumerate(legs):
            nxt = index[:j] + (index[j] + 1,) + index[j + 1:]
            if nxt not in seen and leg.path(nxt[j]) is not None:
                seen.add(nxt)
                heappush(frontier, (size(nxt), nxt))
