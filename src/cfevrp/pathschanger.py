"""Alternative path synthesis for route legs.

One Boolean model covers every leg of every route at once: node and edge
selection variables per leg, flow-style degree constraints tying them into
a simple chain from the leg's start to its end.  `path_sets` yields every
simple-path combination, fewest used nodes first.

It serves one route set for as long as its assignment is tried.  It builds
the model when the first combination is asked for and keeps it: each
combination is blocked in place, and the next minimum is searched from the
last one.  Blocking only removes combinations, so the last optimum is a
proven lower bound and usually attained again by a single check under the
assumption "at most that many nodes".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import solver as S
from .errors import DecodingCycle
from .graph import NodeId, Path, PlantGraph
from .routing import RouteSet
from .instance import Instance

EdgeKey = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class PathAssignment:
    legs: dict[tuple[int, int], Path]  # (route index, leg index) -> path

    def apply(self, cr: RouteSet) -> RouteSet:
        routes = []
        for r, route in enumerate(cr.routes):
            legs = tuple(
                self.legs[(r, i)] for i in range(len(route.legs))
            )
            routes.append(route.with_legs(legs))
        return RouteSet(tuple(routes))


def path_sets(cr: RouteSet, inst: Instance) -> Iterator[PathAssignment]:
    """The path combinations of `cr`'s legs, fewest nodes first, each once."""
    g: PlantGraph = inst.graph
    legs: list[tuple[int, int, NodeId, NodeId]] = []
    degenerate: dict[tuple[int, int], Path] = {}
    for r, route in enumerate(cr.routes):
        locs = route.locations(inst)
        for i, (xi, pi) in enumerate(zip(locs, locs[1:])):
            if xi == pi:
                # the empty path is the only simple path from a node to itself
                degenerate[(r, i)] = Path((xi,), Fraction(0))
            else:
                legs.append((r, i, xi, pi))

    ctx = S.Context()
    w: dict[tuple[int, int, NodeId], int] = {}  # node variables
    z: dict[tuple[int, int, EdgeKey], int] = {}  # edge variables
    for r, i, _, _ in legs:
        for n in sorted(g.nodes):
            w[(r, i, n)] = ctx.new_bool()
        for e in sorted(g.edges):
            z[(r, i, e)] = ctx.new_bool()

    for r, i, xi, pi in legs:
        ctx.assert_formula(w[(r, i, xi)])
        ctx.assert_formula(w[(r, i, pi)])
        ctx.exactly([z[(r, i, e.key)] for e in g.out_edges(xi)], 1)
        ctx.exactly([z[(r, i, e.key)] for e in g.in_edges(pi)], 1)
        for e in sorted(g.edges):
            if e[0] < e[1]:  # one clause per segment: not both ways
                ctx.assert_formula(-z[(r, i, e)], -z[(r, i, (e[1], e[0]))])
        for n in sorted(g.nodes):
            if n in (xi, pi):
                continue
            # a used node is entered and left once, an unused one never
            visited = w[(r, i, n)]
            outs = [z[(r, i, e.key)] for e in g.out_edges(n)]
            ins = [z[(r, i, e.key)] for e in g.in_edges(n)]
            ctx.exactly(outs, 1, visited)
            ctx.exactly(ins, 1, visited)
            ctx.exactly(outs, 0, -visited)
            ctx.exactly(ins, 0, -visited)
    nodes = list(w.values())

    optimum = 0  # node count of the last combination yielded
    while (res := ctx.minimize(nodes, lower=optimum)).sat:
        m = res.model
        optimum = len(m.true_vars(nodes))
        out: dict[tuple[int, int], Path] = dict(degenerate)
        used: list[int] = []
        for r, i, xi, pi in legs:
            succ: dict[NodeId, NodeId] = {}
            for e in g.edges:
                if m.value(z[(r, i, e)]):
                    if e[0] in succ:
                        raise DecodingCycle(
                            f"leg ({r},{i}): node {e[0]} has two exits")
                    succ[e[0]] = e[1]
            seq = [xi]
            cur = xi
            while cur != pi:
                if cur not in succ:
                    raise DecodingCycle(f"leg ({r},{i}): chain breaks at {cur}")
                cur = succ[cur]
                if cur in seq:
                    raise DecodingCycle(f"leg ({r},{i}): cycle through {cur}")
                seq.append(cur)
            path = g.path_between(tuple(seq))
            out[(r, i)] = path
            used.extend(z[(r, i, e)] for e in path.edge_keys)
        # exclude this combination, and any model containing all its edges
        ctx.block_true_subset(used, m)
        yield PathAssignment(out)
