"""Alternative path synthesis for route legs.

One Boolean model covers every leg of every route at once: node and edge
selection variables per leg, flow-style degree constraints tying them into
a simple chain from the leg's start to its end.  Repeated calls enumerate
every simple-path combination, fewest used nodes first.

A `PathChanger` serves one route set for as long as its assignment is
tried.  It builds the model on its first call and keeps it: each returned
combination is blocked in place, and the next minimum is searched from the
last one.  Blocking only removes combinations, so the last optimum is a
proven lower bound and usually attained again by a single check under the
assumption "at most that many nodes".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        return RouteSet(tuple(routes), cr.theta_lits)


class PathChanger:
    """The path combinations of one route set's legs, fewest nodes first."""

    def __init__(self, cr: RouteSet, inst: Instance):
        self._graph: PlantGraph = inst.graph
        self._legs: list[tuple[int, int, NodeId, NodeId]] = []
        self._degenerate: dict[tuple[int, int], Path] = {}
        for r, route in enumerate(cr.routes):
            locs = route.locations(inst)
            for i, (xi, pi) in enumerate(zip(locs, locs[1:])):
                if xi == pi:
                    # the empty path is the only simple path from a node to
                    # itself
                    self._degenerate[(r, i)] = Path((xi,), Fraction(0))
                else:
                    self._legs.append((r, i, xi, pi))
        self._ctx: S.Context | None = None  # built on the first call
        self._w: list[int] = []  # node variables
        self._z: dict[tuple[int, int, EdgeKey], int] = {}  # edge variables
        self._optimum = 0  # node count of the last combination returned

    def _build(self) -> None:
        g = self._graph
        ctx = self._ctx = S.Context()
        w: dict[tuple[int, int, NodeId], int] = {}
        z = self._z
        for r, i, _, _ in self._legs:
            for n in sorted(g.nodes):
                w[(r, i, n)] = ctx.new_bool()
            for e in sorted(g.edges):
                z[(r, i, e)] = ctx.new_bool()

        for r, i, xi, pi in self._legs:
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
        self._w = list(w.values())

    def next(self) -> PathAssignment | None:
        """A minimal-node combination not returned before, or None."""
        if self._ctx is None:
            self._build()
        ctx = self._ctx
        res = ctx.minimize(self._w, lower=self._optimum)
        if not res.sat:
            return None
        m = res.model
        self._optimum = len(m.true_vars(self._w))
        g = self._graph
        z = self._z
        out: dict[tuple[int, int], Path] = dict(self._degenerate)
        used: list[int] = []
        for r, i, xi, pi in self._legs:
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
        return PathAssignment(out)


def solve_paths_changing(changer: PathChanger) -> PathAssignment | None:
    """The next path combination of `changer`, or None when none is left.

    This is the `paths` stage as the driver calls it, once per event, under
    the name the per-layer tracer (bench/tracing.py) wraps.
    """
    return changer.next()
