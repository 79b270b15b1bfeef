"""Conflict-free scheduling of routes over shared nodes and edges.

Every route is flattened into its visited node and edge sequences; entry
times are then scheduled so that non-hub nodes hold at most one vehicle,
unit-capacity edges are used one vehicle at a time (with a one-time-unit
separation that also forbids position swapping), and opposite traversals
of a unit-capacity segment never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import solver as S
from .assignment import Assignment
from .errors import BrokenChain
from .graph import NodeId
from .instance import Instance
from .routing import RouteSet


@dataclass(frozen=True)
class VisitPosition:
    node: NodeId
    lower: float
    upper: float
    service: float
    tasks: tuple[str, ...]  # tasks served at this stop, () for intersections


@dataclass(frozen=True)
class VisitList:
    depot: NodeId
    route_tasks: tuple[str, ...]
    positions: tuple[VisitPosition, ...]
    edges: tuple[tuple[NodeId, NodeId], ...]  # len(positions) - 1
    route_length: float


@dataclass(frozen=True)
class RouteSchedule:
    vehicle: str
    depot: NodeId
    tasks: tuple[str, ...]
    nodes: tuple[NodeId, ...]
    node_in: tuple[float, ...]
    node_out: tuple[float, ...]
    position_tasks: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[NodeId, NodeId], ...]
    edge_in: tuple[float, ...]
    length: float
    start: float


@dataclass(frozen=True)
class Schedule:
    routes: tuple[RouteSchedule, ...]

    @property
    def total_distance(self) -> float:
        return sum(r.length for r in self.routes)


@dataclass
class CapacityStats:
    node_conflict_constraints: int = 0
    edge_direct_constraints: int = 0
    edge_opposite_constraints: int = 0
    hub_exempt_pairs: int = 0
    capacity2_exempt_pairs: int = 0


def build_visit_lists(cr: RouteSet, inst: Instance) -> list[VisitList]:
    """Flatten each route's legs into node/edge sequences.

    Consecutive co-located stops (a task at the depot, or two back-to-back
    tasks at one node) merge into a single position whose window is the
    intersection and whose service time is the sum.
    """
    T = inst.fleet.horizon
    out = []
    for r in cr.routes:
        positions = [VisitPosition(r.depot, 0.0, T, 0.0, ())]
        edges: list[tuple[NodeId, NodeId]] = []
        for i, leg in enumerate(r.legs):
            if leg.src != positions[-1].node:
                raise BrokenChain(
                    f"leg {i} starts at {leg.src}, expected {positions[-1].node}")
            for a, b in leg.edge_keys:
                edges.append((a, b))
                positions.append(VisitPosition(b, 0.0, T, 0.0, ()))
            if i < len(r.tasks):
                t = inst.tasks[r.tasks[i]]
                if t.location != positions[-1].node:
                    raise BrokenChain(
                        f"leg {i} ends at {positions[-1].node}, "
                        f"but task {t.id} sits at {t.location}")
                prev = positions[-1]
                positions[-1] = VisitPosition(
                    prev.node,
                    max(prev.lower, t.window.lower),
                    min(prev.upper, t.window.upper),
                    prev.service + t.service_time,
                    prev.tasks + (t.id,),
                )
        if positions[-1].node != r.depot:
            raise BrokenChain(f"route does not return to depot {r.depot}")
        out.append(VisitList(
            r.depot, r.tasks, tuple(positions), tuple(edges), r.length))
    return out


def verify_capacity(
    ca: Assignment,
    visit_lists: list[VisitList],
    inst: Instance,
) -> tuple[Schedule | None, CapacityStats]:
    """Schedule all routes' node/edge entry times, or report infeasibility."""
    g = inst.graph
    ctx = S.Context()
    stats = CapacityStats()
    n_routes = len(visit_lists)
    x: list[list[int]] = []  # entry time per position
    y: list[list[int]] = []  # entry time per edge
    for r, vl in enumerate(visit_lists):
        x.append([ctx.new_real() for _ in vl.positions])
        y.append([ctx.new_real() for _ in vl.edges])
        # x >= c is the atom 0 - x <= -c; node 0 is zero
        ctx.assert_formula(ctx.le(0, x[r][0], -Fraction(ca.starts[r])))
        for q, ekey in enumerate(vl.edges):
            # enter the edge after the service, reach its end d later
            ctx.assert_formula(ctx.le(
                x[r][q], y[r][q], -Fraction(vl.positions[q].service)))
            d = Fraction(g.edges[ekey].length) / Fraction(inst.fleet.speed)
            ctx.assert_formula(ctx.le(x[r][q + 1], y[r][q], d))
            ctx.assert_formula(ctx.le(y[r][q], x[r][q + 1], -d))
        for p, pos in enumerate(vl.positions):
            ctx.assert_formula(ctx.le(0, x[r][p], -Fraction(pos.lower)))
            ctx.assert_formula(ctx.le(x[r][p], 0, pos.upper))

    # shared non-hub nodes: one vehicle at a time, no swapping
    for r1 in range(n_routes):
        for r2 in range(r1 + 1, n_routes):
            for p1, pos1 in enumerate(visit_lists[r1].positions):
                for p2, pos2 in enumerate(visit_lists[r2].positions):
                    if pos1.node != pos2.node:
                        continue
                    if pos1.node in g.hubs:
                        stats.hub_exempt_pairs += 1
                        continue
                    have1 = p1 < len(visit_lists[r1].edges)
                    have2 = p2 < len(visit_lists[r2].edges)
                    # one enters a unit after the other has left
                    parts = []
                    if have2:
                        parts.append(ctx.le(y[r2][p2], x[r1][p1], -1))
                    if have1:
                        parts.append(ctx.le(y[r1][p1], x[r2][p2], -1))
                    if parts:
                        ctx.assert_formula(*parts)
                        stats.node_conflict_constraints += 1

    # shared edges
    for r1 in range(n_routes):
        for r2 in range(r1 + 1, n_routes):
            for q1, e1 in enumerate(visit_lists[r1].edges):
                for q2, e2 in enumerate(visit_lists[r2].edges):
                    if e1 == e2:
                        if g.edges[e1].capacity != 1:
                            stats.capacity2_exempt_pairs += 1
                            continue
                        ctx.assert_formula(ctx.le(y[r2][q2], y[r1][q1], -1),
                                           ctx.le(y[r1][q1], y[r2][q2], -1))
                        stats.edge_direct_constraints += 1
                    elif e1 == (e2[1], e2[0]):
                        if g.edges[e1].capacity != 1:
                            stats.capacity2_exempt_pairs += 1
                            continue
                        d1 = Fraction(g.edges[e1].length) / Fraction(inst.fleet.speed)
                        d2 = Fraction(g.edges[e2].length) / Fraction(inst.fleet.speed)
                        ctx.assert_formula(ctx.le(y[r2][q2], y[r1][q1], -d2),
                                           ctx.le(y[r1][q1], y[r2][q2], -d1))
                        stats.edge_opposite_constraints += 1

    # same-vehicle routes keep their charging gaps under the actual times
    C = Fraction(inst.fleet.charge_coeff)
    for r1 in range(n_routes):
        for r2 in range(r1 + 1, n_routes):
            if ca.vehicle_of[r1] != ca.vehicle_of[r2]:
                continue
            end1 = (x[r1][-1], Fraction(visit_lists[r1].positions[-1].service))
            end2 = (x[r2][-1], Fraction(visit_lists[r2].positions[-1].service))
            gap1 = C * Fraction(visit_lists[r1].route_length)
            gap2 = C * Fraction(visit_lists[r2].route_length)
            ctx.assert_formula(ctx.le(end2[0], x[r1][0], -(end2[1] + gap1)),
                               ctx.le(end1[0], x[r2][0], -(end1[1] + gap2)))

    res = ctx.check()
    if not res.sat:
        return None, stats
    m = res.model
    routes = []
    for r, vl in enumerate(visit_lists):
        node_in = tuple(float(m.real(var)) for var in x[r])
        edge_in = tuple(float(m.real(var)) for var in y[r])
        node_out = tuple(
            edge_in[p] if p < len(edge_in)
            else node_in[p] + vl.positions[p].service
            for p in range(len(vl.positions))
        )
        routes.append(RouteSchedule(
            vehicle=ca.vehicle_of[r],
            depot=vl.depot,
            tasks=vl.route_tasks,
            nodes=tuple(p.node for p in vl.positions),
            node_in=node_in,
            node_out=node_out,
            position_tasks=tuple(p.tasks for p in vl.positions),
            edges=vl.edges,
            edge_in=edge_in,
            length=vl.route_length,
            start=ca.starts[r],
        ))
    return Schedule(tuple(routes)), stats
