"""Conflict-free scheduling of routes over shared nodes and edges.

This is the only stage that fixes times.  Every route is flattened into
its visited node and edge sequences, and entry times are scheduled so that
non-hub nodes hold at most one vehicle, unit-capacity edges are used one
vehicle at a time (with a one-time-unit separation that also forbids
position swapping), and opposite traversals of a unit-capacity segment
never overlap.  The model has one real per visit position, its arrival:
a segment is entered its travel time before its end is reached.  A route
starts when its windows allow; the routes of one vehicle run in whichever
order keeps their charging gaps.  Without the three conflict families the
same model times the routes of the relaxed mode; `replay` times one route
alone.  Both run on the route set's ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from . import solver as S
from .errors import BrokenChain
from .graph import NodeId
from .instance import Instance, Ticks
from .routing import Route, RouteSet

if TYPE_CHECKING:  # assignment imports replay from here
    from .assignment import Assignment


@dataclass(frozen=True)
class VisitPosition:
    node: NodeId
    lower: int  # in ticks
    upper: int
    service: int
    tasks: tuple[str, ...]  # tasks served at this stop, () for intersections


@dataclass(frozen=True)
class VisitList:
    depot: NodeId
    route_tasks: tuple[str, ...]
    positions: tuple[VisitPosition, ...]
    edges: tuple[tuple[NodeId, NodeId], ...]  # len(positions) - 1
    route_length: int  # in graph units


@dataclass(frozen=True)
class RouteSchedule:
    # Times and lengths are exact as the solver computes them; a schedule
    # read back with fileio.parse_schedule carries floats.
    vehicle: str
    depot: NodeId
    tasks: tuple[str, ...]
    nodes: tuple[NodeId, ...]
    node_in: tuple[Fraction, ...]
    node_out: tuple[Fraction, ...]
    position_tasks: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[NodeId, NodeId], ...]
    edge_in: tuple[Fraction, ...]
    length: Fraction
    start: Fraction


@dataclass(frozen=True)
class Schedule:
    routes: tuple[RouteSchedule, ...]

    @property
    def total_distance(self) -> Fraction:
        return sum((r.length for r in self.routes), Fraction(0))


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
    intersection and whose service time is the sum.  The service at the
    last position ends by the horizon T.  Times are in ticks.
    """
    ticks = cr.ticks
    T = ticks.horizon
    out = []
    for r in cr.routes:
        positions = [VisitPosition(r.depot, 0, T, 0, ())]
        edges: list[tuple[NodeId, NodeId]] = []
        for i, leg in enumerate(r.legs):
            if leg.src != positions[-1].node:
                raise BrokenChain(
                    f"leg {i} starts at {leg.src}, expected {positions[-1].node}")
            for a, b in leg.edge_keys:
                edges.append((a, b))
                positions.append(VisitPosition(b, 0, T, 0, ()))
            if i < len(r.tasks):
                t = inst.tasks[r.tasks[i]]
                if t.location != positions[-1].node:
                    raise BrokenChain(
                        f"leg {i} ends at {positions[-1].node}, "
                        f"but task {t.id} sits at {t.location}")
                prev = positions[-1]
                positions[-1] = VisitPosition(
                    prev.node,
                    max(prev.lower, ticks.lower[t.id]),
                    min(prev.upper, ticks.upper[t.id]),
                    prev.service + ticks.service[t.id],
                    prev.tasks + (t.id,),
                )
        if positions[-1].node != r.depot:
            raise BrokenChain(f"route does not return to depot {r.depot}")
        last = positions[-1]
        positions[-1] = replace(last, upper=min(last.upper, T - last.service))
        out.append(VisitList(
            r.depot, r.tasks, tuple(positions), tuple(edges), r.length))
    return out


def replay(route: Route, ticks: Ticks) -> tuple[int, int] | None:
    """The latest start and the earliest end of `route` timed alone on its
    legs, or None if it cannot be timed: this model for one route, solved
    by one walk that merges stops as `build_visit_lists` does.  From a
    start s each stop is reached at the later of its earliest time from 0
    and s plus the fixed travel and service before it, so the latest start
    is the least slack of a stop's upper bound over that offset.
    """
    T = ticks.horizon
    t = offset = 0  # reaching the open stop: earliest, and with no waits
    lower, upper, service, served = 0, T, 0, False  # the open stop
    late = T
    for i, leg in enumerate(route.legs):
        if len(leg.nodes) > 1:  # the leg moves on
            step = leg.length * ticks.travel
            if served:  # close the open stop; one without tasks never binds
                t = max(t, lower)
                if t > upper:
                    return None
                late = min(late, upper - offset)
                step += service
                lower, upper, service, served = 0, T, 0, False
            t, offset = t + step, offset + step
        if i < len(route.tasks):
            task = route.tasks[i]
            lower = max(lower, ticks.lower[task])
            upper = min(upper, ticks.upper[task])
            service += ticks.service[task]
            served = True
    t = max(t, lower)
    upper = min(upper, T - service)  # the last service ends by T
    if t > upper:
        return None
    return min(late, upper - offset), t + service


def verify_capacity(
    ca: Assignment,
    cr: RouteSet,
    inst: Instance,
    conflicts: bool = True,
) -> tuple[Schedule | None, CapacityStats]:
    """Schedule all routes' node/edge entry times, or report infeasibility.

    Every time is decided here: a route starts whenever its windows allow,
    and the charging-gap disjunction orders the routes of one vehicle.
    The reals are the arrivals x at the visit positions; each segment
    traversal is one atom x[q] + service + travel <= x[q + 1], and the
    segment from position q is entered at x[q + 1] - travel.  With
    `conflicts` false, the shared-node, same-direction and opposite edge
    clauses are left out: routes keep their windows, travel times, horizon
    and charging gaps, but not the occupancy limits.
    """
    ticks = cr.ticks
    T = ticks.horizon
    visit_lists = build_visit_lists(cr, inst)
    ctx = S.Context()
    stats = CapacityStats()
    n_routes = len(visit_lists)
    x: list[list[int]] = []  # arrival per visit position
    d: list[list[int]] = []  # travel time per edge
    for r, vl in enumerate(visit_lists):
        x.append([ctx.new_real() for _ in vl.positions])
        d.append([inst.graph.units[e] * ticks.travel for e in vl.edges])
        for q, dq in enumerate(d[r]):  # serve, then travel dq
            ctx.assert_formula(ctx.le(
                x[r][q], x[r][q + 1], -(vl.positions[q].service + dq)))
        for p, pos in enumerate(vl.positions):
            # x >= c is the atom 0 - x <= -c (node 0 is zero); every real is
            # already >= 0.  Arrivals only grow along a route, so the last
            # position's bound keeps every earlier one below T.
            if pos.lower > 0:
                ctx.assert_formula(ctx.le(0, x[r][p], -pos.lower))
            if p == len(d[r]) or pos.upper < T:
                ctx.assert_formula(ctx.le(x[r][p], 0, pos.upper))

    if conflicts:
        _assert_conflicts(ctx, visit_lists, x, d, inst, ticks, stats)

    # same-vehicle routes keep their charging gaps under the actual times
    for r1 in range(n_routes):
        for r2 in range(r1 + 1, n_routes):
            if ca.vehicle_of[r1] != ca.vehicle_of[r2]:
                continue
            end1 = (x[r1][-1], visit_lists[r1].positions[-1].service)
            end2 = (x[r2][-1], visit_lists[r2].positions[-1].service)
            gap1 = visit_lists[r1].route_length * ticks.charging
            gap2 = visit_lists[r2].route_length * ticks.charging
            ctx.assert_formula(ctx.le(end2[0], x[r1][0], -(end2[1] + gap1)),
                               ctx.le(end1[0], x[r2][0], -(end1[1] + gap2)))

    res = ctx.check()
    if not res.sat:
        return None, stats
    m, scale = res.model, ticks.scale
    routes = []
    for r, vl in enumerate(visit_lists):
        xs = [m.real(var) for var in x[r]]
        node_in = tuple(Fraction(t, scale) for t in xs)
        edge_in = tuple(Fraction(t - dq, scale) for t, dq in zip(xs[1:], d[r]))
        node_out = edge_in + (
            Fraction(xs[-1] + vl.positions[-1].service, scale),)
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
            length=vl.route_length * inst.graph.unit,
            start=node_in[0],
        ))
    return Schedule(tuple(routes)), stats


def _assert_conflicts(ctx, visit_lists, x, d, inst, ticks, stats) -> None:
    """The occupancy limits over the arrivals x, in ticks, counted into
    stats; the edge from position q is entered at x[q + 1] - d[q]."""
    one = ticks.scale  # the 1-unit separation
    g = inst.graph
    n_routes = len(visit_lists)
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
                    # one enters a unit after the other has left it
                    parts = [ctx.le(x[a][pa + 1], x[b][pb], d[a][pa] - one)
                             for a, pa, b, pb in ((r2, p2, r1, p1),
                                                  (r1, p1, r2, p2))
                             if pa < len(d[a])]
                    if parts:
                        ctx.assert_formula(*parts)
                        stats.node_conflict_constraints += 1

    # shared edges, each named by its end's arrival
    for r1 in range(n_routes):
        for r2 in range(r1 + 1, n_routes):
            for q1, e1 in enumerate(visit_lists[r1].edges):
                for q2, e2 in enumerate(visit_lists[r2].edges):
                    if e1 != e2 and e1 != (e2[1], e2[0]):
                        continue
                    if g.edges[e1].capacity != 1:
                        stats.capacity2_exempt_pairs += 1
                        continue
                    a1, a2 = x[r1][q1 + 1], x[r2][q2 + 1]
                    if e1 == e2:  # same travel time on both
                        ctx.assert_formula(ctx.le(a2, a1, -one),
                                           ctx.le(a1, a2, -one))
                        stats.edge_direct_constraints += 1
                    else:  # one enters after the other has arrived
                        ctx.assert_formula(ctx.le(a2, a1, -d[r1][q1]),
                                           ctx.le(a1, a2, -d[r2][q2]))
                        stats.edge_opposite_constraints += 1
