"""Vehicle-to-route matching with charging gaps and latest-start deadlines.

Routes behave like jobs in a job-shop: each needs exactly one vehicle,
eligible vehicles are the intersection of the route's jobs' fleets (further
restricted to vehicles stationed at the route's depot), and two routes on
one vehicle must be separated by the charging time of the route about to
start.

`assignments` yields the vehicle maps of one route set from one model,
blocking each map in place, exactly those that the capacity model times
without its occupancy limits.  The model's times are not passed on: the
capacity stage fixes every time, the order of a vehicle's routes included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import solver as S
from .capacity import replay
from .instance import Instance
from .routing import RouteSet


@dataclass(frozen=True)
class RouteAttributes:
    length: int  # in graph units; the times in ticks
    cum_service: int
    latest_start: int | None
    earliest_end: int | None
    eligible: frozenset[str]


@dataclass(frozen=True)
class Assignment:
    vehicle_of: tuple[str, ...]  # indexed like the route set


def compute_route_attributes(
    cr: RouteSet, inst: Instance
) -> list[RouteAttributes]:
    """Length, cumulative service, latest start, earliest end, and eligible
    vehicles per route, from the legs the routes currently carry.  The
    times are `capacity.replay`'s, None if the route cannot be timed alone.
    """
    ticks = cr.ticks
    out = []
    for r in cr.routes:
        eligible = set(inst.vehicles_at(r.depot))
        for t in r.tasks:
            eligible &= inst.job_of(t).eligible_vehicles
        latest_start, earliest_end = replay(r, ticks) or (None, None)
        out.append(RouteAttributes(
            length=r.length,
            cum_service=sum(ticks.service[t] for t in r.tasks),
            latest_start=latest_start,
            earliest_end=earliest_end,
            eligible=frozenset(eligible),
        ))
    return out


def assignments(cr: RouteSet, inst: Instance) -> Iterator[Assignment]:
    """Every vehicle map of `cr` whose capacity check without occupancy
    limits is sat on `cr`'s legs: a route started by its latest start s
    ends at the later of s + dur and its earliest end.

    Refusing a map is complete: `cr`'s legs are the router's shortest
    paths.  Given any schedule on longer legs, the route on the shortest
    legs can leave at the same time, wait, and serve every task at the
    same instant; it charges less (C times its length) and is back no
    later.  So a refused map has no schedule on any path combination.

    Each map is blocked as it is yielded, together with every model that
    puts the same routes on the same vehicles.
    """
    attrs = compute_route_attributes(cr, inst)
    if any(a.latest_start is None for a in attrs):
        return  # some route cannot be timed even alone
    n = len(cr.routes)
    vehicles = sorted(inst.vehicles)
    ctx = S.Context()
    alpha: dict[tuple[str, int], int] = {
        (v, r): ctx.new_bool() for v in vehicles for r in range(n)
    }
    s_var = [ctx.new_real() for _ in range(n)]
    e_var = [ctx.new_real() for _ in range(n)]
    C = cr.ticks.charging

    for r in range(n):
        ctx.exactly([alpha[(v, r)] for v in vehicles], 1)
        if len(attrs[r].eligible) < len(vehicles):  # else exactly covers it
            ctx.assert_formula(*[alpha[(v, r)] for v in sorted(attrs[r].eligible)])
        # e >= s + dur, e >= the earliest end, s <= the latest start
        dur = attrs[r].length * cr.ticks.travel + attrs[r].cum_service
        ctx.assert_formula(ctx.le(s_var[r], e_var[r], -dur))
        ctx.assert_formula(ctx.le(0, e_var[r], -attrs[r].earliest_end))
        ctx.assert_formula(ctx.le(s_var[r], 0, attrs[r].latest_start))

    # on one vehicle, r1 starts after r2 has ended and r1's charging gap
    # has passed, or the other way round
    apart = {
        (r1, r2): (ctx.le(e_var[r2], s_var[r1], -attrs[r1].length * C),
                   ctx.le(e_var[r1], s_var[r2], -attrs[r2].length * C))
        for r1 in range(n) for r2 in range(r1 + 1, n)
    }
    for v in vehicles:
        for (r1, r2), (after, before) in apart.items():
            ctx.assert_formula(-alpha[(v, r1)], -alpha[(v, r2)], after, before)

    alpha_vars = list(alpha.values())
    while (res := ctx.check()).sat:
        m = res.model
        vehicle_of = []
        for r in range(n):
            chosen = [v for v in vehicles if m.value(alpha[(v, r)])]
            assert len(chosen) == 1
            vehicle_of.append(chosen[0])
        ctx.block_true_subset(alpha_vars, m)
        yield Assignment(tuple(vehicle_of))

