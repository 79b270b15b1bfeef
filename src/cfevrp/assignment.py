"""Vehicle-to-route matching with charging gaps and latest-start deadlines.

Routes behave like jobs in a job-shop: each needs exactly one vehicle,
eligible vehicles are the intersection of the route's jobs' fleets (further
restricted to vehicles stationed at the route's depot), and two routes on
one vehicle must be separated by the charging time of the route about to
start.

`assignments` yields the feasible vehicle maps of one route set from one
model, blocking each map in place.  The model's start and end times only
decide whether a vehicle's routes can run back to back within their latest
starts and charging gaps; they are not passed on.  The capacity stage fixes
every time, the order of a vehicle's routes included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import solver as S
from .instance import Instance
from .routing import RouteSet


@dataclass(frozen=True)
class RouteAttributes:
    length: Fraction
    cum_service: Fraction
    latest_start: Fraction
    eligible: frozenset[str]


@dataclass(frozen=True)
class Assignment:
    vehicle_of: tuple[str, ...]  # indexed like the route set


def compute_route_attributes(
    cr: RouteSet, inst: Instance
) -> list[RouteAttributes]:
    """Length, cumulative service, latest start, and eligible vehicles per
    route, from the legs the routes currently carry.

    The latest start keeps every task's window and brings the vehicle back
    by the horizon T.  Both bounds ignore waiting, which is never negative,
    and path changes only lengthen legs, so they hold for every timing of
    the route.
    """
    speed = inst.fleet.speed
    out = []
    for r in cr.routes:
        cum_service = sum(inst.tasks[t].service_time for t in r.tasks)
        eligible = set(inst.vehicles_at(r.depot))
        for t in r.tasks:
            eligible &= inst.job_of(t).eligible_vehicles
        late = inst.fleet.horizon - r.length / speed - cum_service
        travel = 0
        service_before = 0
        for i, t in enumerate(r.tasks):
            travel += r.legs[i].length
            late = min(
                late,
                inst.tasks[t].window.upper - travel / speed - service_before,
            )
            service_before += inst.tasks[t].service_time
        out.append(RouteAttributes(
            length=r.length,
            cum_service=cum_service,
            latest_start=late,
            eligible=frozenset(eligible),
        ))
    return out


def assignments(cr: RouteSet, inst: Instance) -> Iterator[Assignment]:
    """Every feasible vehicle map of `cr`.

    Each map is blocked as it is yielded, together with every model that
    puts the same routes on the same vehicles.
    """
    attrs = compute_route_attributes(cr, inst)
    n = len(cr.routes)
    vehicles = sorted(inst.vehicles)
    ctx = S.Context()
    alpha: dict[tuple[str, int], int] = {
        (v, r): ctx.new_bool() for v in vehicles for r in range(n)
    }
    s_var = [ctx.new_real() for _ in range(n)]
    e_var = [ctx.new_real() for _ in range(n)]
    speed = inst.fleet.speed
    C = inst.fleet.charge_coeff

    for r in range(n):
        ctx.exactly([alpha[(v, r)] for v in vehicles], 1)
        if len(attrs[r].eligible) < len(vehicles):  # else exactly covers it
            ctx.assert_formula(*[alpha[(v, r)] for v in sorted(attrs[r].eligible)])
        dur = attrs[r].length / speed + attrs[r].cum_service
        ctx.assert_formula(ctx.le(e_var[r], s_var[r], dur))
        ctx.assert_formula(ctx.le(s_var[r], e_var[r], -dur))
        ctx.assert_formula(ctx.le(s_var[r], 0, attrs[r].latest_start))

    # on one vehicle, r1 starts after r2 has ended and r1's charging gap
    # has passed, or the other way round
    apart = {
        (r1, r2): (ctx.le(e_var[r2], s_var[r1], -C * attrs[r1].length),
                   ctx.le(e_var[r1], s_var[r2], -C * attrs[r2].length))
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

