"""Vehicle-to-route matching with charging gaps and latest-start deadlines.

Routes behave like jobs in a job-shop: each needs exactly one vehicle,
eligible vehicles are the intersection of the route's jobs' fleets (further
restricted to vehicles stationed at the route's depot), and two routes on
one vehicle must be separated by the charging time of the route about to
start.  The model has a Boolean only for a route and a vehicle eligible
for it, and a charging gap only for two routes that one vehicle may both
take.  Each route's latest start and earliest end come from
`capacity.replay`.

`assignments` yields the vehicle maps of one route set from one model,
each a tuple of vehicle ids indexed like the route set, blocking each map
in place: exactly those that the capacity model times without its
occupancy limits.  The model's times are not passed on: the
capacity stage fixes every time, the order of a vehicle's routes included.
"""

from __future__ import annotations

from typing import Iterator

from . import solver as S
from .capacity import replay
from .instance import Instance
from .routing import RouteSet


Assignment = tuple[str, ...]  # a vehicle per route, indexed like the route set


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
    ticks = inst.ticks
    times = [replay(r, ticks) for r in cr]
    if None in times:
        return  # some route cannot be timed even alone
    n = len(cr)
    vehicles = sorted(inst.vehicles)
    # a route may take a vehicle stationed at its depot and eligible for
    # all its jobs
    eligible = []
    for r in cr:
        fleet = set(inst.vehicles_at(r.depot))
        for t in r.tasks:
            fleet &= inst.job_of(t).eligible_vehicles
        eligible.append(fleet)
    ctx = S.Context()
    alpha: dict[tuple[str, int], int] = {
        (v, r): ctx.new_bool()
        for v in vehicles for r in range(n) if v in eligible[r]
    }
    s_var = [ctx.new_real() for _ in range(n)]
    e_var = [ctx.new_real() for _ in range(n)]
    C = ticks.charging

    for r, route in enumerate(cr):
        ctx.exactly_one([alpha[(v, r)] for v in sorted(eligible[r])])
        # e >= s + dur, e >= the earliest end, s <= the latest start
        latest_start, earliest_end = times[r]
        dur = route.length * ticks.travel + sum(
            ticks.service[t] for t in route.tasks)
        ctx.assert_formula(ctx.le(s_var[r], e_var[r], -dur))
        ctx.assert_formula(ctx.le(0, e_var[r], -earliest_end))
        ctx.assert_formula(ctx.le(s_var[r], 0, latest_start))

    # on a vehicle both may take, r1 starts after r2 has ended and r1's
    # charging gap has passed, or the other way round
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            shared = sorted(eligible[r1] & eligible[r2])
            if not shared:
                continue
            after = ctx.le(e_var[r2], s_var[r1], -cr[r1].length * C)
            before = ctx.le(e_var[r1], s_var[r2], -cr[r2].length * C)
            for v in shared:
                ctx.assert_formula(-alpha[(v, r1)], -alpha[(v, r2)],
                                   after, before)

    alpha_vars = list(alpha.values())
    while (m := ctx.check()) is not None:
        vehicle_of = {r: v for (v, r), var in alpha.items() if m.value(var)}
        ctx.block_model(alpha_vars, m)
        yield tuple(vehicle_of[r] for r in range(n))

