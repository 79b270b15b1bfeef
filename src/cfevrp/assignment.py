"""Vehicle-to-route matching with charging gaps and latest-start deadlines.

Routes behave like jobs in a job-shop: each needs exactly one vehicle,
eligible vehicles are the intersection of the route's jobs' fleets (further
restricted to vehicles stationed at the route's depot), and two routes on
one vehicle must be separated by the charging time of the route about to
start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import solver as S
from .instance import Instance
from .routing import RouteSet

AlphaLits = frozenset[tuple[str, int]]


@dataclass(frozen=True)
class RouteAttributes:
    length: float
    cum_service: float
    latest_start: float
    eligible: frozenset[str]


@dataclass(frozen=True)
class Assignment:
    vehicle_of: tuple[str, ...]  # indexed like the route set
    starts: tuple[float, ...]
    ends: tuple[float, ...]
    alpha_lits: AlphaLits

    def routes_of(self, vehicle: str) -> list[int]:
        return [i for i, v in enumerate(self.vehicle_of) if v == vehicle]


def compute_route_attributes(
    cr: RouteSet, inst: Instance
) -> list[RouteAttributes]:
    """Length, cumulative service, latest start, and eligible vehicles per
    route, from the legs the routes currently carry."""
    out = []
    for r in cr.routes:
        cum_service = sum(inst.tasks[t].service_time for t in r.tasks)
        eligible = set(inst.vehicles_at(r.depot))
        for t in r.tasks:
            eligible &= inst.job_of(t).eligible_vehicles
        late = inst.fleet.horizon
        travel = 0.0
        service_before = 0.0
        for i, t in enumerate(r.tasks):
            travel += r.legs[i].length
            late = min(
                late,
                inst.tasks[t].window.upper
                - travel / inst.fleet.speed
                - service_before,
            )
            service_before += inst.tasks[t].service_time
        out.append(RouteAttributes(
            length=r.length,
            cum_service=cum_service,
            latest_start=late,
            eligible=frozenset(eligible),
        ))
    return out


def solve_assignment(
    cr: RouteSet,
    attrs: list[RouteAttributes],
    inst: Instance,
    pa: list[AlphaLits],
) -> Assignment | None:
    """One feasible assignment not in pa, with canonical earliest starts."""
    n = len(cr.routes)
    vehicles = sorted(inst.vehicles)
    ctx = S.Context()
    alpha: dict[tuple[str, int], int] = {
        (v, r): ctx.new_bool() for v in vehicles for r in range(n)
    }
    s_var = [ctx.new_real() for _ in range(n)]
    e_var = [ctx.new_real() for _ in range(n)]
    speed = Fraction(inst.fleet.speed)
    C = Fraction(inst.fleet.charge_coeff)

    for r in range(n):
        ctx.exactly([alpha[(v, r)] for v in vehicles], 1)
        ctx.assert_formula(*[alpha[(v, r)] for v in sorted(attrs[r].eligible)])
        dur = Fraction(attrs[r].length) / speed + Fraction(attrs[r].cum_service)
        ctx.assert_formula(ctx.le(e_var[r], s_var[r], dur))
        ctx.assert_formula(ctx.le(s_var[r], e_var[r], -dur))
        ctx.assert_formula(ctx.le(s_var[r], 0, attrs[r].latest_start))

    for v in vehicles:
        for r1 in range(n):
            for r2 in range(r1 + 1, n):
                # on one vehicle, r1 starts after r2 has ended and r1's
                # charging gap has passed, or the other way round
                gap1 = C * Fraction(attrs[r1].length)
                gap2 = C * Fraction(attrs[r2].length)
                ctx.assert_formula(-alpha[(v, r1)], -alpha[(v, r2)],
                                   ctx.le(e_var[r2], s_var[r1], -gap1),
                                   ctx.le(e_var[r1], s_var[r2], -gap2))

    for lits in pa:
        ctx.assert_formula(*[-alpha[p] for p in sorted(lits)])

    res = ctx.check()
    if not res.sat:
        return None
    m = res.model
    vehicle_of = []
    for r in range(n):
        chosen = [v for v in vehicles if m.value(alpha[(v, r)])]
        assert len(chosen) == 1
        vehicle_of.append(chosen[0])
    lits = frozenset(
        (v, r) for (v, r), var in alpha.items() if m.value(var)
    )
    starts, ends = _canonical_times(cr, attrs, inst, vehicle_of, m, s_var)
    return Assignment(tuple(vehicle_of), starts, ends, lits)


def _canonical_times(cr, attrs, inst, vehicle_of, m, s_var):
    """Shift each vehicle's routes to their earliest consistent starts.

    Keeping the model's relative order per vehicle, each route starts as
    soon as the previous one has ended and the charging gap has elapsed.
    The result is pointwise no later than the model values, so every
    asserted deadline still holds.
    """
    n = len(cr.routes)
    starts = [0.0] * n
    ends = [0.0] * n
    speed = inst.fleet.speed
    C = inst.fleet.charge_coeff
    by_vehicle: dict[str, list[int]] = {}
    for r in range(n):
        by_vehicle.setdefault(vehicle_of[r], []).append(r)
    for v, rs in by_vehicle.items():
        rs.sort(key=lambda r: (m.real(s_var[r]), r))
        prev_end = None
        for r in rs:
            dur = attrs[r].length / speed + attrs[r].cum_service
            gap = C * attrs[r].length
            start = 0.0 if prev_end is None else prev_end + gap
            starts[r] = start
            ends[r] = start + dur
            prev_end = ends[r]
    return tuple(starts), tuple(ends)
