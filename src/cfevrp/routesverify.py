"""Fast re-check of routes after a path change.

The time and charge constraints along one route form a chain, so instead
of a solver call each route is replayed forward from time 0: serve each
task at the earliest admissible instant and compare against its deadline,
check that the route is back at its depot by the horizon T, then check the
total travelled distance against the charge budget.
"""

from __future__ import annotations

from .instance import Instance
from .routing import RouteSet


def verify_routes(cr: RouteSet, inst: Instance) -> bool:
    """True iff every route still meets windows, horizon and range with its
    legs."""
    fleet = inst.fleet
    budget = fleet.operating_range / fleet.charge_to_range
    for r in cr.routes:
        t = 0
        for i, tid in enumerate(r.tasks):
            task = inst.tasks[tid]
            t += r.legs[i].length / fleet.speed
            t = max(t, task.window.lower)  # allowed to wait for the window
            if t > task.window.upper:
                return False
            t += task.service_time
        if t + r.legs[-1].length / fleet.speed > fleet.horizon:
            return False
        spent = fleet.discharge_coeff * r.length / fleet.speed
        if spent > budget:
            return False
    return True
