"""Fast re-check of routes after a path change.

The time and charge constraints along one route form a chain, so instead
of a solver call each route is replayed forward: serve each task at the
earliest admissible instant and compare against its deadline, then check
the total travelled distance against the charge budget.
"""

from __future__ import annotations

from .instance import Instance
from .routing import RouteSet


def verify_routes(cr: RouteSet, inst: Instance) -> bool:
    """True iff every route still meets windows and range with its legs."""
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
        spent = fleet.discharge_coeff * r.length / fleet.speed
        if spent > budget:
            return False
    return True
