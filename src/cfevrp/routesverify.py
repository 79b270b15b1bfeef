"""Fast re-check of routes after a path change: each route is timed alone
on its new legs by `capacity.replay`, as the capacity model times it, and
its travelled distance is checked against the charge budget.
"""

from __future__ import annotations

from .capacity import replay
from .instance import Instance
from .routing import RouteSet


def verify_routes(cr: RouteSet, inst: Instance) -> bool:
    """True iff every route still meets windows, horizon and range with its
    legs, in the numbers of `inst.ticks`."""
    ticks = inst.ticks
    return all(
        replay(r, ticks) is not None and r.length * ticks.charge <= ticks.full
        for r in cr)
