"""Fast route re-check after path changes: windows, horizon and charge
budget."""

import dataclasses

from cfevrp.driver import shortest_path_map
from cfevrp.graph import Path
from cfevrp.instance import Ticks
from cfevrp.routesverify import verify_routes
from cfevrp.routing import Route, RouteSet, route_sets


def detour_route_set(inst):
    """v2's route with the long way to node 2, as the corridor requires."""
    g = inst.graph
    legs = (
        g.path_between((6, 7, 4, 3, 2)),  # length 4
        g.path_between((2, 3, 4)),
        g.path_between((4, 7, 6)),
    )
    return RouteSet((Route(6, ("j21", "j31"), legs),), Ticks(inst))


def test_shortest_paths_after_routing_verify(corridor):
    sp = shortest_path_map(corridor)
    cr = next(route_sets(corridor, sp, Ticks(corridor)), None)
    assert verify_routes(cr)


def test_detour_route_still_verifies(corridor):
    cr = detour_route_set(corridor)
    assert cr.routes[0].length == 8.0  # within the operating range of 10
    # arrival at j21: t = 4, inside [2, 5]
    assert verify_routes(cr)


def test_late_arrival_fails(corridor):
    g = corridor.graph
    legs = (
        g.path_between((6, 7, 4, 3, 2)),
        Path((2, 3, 4), 6),  # inflated middle leg: j31 missed
        g.path_between((4, 7, 6)),
    )
    cr = RouteSet((Route(6, ("j21", "j31"), legs),), Ticks(corridor))
    assert not verify_routes(cr)


def test_detour_back_after_the_horizon_fails(corridor):
    # With T = 9, v2's shortest route is back at 8 and the detour at 10:
    # it still meets both windows (j21 at 4, j31 at 7) and the range (8).
    inst = dataclasses.replace(
        corridor, fleet=dataclasses.replace(corridor.fleet, horizon=9))
    legs = (
        inst.graph.path_between((6, 5, 2)),
        inst.graph.path_between((2, 3, 4)),
        inst.graph.path_between((4, 7, 6)),
    )
    assert verify_routes(
        RouteSet((Route(6, ("j21", "j31"), legs),), Ticks(inst)))
    assert not verify_routes(detour_route_set(inst))


def test_charge_budget_exceeded_fails(corridor):
    g = corridor.graph
    legs = (
        Path((6, 7, 4, 3, 2), 4),
        Path((2, 3, 4), 2),
        Path((4, 7, 6), 5),  # total 11 > operating range 10
    )
    cr = RouteSet((Route(6, ("j21", "j31"), legs),), Ticks(corridor))
    assert not verify_routes(cr)


def test_waiting_for_a_window_is_allowed(corridor):
    g = corridor.graph
    # v1 reaches node 5 at t=2 after a distance-2 leg; with a distance-1
    # stand-in it would arrive at 1 and must wait until the window opens
    legs = (Path((1, 5), 1), Path((5, 1), 1))
    cr = RouteSet((Route(1, ("j11",), legs),), Ticks(corridor))
    assert verify_routes(cr)


def test_monotone_in_leg_lengths(corridor):
    base = detour_route_set(corridor)
    assert verify_routes(base)
    # shrinking any leg can only help
    for i in range(3):
        legs = list(base.routes[0].legs)
        old = legs[i]
        legs[i] = Path(old.nodes, old.length // 2)
        cr = RouteSet((Route(6, ("j21", "j31"), tuple(legs)),),
                      Ticks(corridor))
        assert verify_routes(cr)
