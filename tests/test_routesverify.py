"""Fast route re-check after path changes: windows and charge budget."""

from cfevrp.driver import shortest_path_map
from cfevrp.graph import Path
from cfevrp.routesverify import verify_routes
from cfevrp.routing import Route, RouteSet, solve_routing


def detour_route_set(inst):
    """v2's route with the long way to node 2, as the corridor requires."""
    g = inst.graph
    legs = (
        g.path_between((6, 7, 4, 3, 2)),  # length 4
        g.path_between((2, 3, 4)),
        g.path_between((4, 7, 6)),
    )
    return RouteSet((Route(6, ("j21", "j31"), legs),), frozenset())


def test_shortest_paths_after_routing_verify(corridor):
    sp = shortest_path_map(corridor)
    cr = solve_routing(corridor, sp, [])
    assert verify_routes(cr, corridor)


def test_detour_route_still_verifies(corridor):
    cr = detour_route_set(corridor)
    assert cr.routes[0].length == 8.0  # within the operating range of 10
    # arrival at j21: t = 4, inside [2, 5]
    assert verify_routes(cr, corridor)


def test_late_arrival_fails(corridor):
    g = corridor.graph
    legs = (
        g.path_between((6, 7, 4, 3, 2)),
        Path((2, 3, 4), 6.0),  # inflated middle leg: j31 missed
        g.path_between((4, 7, 6)),
    )
    cr = RouteSet((Route(6, ("j21", "j31"), legs),), frozenset())
    assert not verify_routes(cr, corridor)


def test_charge_budget_exceeded_fails(corridor):
    g = corridor.graph
    legs = (
        Path((6, 7, 4, 3, 2), 4.0),
        Path((2, 3, 4), 2.0),
        Path((4, 7, 6), 5.0),  # total 11 > operating range 10
    )
    cr = RouteSet((Route(6, ("j21", "j31"), legs),), frozenset())
    assert not verify_routes(cr, corridor)


def test_waiting_for_a_window_is_allowed(corridor):
    g = corridor.graph
    # v1 reaches node 5 at t=2 after a distance-2 leg; with a distance-1
    # stand-in it would arrive at 1 and must wait until the window opens
    legs = (Path((1, 5), 1.0), Path((5, 1), 1.0))
    cr = RouteSet((Route(1, ("j11",), legs),), frozenset())
    assert verify_routes(cr, corridor)


def test_monotone_in_leg_lengths(corridor):
    base = detour_route_set(corridor)
    assert verify_routes(base, corridor)
    # shrinking any leg can only help
    for i in range(3):
        legs = list(base.routes[0].legs)
        old = legs[i]
        legs[i] = Path(old.nodes, old.length / 2)
        cr = RouteSet((Route(6, ("j21", "j31"), tuple(legs)),), frozenset())
        assert verify_routes(cr, corridor)
