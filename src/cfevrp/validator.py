"""Solver-free checking: schedule validation and a brute-force oracle.

validate_schedule replays a schedule against every problem requirement
using plain arithmetic.  brute_force_feasible exhaustively enumerates
route partitions, vehicle maps, and simple-path combinations on tiny
instances, deciding timing feasibility exactly by case-splitting the
conflict disjunctions over a difference-constraint system.  That system
works in integer ticks: every bound of a candidate is scaled by the LCM of
the denominators of its exact Fraction value, so nothing is rounded, and
route lengths are summed in integer ticks the same way.  One potential (a
solution of the constraints so far) lives across the whole disjunction
search; each chosen disjunct adds one edge, repaired incrementally, and
backtracking restores the potential from a trail.

Nothing here shares code with the constraint-solving pipeline; this module
is the ground truth the pipeline is tested against.  It takes only the
Schedule type from capacity.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .capacity import Schedule
from .errors import MalformedSchedule, TooLarge
from .graph import NodeId, PlantGraph
from .instance import Instance

# validate_schedule compares with this slack: a schedule file carries its
# times as float text, and a time such as 1/3 does not survive the round
# trip exactly.  The oracle below decides on exact numbers and uses none.
_TOL = 1e-6

_MAX_CANDIDATES = 2_000_000  # the oracle gives up after this many

NODE_CAPACITY = "NodeCapacity"
EDGE_CAPACITY_DIRECT = "EdgeCapacityDirect"
EDGE_CAPACITY_OPPOSITE = "EdgeCapacityOpposite"
TIME_WINDOW = "TimeWindow"
PRECEDENCE = "Precedence"
OPERATING_RANGE = "OperatingRange"
ELIGIBILITY = "Eligibility"
CHARGING_GAP = "ChargingGap"
JOB_CONTIGUITY = "JobContiguity"
HORIZON = "Horizon"
SERVICE_TIME = "ServiceTime"


class Violation(NamedTuple):
    kind: str
    route: int | None
    time: float | None
    detail: str


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def validate_schedule(cvs: Schedule, inst: Instance) -> ValidationReport:
    """Check a schedule against every requirement; collect all violations."""
    g = inst.graph
    _check_structure(cvs, inst)
    bad: list[Violation] = []

    # completeness: every task served exactly once
    where: dict[str, tuple[int, int]] = {}
    for ri, rs in enumerate(cvs.routes):
        for p, tids in enumerate(rs.position_tasks):
            for t in tids:
                if t not in inst.tasks:
                    raise MalformedSchedule(f"unknown task {t}")
                if inst.tasks[t].location != rs.nodes[p]:
                    raise MalformedSchedule(
                        f"task {t} served at node {rs.nodes[p]}, "
                        f"its location is {inst.tasks[t].location}")
                if t in where:
                    raise MalformedSchedule(f"task {t} served twice")
                where[t] = (ri, p)
    missing = set(inst.task_ids()) - set(where)
    if missing:
        raise MalformedSchedule(f"tasks {sorted(missing)} never served")

    for ri, rs in enumerate(cvs.routes):
        veh = inst.vehicles.get(rs.vehicle)
        if veh is None:
            raise MalformedSchedule(f"unknown vehicle {rs.vehicle}")
        eligible = set(inst.vehicles)
        for t in rs.tasks:
            eligible &= inst.job_of(t).eligible_vehicles
        if rs.vehicle not in eligible:
            bad.append(Violation(
                ELIGIBILITY, ri, None,
                f"{rs.vehicle} not eligible for jobs on route {ri}"))
        elif veh.depot != rs.depot:
            bad.append(Violation(
                ELIGIBILITY, ri, None,
                f"{rs.vehicle} is stationed at {veh.depot}, route leaves {rs.depot}"))

        # time windows and service times at served positions
        for p, tids in enumerate(rs.position_tasks):
            arr = rs.node_in[p]
            for t in tids:
                w = inst.tasks[t].window
                if arr < w.lower - _TOL or arr > w.upper + _TOL:
                    bad.append(Violation(
                        TIME_WINDOW, ri, arr,
                        f"task {t} served at {float(arr)}, "
                        f"window [{float(w.lower)},{float(w.upper)}]"))
            service = sum(inst.tasks[t].service_time for t in tids)
            if rs.node_out[p] < arr + service - _TOL:  # node_out is edge_in
                bad.append(Violation(
                    SERVICE_TIME, ri, rs.node_out[p],
                    f"route {ri} leaves node {rs.nodes[p]} before its service ends"))

        # jobs must run contiguously inside one route
        job_seq = [inst.tasks[t].job for t in rs.tasks]
        for jid in set(job_seq):
            idxs = [i for i, j in enumerate(job_seq) if j == jid]
            if idxs != list(range(idxs[0], idxs[-1] + 1)):
                bad.append(Violation(
                    JOB_CONTIGUITY, ri, None,
                    f"job {jid} interleaved with other jobs on route {ri}"))

        # operating range
        spent = inst.fleet.discharge_coeff * rs.length / inst.fleet.speed
        budget = inst.fleet.operating_range / inst.fleet.charge_to_range
        if spent > budget + _TOL:
            bad.append(Violation(
                OPERATING_RANGE, ri, None,
                f"route {ri} needs charge {float(spent)}, budget {float(budget)}"))

        # back at the depot by the horizon
        end, T = rs.node_out[-1], inst.fleet.horizon
        if end > T + _TOL:
            bad.append(Violation(
                HORIZON, ri, end,
                f"route {ri} is back at {float(end)}, past T={float(T)}"))

    # jobs split across routes also break contiguity
    for jid in sorted(inst.jobs):
        routes_used = {where[t][0] for t in inst.jobs[jid].tasks}
        if len(routes_used) > 1:
            bad.append(Violation(
                JOB_CONTIGUITY, None, None,
                f"job {jid} split across routes {sorted(routes_used)}"))

    # precedence among tasks of one job
    for t in inst.tasks.values():
        for pred in t.predecessors:
            ti = cvs.routes[where[t.id][0]].node_in[where[t.id][1]]
            pi = cvs.routes[where[pred][0]].node_in[where[pred][1]]
            if ti < pi - _TOL:
                bad.append(Violation(
                    PRECEDENCE, where[t.id][0], ti,
                    f"task {t.id} at {float(ti)} precedes its predecessor "
                    f"{pred} at {float(pi)}"))

    bad.extend(_capacity_violations(cvs, g, inst.fleet.speed))
    bad.extend(_charging_violations(cvs, inst))
    return ValidationReport(not bad, tuple(bad))


def _check_structure(cvs: Schedule, inst: Instance) -> None:
    g = inst.graph
    for ri, rs in enumerate(cvs.routes):
        n = len(rs.nodes)
        if not (len(rs.node_in) == len(rs.node_out) == len(rs.position_tasks) == n):
            raise MalformedSchedule(f"route {ri}: ragged node lists")
        if len(rs.edges) != max(n - 1, 0) or len(rs.edge_in) != len(rs.edges):
            raise MalformedSchedule(f"route {ri}: ragged edge lists")
        if n == 0 or rs.nodes[0] != rs.depot or rs.nodes[-1] != rs.depot:
            raise MalformedSchedule(f"route {ri} does not start/end at its depot")
        for q, e in enumerate(rs.edges):
            if e not in g.edges:
                raise MalformedSchedule(f"route {ri}: unknown edge {e}")
            if e != (rs.nodes[q], rs.nodes[q + 1]):
                raise MalformedSchedule(f"route {ri}: edge {e} breaks the chain")
            d = g.edges[e].length / inst.fleet.speed
            if abs(rs.node_in[q + 1] - (rs.edge_in[q] + d)) > _TOL:
                raise MalformedSchedule(
                    f"route {ri}: transit time over {e} is not {float(d)}")
            if rs.node_out[q] != rs.edge_in[q]:
                raise MalformedSchedule(
                    f"route {ri}: node_out disagrees with the next edge entry")
        for p, node in enumerate(rs.nodes):
            if rs.node_out[p] < rs.node_in[p] - _TOL:
                raise MalformedSchedule(
                    f"route {ri}: leaves node {node} before arriving")
        length = sum(g.edges[e].length for e in rs.edges)
        if abs(rs.length - length) > _TOL:
            raise MalformedSchedule(
                f"route {ri}: length {float(rs.length)}, its edges' {float(length)}")
        served = tuple(t for tids in rs.position_tasks for t in tids)
        if tuple(rs.tasks) != served:
            raise MalformedSchedule(
                f"route {ri}: task order {rs.tasks}, served order {served}")


def _capacity_violations(
    cvs: Schedule, g: PlantGraph, speed: float,
) -> list[Violation]:
    bad: list[Violation] = []
    routes = cvs.routes
    for r1 in range(len(routes)):
        for r2 in range(r1 + 1, len(routes)):
            a, b = routes[r1], routes[r2]
            # nodes: one vehicle at a time plus the one-unit swap margin
            for p1, n1 in enumerate(a.nodes):
                for p2, n2 in enumerate(b.nodes):
                    if n1 != n2 or n1 in g.hubs:
                        continue
                    ok = False
                    if p2 < len(b.edges):
                        ok = ok or a.node_in[p1] >= b.edge_in[p2] + 1 - _TOL
                    if p1 < len(a.edges):
                        ok = ok or b.node_in[p2] >= a.edge_in[p1] + 1 - _TOL
                    if not ok:
                        bad.append(Violation(
                            NODE_CAPACITY, r1, a.node_in[p1],
                            f"routes {r1} and {r2} clash at node {n1}"))
            for q1, e1 in enumerate(a.edges):
                if g.edges[e1].capacity != 1:
                    continue
                for q2, e2 in enumerate(b.edges):
                    t1, t2 = a.edge_in[q1], b.edge_in[q2]
                    if e1 == e2:
                        if abs(t1 - t2) < 1 - _TOL:
                            bad.append(Violation(
                                EDGE_CAPACITY_DIRECT, r1, max(t1, t2),
                                f"routes {r1} and {r2} enter edge {e1} "
                                f"at {float(t1)} and {float(t2)}"))
                    elif e1 == (e2[1], e2[0]):
                        d1 = g.edges[e1].length / speed
                        d2 = g.edges[e2].length / speed
                        if not (t1 >= t2 + d2 - _TOL or t2 >= t1 + d1 - _TOL):
                            bad.append(Violation(
                                EDGE_CAPACITY_OPPOSITE, r1, max(t1, t2),
                                f"routes {r1} and {r2} cross on segment {e1}"))
    return bad


def _charging_violations(cvs: Schedule, inst: Instance) -> list[Violation]:
    bad: list[Violation] = []
    C = inst.fleet.charge_coeff
    by_vehicle: dict[str, list[int]] = {}
    for ri, rs in enumerate(cvs.routes):
        by_vehicle.setdefault(rs.vehicle, []).append(ri)
    for v, idxs in by_vehicle.items():
        idxs.sort(key=lambda ri: cvs.routes[ri].node_in[0])
        for prev, cur in zip(idxs, idxs[1:]):
            prev_end = cvs.routes[prev].node_out[-1]
            need = C * cvs.routes[cur].length
            start = cvs.routes[cur].node_in[0]
            if start < prev_end + need - _TOL:
                bad.append(Violation(
                    CHARGING_GAP, cur, start,
                    f"{v} starts route {cur} at {float(start)}, needs charge "
                    f"until {float(prev_end + need)}"))
    return bad


# ---------------------------------------------------------------------------
# Brute-force feasibility oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleStats:
    candidates: int = 0
    timing_checks: int = 0


@dataclass(frozen=True)
class OracleVerdict:
    feasible: bool
    best_total_distance: Fraction | None
    stats: OracleStats = field(default_factory=OracleStats, compare=False)


_DiffEdge = tuple[int, int, int]  # (u, v, w): x[v] - x[u] <= w


class _Potential:
    """A difference-constraint system kept feasible one edge at a time.

    Each constraint x[v] - x[u] <= w is an edge u -> v of weight w, and
    `pot` is one solution of all edges pushed so far.  A push that `pot`
    already satisfies costs nothing; otherwise `pot[v]` is lowered and the
    change relaxed forward from v.  The system has a negative cycle exactly
    when that relaxation lowers u: every lowered value is pot[u] + w plus a
    path from v, so a lower pot[u] closes a cycle through u -> v of negative
    weight, and if u is never lowered the relaxed `pot` satisfies every
    edge.  The old potentials go on a trail so that `pop` restores them
    (incremental negative-cycle detection, Cotton & Maler 2006).
    """

    def __init__(self, n: int) -> None:
        self.pot = [0] * n
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.trail: list[tuple[int, int]] = []   # (node, potential before)
        self.marks: list[tuple[int, int]] = []   # (u, trail length) per push

    def push(self, u: int, v: int, w: int) -> bool:
        """Add x[v] - x[u] <= w; False when the system has become infeasible.

        After False, pop this edge before pushing another.
        """
        self.out[u].append((v, w))
        self.marks.append((u, len(self.trail)))
        pot = self.pot
        if pot[u] + w >= pot[v]:
            return True
        out, trail = self.out, self.trail
        trail.append((v, pot[v]))
        pot[v] = pot[u] + w
        queue = [v]
        for x in queue:  # FIFO: the loop sees what is appended below
            px = pot[x]
            for y, wy in out[x]:
                if px + wy < pot[y]:
                    if y == u:
                        return False
                    trail.append((y, pot[y]))
                    pot[y] = px + wy
                    queue.append(y)
        return True

    def pop(self) -> None:
        """Remove the last pushed edge and restore the potential before it."""
        u, mark = self.marks.pop()
        self.out[u].pop()
        pot, trail = self.pot, self.trail
        while len(trail) > mark:
            node, before = trail.pop()
            pot[node] = before


def _ticks(value: Fraction, scale: int) -> int:
    """`value * scale` as an int; the scale must make it whole."""
    ticks, rest = divmod(value.numerator * scale, value.denominator)
    assert rest == 0, f"{value} is not a whole number of 1/{scale} units"
    return ticks


class _Clock(NamedTuple):
    """An instance's times in integer ticks of 1/scale time units.

    `scale` is the LCM of the denominators of T, the task windows and
    service times and every edge's length/speed, so each of these is a
    whole number of ticks (as is the 1-unit margin: `scale` ticks).  C's
    denominator is in it too, which makes the charging gap C*len whole for
    whole route lengths; `_timing_ok` refines the ticks when it is not.
    """
    scale: int
    horizon: int
    transit: dict[tuple[NodeId, NodeId], int]
    lower: dict[str, int]
    upper: dict[str, int]
    service: dict[str, int]
    charge_coeff: Fraction


def _clock(inst: Instance) -> _Clock:
    fleet = inst.fleet
    speed, horizon, charge_coeff = fleet.speed, fleet.horizon, fleet.charge_coeff
    transit = {e: edge.length / speed for e, edge in inst.graph.edges.items()}
    lower = {t.id: t.window.lower for t in inst.tasks.values()}
    upper = {t.id: t.window.upper for t in inst.tasks.values()}
    service = {t.id: t.service_time for t in inst.tasks.values()}
    scale = lcm(horizon.denominator, charge_coeff.denominator, *(
        f.denominator for table in (transit, lower, upper, service)
        for f in table.values()))

    def ticks(table):
        return {k: _ticks(f, scale) for k, f in table.items()}

    return _Clock(scale, _ticks(horizon, scale), ticks(transit), ticks(lower),
                  ticks(upper), ticks(service), charge_coeff)


class _Ruler(NamedTuple):
    """An instance's lengths in integer ticks of 1/scale length units.

    `scale` is the LCM of the edge lengths' denominators.  `per_charge` is
    the longest route a full charge allows, D*len/v <= OR/rho, rounded
    down to whole ticks; route lengths are whole, so nothing is lost.
    """
    scale: int
    edge: dict[tuple[NodeId, NodeId], int]
    per_charge: int


def _ruler(inst: Instance) -> _Ruler:
    fleet = inst.fleet
    edges = inst.graph.edges
    scale = lcm(*(edge.length.denominator for edge in edges.values()))
    per_charge = (fleet.operating_range * fleet.speed
                  / (fleet.charge_to_range * fleet.discharge_coeff))
    return _Ruler(scale, {e: _ticks(edge.length, scale) for e, edge in edges.items()},
                  per_charge.numerator * scale // per_charge.denominator)


def _simple_paths(
    succ: dict[NodeId, list[NodeId]], src: NodeId, dst: NodeId,
) -> list[tuple[NodeId, ...]]:
    """Every simple path src -> dst, in lexicographic node order."""
    if src == dst:
        return [(src,)]
    found: list[tuple[NodeId, ...]] = []

    def walk(seq: list[NodeId]) -> None:
        if seq[-1] == dst:
            found.append(tuple(seq))
            return
        for d in succ[seq[-1]]:
            if d not in seq:
                seq.append(d)
                walk(seq)
                seq.pop()

    walk([src])
    return found


def _ordered_partitions(items: list[str]):
    """All ways to split items into a set of nonempty ordered sequences."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _ordered_partitions(rest):
        # head starts a new sequence
        yield [[head]] + [list(s) for s in part]
        # head inserted into an existing sequence at any position
        for i, seq in enumerate(part):
            for pos in range(len(seq) + 1):
                new = [list(s) for s in part]
                new[i] = seq[:pos] + [head] + seq[pos:]
                yield new


def brute_force_feasible(inst: Instance) -> OracleVerdict:
    """Exhaustive feasibility check for tiny instances.

    Enumerates ordered task partitions x depot anchors x vehicle maps x
    simple-path combinations, then decides each candidate's timing by
    exploring orientations of the conflict disjunctions over an exact
    difference-constraint system.  Times are integer ticks (every bound
    scaled by the LCM of its denominators, never rounded).  The base
    system of a candidate is checked once; each disjunct the search picks
    adds one edge and repairs a single potential incrementally, and
    backtracking undoes that repair.
    """
    if len(inst.tasks) > 4 or len(inst.vehicles) > 3 or len(inst.graph.nodes) > 8:
        raise TooLarge("oracle guard: at most 4 tasks, 3 vehicles, 8 nodes")
    stats = OracleStats()
    g = inst.graph
    clock = _clock(inst)
    ruler = _ruler(inst)
    succ: dict[NodeId, list[NodeId]] = {n: [] for n in g.nodes}
    for s, d in sorted(g.edges):  # sorted: paths come out in lexicographic order
        succ[s].append(d)
    tasks = inst.task_ids()
    best: int | None = None  # in ruler ticks

    path_cache: dict[tuple[NodeId, NodeId], list[tuple[NodeId, ...]]] = {}
    leg_len: dict[tuple[NodeId, ...], int] = {}  # each cached path, in ticks

    def paths(a: NodeId, b: NodeId):
        if (a, b) not in path_cache:
            found = path_cache[(a, b)] = _simple_paths(succ, a, b)
            for leg in found:
                leg_len[leg] = sum(ruler.edge[e] for e in zip(leg, leg[1:]))
        return path_cache[(a, b)]

    for part in _ordered_partitions(tasks):
        if not _jobs_ok(part, inst):
            continue
        for depots in product(inst.depots, repeat=len(part)):
            vehicle_pools = []
            for seq, o in zip(part, depots):
                pool = set(inst.vehicles_at(o))
                for t in seq:
                    pool &= inst.job_of(t).eligible_vehicles
                vehicle_pools.append(sorted(pool))
            if any(not p for p in vehicle_pools):
                continue
            for vehicles in product(*vehicle_pools):
                leg_options = []
                ok = True
                for seq, o in zip(part, depots):
                    locs = [o] + [inst.tasks[t].location for t in seq] + [o]
                    opts = [paths(a, b) for a, b in zip(locs, locs[1:])]
                    if any(not x for x in opts):
                        ok = False
                        break
                    leg_options.append(opts)
                if not ok:
                    continue
                flat = [opts for route_opts in leg_options for opts in route_opts]
                for combo in product(*flat):
                    stats.candidates += 1
                    if stats.candidates > _MAX_CANDIDATES:
                        raise TooLarge("oracle candidate budget exhausted")
                    total = sum([leg_len[leg] for leg in combo])
                    if best is not None and total >= best:
                        continue  # cannot improve the witness
                    legs_per_route = _regroup(combo, leg_options)
                    route_len = [sum([leg_len[leg] for leg in legs])
                                 for legs in legs_per_route]
                    if any(n > ruler.per_charge for n in route_len):
                        continue  # out of range
                    if _timing_ok(inst, clock, part, depots, vehicles,
                                  legs_per_route,
                                  [Fraction(n, ruler.scale) for n in route_len],
                                  stats):
                        best = total
    if best is None:
        return OracleVerdict(False, None, stats)
    return OracleVerdict(True, Fraction(best, ruler.scale), stats)


def _jobs_ok(part: list[list[str]], inst: Instance) -> bool:
    seen_route: dict[str, int] = {}
    for ri, seq in enumerate(part):
        jobs_seq = [inst.tasks[t].job for t in seq]
        for jid in jobs_seq:
            if jid in seen_route and seen_route[jid] != ri:
                return False
            seen_route[jid] = ri
        for jid in set(jobs_seq):
            idxs = [i for i, j in enumerate(jobs_seq) if j == jid]
            if idxs != list(range(idxs[0], idxs[-1] + 1)):
                return False
        # precedence is checked here only for order inside the route;
        # arrival-time precedence is implied by the visit order plus timing
        pos = {t: i for i, t in enumerate(seq)}
        for t in seq:
            for pred in inst.tasks[t].predecessors:
                if pred in pos and pos[pred] > pos[t]:
                    return False
    return True


def _regroup(combo, leg_options):
    out = []
    idx = 0
    for route_opts in leg_options:
        out.append(list(combo[idx:idx + len(route_opts)]))
        idx += len(route_opts)
    return out


def _timing_ok(inst, clock, part, depots, vehicles, legs_per_route,
               route_len, stats) -> bool:
    """Exact timing feasibility for one fully decided candidate, whose
    routes have the lengths route_len."""
    g = inst.graph

    # charging gaps C*len in ticks, for routes whose vehicle runs another
    # route too; where one is not whole, every tick is split k ways
    charge = {r: clock.charge_coeff * clock.scale * route_len[r]
              for r in range(len(part)) if vehicles.count(vehicles[r]) > 1}
    k = lcm(*(c.denominator for c in charge.values()))
    T = clock.horizon * k
    one = clock.scale * k

    # flatten each route into positions/edges with merged co-located stops
    route_nodes: list[list[NodeId]] = []
    route_lower: list[list[int]] = []
    route_upper: list[list[int]] = []
    route_service: list[list[int]] = []
    route_edges: list[list[tuple[NodeId, NodeId]]] = []
    for seq, o, legs in zip(part, depots, legs_per_route):
        nodes = [o]
        lo, up, sv = [0], [T], [0]
        edges: list[tuple[NodeId, NodeId]] = []
        for li, leg in enumerate(legs):
            for a, b in zip(leg, leg[1:]):
                edges.append((a, b))
                nodes.append(b)
                lo.append(0)
                up.append(T)
                sv.append(0)
            if li < len(seq):
                t = seq[li]
                lo[-1] = max(lo[-1], clock.lower[t] * k)
                up[-1] = min(up[-1], clock.upper[t] * k)
                sv[-1] += clock.service[t] * k
        up[-1] = min(up[-1], T - sv[-1])  # its last service ends by T
        route_nodes.append(nodes)
        route_lower.append(lo)
        route_upper.append(up)
        route_service.append(sv)
        route_edges.append(edges)

    # variable layout: per route, x for positions then y for edges; the
    # zero reference comes last
    var_of_x: list[list[int]] = []
    var_of_y: list[list[int]] = []
    nv = 0
    for nodes, edges in zip(route_nodes, route_edges):
        var_of_x.append(list(range(nv, nv + len(nodes))))
        nv += len(nodes)
        var_of_y.append(list(range(nv, nv + len(edges))))
        nv += len(edges)
    ref = nv

    # every time is nonnegative already: x >= lower >= 0 and y >= x
    base: list[_DiffEdge] = []
    for r in range(len(part)):
        xs, ys = var_of_x[r], var_of_y[r]
        for q, e in enumerate(route_edges[r]):
            d = clock.transit[e] * k
            base.append((ys[q], xs[q], -route_service[r][q]))  # y >= x + S
            base.append((ys[q], xs[q + 1], d))     # x <= y + d
            base.append((xs[q + 1], ys[q], -d))    # y <= x - d
        for p in range(len(xs)):
            base.append((xs[p], ref, -route_lower[r][p]))  # x >= lower
            base.append((ref, xs[p], route_upper[r][p]))   # x <= upper

    system = _Potential(nv + 1)
    stats.timing_checks += 1
    # back to front: a chain edge then lowers a node whose own edges back
    # along the route are not in the system yet, so little is relaxed
    for u, v, w in reversed(base):
        if not system.push(u, v, w):
            return False

    # disjunctions: node swaps, edge sharing, opposite edges, charging gaps
    disjunctions: list[list[_DiffEdge]] = []
    for r1 in range(len(part)):
        for r2 in range(r1 + 1, len(part)):
            for p1, n1 in enumerate(route_nodes[r1]):
                for p2, n2 in enumerate(route_nodes[r2]):
                    if n1 != n2 or n1 in g.hubs:
                        continue
                    opts: list[_DiffEdge] = []
                    if p2 < len(route_edges[r2]):  # x1 >= y2 + 1
                        opts.append((var_of_x[r1][p1], var_of_y[r2][p2], -one))
                    if p1 < len(route_edges[r1]):  # x2 >= y1 + 1
                        opts.append((var_of_x[r2][p2], var_of_y[r1][p1], -one))
                    if opts:
                        disjunctions.append(opts)
            for q1, e1 in enumerate(route_edges[r1]):
                if g.edges[e1].capacity != 1:
                    continue
                for q2, e2 in enumerate(route_edges[r2]):
                    y1, y2 = var_of_y[r1][q1], var_of_y[r2][q2]
                    if e1 == e2:
                        disjunctions.append([(y1, y2, -one), (y2, y1, -one)])
                    elif e1 == (e2[1], e2[0]):
                        d1 = clock.transit[e1] * k
                        d2 = clock.transit[e2] * k
                        disjunctions.append([(y1, y2, -d2), (y2, y1, -d1)])
            if vehicles[r1] == vehicles[r2]:
                end1, end2 = var_of_x[r1][-1], var_of_x[r2][-1]
                gap1 = route_service[r2][-1] + _ticks(charge[r1], k)
                gap2 = route_service[r1][-1] + _ticks(charge[r2], k)
                disjunctions.append([
                    (var_of_x[r1][0], end2, -gap1),  # r1 starts after r2
                    (var_of_x[r2][0], end1, -gap2),  # r2 starts after r1
                ])

    def search(i: int) -> bool:
        if i == len(disjunctions):
            return True
        for u, v, w in disjunctions[i]:
            stats.timing_checks += 1
            if system.push(u, v, w) and search(i + 1):
                return True
            system.pop()
        return False

    return search(0)
