"""Solver-free checking: schedule validation and a brute-force oracle.

validate_schedule replays a schedule against every problem requirement
using plain arithmetic.  brute_force_feasible exhaustively enumerates
route partitions, vehicle maps, and simple-path combinations on tiny
instances, deciding timing feasibility exactly by case-splitting the
conflict disjunctions over a difference-constraint system.

Nothing here shares code with the constraint-solving pipeline; this module
is the ground truth the pipeline is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .capacity import Schedule
from .errors import MalformedSchedule, TooLarge
from .graph import NodeId, PlantGraph
from .instance import Instance

_TOL = 1e-6

NODE_CAPACITY = "NodeCapacity"
EDGE_CAPACITY_DIRECT = "EdgeCapacityDirect"
EDGE_CAPACITY_OPPOSITE = "EdgeCapacityOpposite"
TIME_WINDOW = "TimeWindow"
PRECEDENCE = "Precedence"
OPERATING_RANGE = "OperatingRange"
ELIGIBILITY = "Eligibility"
CHARGING_GAP = "ChargingGap"
JOB_CONTIGUITY = "JobContiguity"

ALL_KINDS = (
    NODE_CAPACITY, EDGE_CAPACITY_DIRECT, EDGE_CAPACITY_OPPOSITE, TIME_WINDOW,
    PRECEDENCE, OPERATING_RANGE, ELIGIBILITY, CHARGING_GAP, JOB_CONTIGUITY,
)


@dataclass(frozen=True)
class Violation:
    kind: str
    route: int | None
    time: float | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
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
    missing = set(inst.real_task_ids()) - set(where)
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

        # time windows at served positions
        for p, tids in enumerate(rs.position_tasks):
            for t in tids:
                w = inst.tasks[t].window
                arr = rs.node_in[p]
                if arr < w.lower - _TOL or arr > w.upper + _TOL:
                    bad.append(Violation(
                        TIME_WINDOW, ri, arr,
                        f"task {t} served at {arr}, window [{w.lower},{w.upper}]"))

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
                f"route {ri} needs charge {spent}, budget {budget}"))

    # jobs split across routes also break contiguity
    for jid in sorted(inst.jobs):
        if jid.startswith("__"):
            continue
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
                    f"task {t.id} at {ti} precedes its predecessor {pred} at {pi}"))

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
                    f"route {ri}: transit time over {e} is not {d}")
            if rs.edge_in[q] < rs.node_in[q] - _TOL:
                raise MalformedSchedule(
                    f"route {ri}: leaves node {rs.nodes[q]} before arriving")
            if rs.node_out[q] != rs.edge_in[q]:
                raise MalformedSchedule(
                    f"route {ri}: node_out disagrees with the next edge entry")


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
                for q2, e2 in enumerate(b.edges):
                    if g.edges[e1].capacity != 1:
                        continue
                    t1, t2 = a.edge_in[q1], b.edge_in[q2]
                    if e1 == e2:
                        if abs(t1 - t2) < 1 - _TOL:
                            bad.append(Violation(
                                EDGE_CAPACITY_DIRECT, r1, max(t1, t2),
                                f"routes {r1} and {r2} enter edge {e1} "
                                f"at {t1} and {t2}"))
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
                    f"{v} starts route {cur} at {start}, needs charge "
                    f"until {prev_end + need}"))
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
    best_total_distance: float | None
    stats: OracleStats = field(default_factory=OracleStats, compare=False)


_DiffCon = tuple[int, int, Fraction]  # var_a - var_b <= bound


def _diff_feasible(n_vars: int, cons: list[_DiffCon]) -> bool:
    """Bellman-Ford feasibility of a difference-constraint system.

    Variables are implicitly nonnegative; var -1 is the zero reference.
    """
    dist = [Fraction(0)] * (n_vars + 1)  # slot n_vars is the reference
    edges = [(b if b >= 0 else n_vars, a if a >= 0 else n_vars, c)
             for a, b, c in cons]
    for v in range(n_vars):
        edges.append((v, n_vars, Fraction(0)))  # 0 - v <= 0
    for _ in range(n_vars + 1):
        changed = False
        for u, v, wgt in edges:
            if dist[u] + wgt < dist[v]:
                dist[v] = dist[u] + wgt
                changed = True
        if not changed:
            return True
    return False


def _simple_paths(g: PlantGraph, src: NodeId, dst: NodeId) -> list[tuple[NodeId, ...]]:
    if src == dst:
        return [(src,)]
    found: list[tuple[NodeId, ...]] = []

    def walk(seq: list[NodeId]) -> None:
        if seq[-1] == dst:
            found.append(tuple(seq))
            return
        for (s, d) in sorted(g.edges):
            if s == seq[-1] and d not in seq:
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


def brute_force_feasible(inst: Instance, max_candidates: int = 2_000_000) -> OracleVerdict:
    """Exhaustive feasibility check for tiny instances.

    Enumerates ordered task partitions x depot anchors x vehicle maps x
    simple-path combinations, then decides each candidate's timing by
    exploring orientations of the conflict disjunctions over an exact
    difference-constraint system.
    """
    if len(inst.tasks) > 4 or len(inst.vehicles) > 3 or len(inst.graph.nodes) > 8:
        raise TooLarge("oracle guard: at most 4 tasks, 3 vehicles, 8 nodes")
    stats = OracleStats()
    g = inst.graph
    fleet = inst.fleet
    tasks = inst.real_task_ids()
    best: float | None = None

    path_cache: dict[tuple[NodeId, NodeId], list[tuple[NodeId, ...]]] = {}

    def paths(a: NodeId, b: NodeId):
        if (a, b) not in path_cache:
            path_cache[(a, b)] = _simple_paths(g, a, b)
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
                    if stats.candidates > max_candidates:
                        raise TooLarge("oracle candidate budget exhausted")
                    total = _candidate_distance(g, combo)
                    if best is not None and total >= best:
                        continue  # cannot improve the witness
                    legs_per_route = _regroup(combo, leg_options)
                    if not _range_ok(g, legs_per_route, fleet):
                        continue
                    if _timing_ok(inst, part, depots, vehicles,
                                  legs_per_route, stats):
                        best = total
    return OracleVerdict(best is not None, best, stats)


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


def _candidate_distance(g: PlantGraph, combo) -> float:
    total = 0.0
    for seq in combo:
        for a, b in zip(seq, seq[1:]):
            total += g.edges[(a, b)].length
    return total


def _route_len(g: PlantGraph, legs) -> float:
    return sum(
        g.edges[(a, b)].length
        for leg in legs for a, b in zip(leg, leg[1:])
    )


def _range_ok(g, legs_per_route, fleet) -> bool:
    budget = fleet.operating_range / fleet.charge_to_range
    for legs in legs_per_route:
        if fleet.discharge_coeff * _route_len(g, legs) / fleet.speed > budget + _TOL:
            return False
    return True


def _timing_ok(inst, part, depots, vehicles, legs_per_route, stats) -> bool:
    """Exact timing feasibility for one fully decided candidate."""
    g = inst.graph
    fleet = inst.fleet
    v = Fraction(fleet.speed)

    # flatten each route into positions/edges with merged co-located stops
    route_nodes: list[list[NodeId]] = []
    route_lower: list[list[Fraction]] = []
    route_upper: list[list[Fraction]] = []
    route_service: list[list[Fraction]] = []
    route_edges: list[list[tuple[NodeId, NodeId]]] = []
    T = Fraction(fleet.horizon)
    for seq, o, legs in zip(part, depots, legs_per_route):
        nodes = [o]
        lo, up, sv = [Fraction(0)], [T], [Fraction(0)]
        edges: list[tuple[NodeId, NodeId]] = []
        for li, leg in enumerate(legs):
            for a, b in zip(leg, leg[1:]):
                edges.append((a, b))
                nodes.append(b)
                lo.append(Fraction(0))
                up.append(T)
                sv.append(Fraction(0))
            if li < len(seq):
                t = inst.tasks[seq[li]]
                lo[-1] = max(lo[-1], Fraction(t.window.lower))
                up[-1] = min(up[-1], Fraction(t.window.upper))
                sv[-1] += Fraction(t.service_time)
        route_nodes.append(nodes)
        route_lower.append(lo)
        route_upper.append(up)
        route_service.append(sv)
        route_edges.append(edges)

    # variable layout: per route, x for positions then y for edges
    var_of_x: list[list[int]] = []
    var_of_y: list[list[int]] = []
    nv = 0
    for nodes, edges in zip(route_nodes, route_edges):
        var_of_x.append(list(range(nv, nv + len(nodes))))
        nv += len(nodes)
        var_of_y.append(list(range(nv, nv + len(edges))))
        nv += len(edges)

    base: list[_DiffCon] = []
    for r in range(len(part)):
        xs, ys = var_of_x[r], var_of_y[r]
        for q, e in enumerate(route_edges[r]):
            base.append((xs[q], ys[q], -route_service[r][q]))  # y >= x + S
            d = Fraction(g.edges[e].length) / v
            base.append((xs[q + 1], ys[q], d))    # x <= y + d
            base.append((ys[q], xs[q + 1], -d))   # y <= x - d
        for p in range(len(xs)):
            base.append((-1, xs[p], -route_lower[r][p]))  # x >= lower
            base.append((xs[p], -1, route_upper[r][p]))   # x <= upper

    # disjunctions: node swaps, edge sharing, opposite edges, charging gaps
    disjunctions: list[list[_DiffCon]] = []
    one = Fraction(1)
    for r1 in range(len(part)):
        for r2 in range(r1 + 1, len(part)):
            for p1, n1 in enumerate(route_nodes[r1]):
                for p2, n2 in enumerate(route_nodes[r2]):
                    if n1 != n2 or n1 in g.hubs:
                        continue
                    opts: list[_DiffCon] = []
                    if p2 < len(route_edges[r2]):
                        opts.append((var_of_y[r2][p2], var_of_x[r1][p1], -one))
                    if p1 < len(route_edges[r1]):
                        opts.append((var_of_y[r1][p1], var_of_x[r2][p2], -one))
                    if opts:
                        disjunctions.append(opts)
            for q1, e1 in enumerate(route_edges[r1]):
                for q2, e2 in enumerate(route_edges[r2]):
                    if g.edges[e1].capacity != 1:
                        continue
                    y1, y2 = var_of_y[r1][q1], var_of_y[r2][q2]
                    if e1 == e2:
                        disjunctions.append([(y2, y1, -one), (y1, y2, -one)])
                    elif e1 == (e2[1], e2[0]):
                        d1 = Fraction(g.edges[e1].length) / v
                        d2 = Fraction(g.edges[e2].length) / v
                        disjunctions.append([(y2, y1, -d2), (y1, y2, -d1)])
            if vehicles[r1] == vehicles[r2]:
                C = Fraction(fleet.charge_coeff)
                len1 = Fraction(_route_len(g, legs_per_route[r1]))
                len2 = Fraction(_route_len(g, legs_per_route[r2]))
                end1 = (var_of_x[r1][-1], route_service[r1][-1])
                end2 = (var_of_x[r2][-1], route_service[r2][-1])
                disjunctions.append([
                    (end2[0], var_of_x[r1][0], -(end2[1] + C * len1)),
                    (end1[0], var_of_x[r2][0], -(end1[1] + C * len2)),
                ])

    def search(i: int, chosen: list[_DiffCon]) -> bool:
        stats.timing_checks += 1
        if not _diff_feasible(nv, base + chosen):
            return False
        if i == len(disjunctions):
            return True
        return any(
            search(i + 1, chosen + [opt]) for opt in disjunctions[i]
        )

    return search(0, [])
