"""Route construction: serve every task within its window, minimize routes.

Builds a task-successor model: Boolean travel indicators on the links
between stops that some route can use, and per task two reals, its
arrival time and the charge used so far.  Every route leaves a depot's
start anchor and returns to its end anchor.  An anchor has no reals: a
route leaves at time 0 with nothing used and is back by T having used at
most a full charge, so a link to or from an anchor bounds the task's own.
One model serves a whole solve: `route_sets` yields its route sets by
route count, then by total distance, and blocks each one in place, so none
is returned twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator

from . import solver as S
from .errors import MalformedChain
from .graph import NodeId, Path
from .instance import Instance, Ticks


@dataclass(frozen=True)
class Route:
    depot: NodeId
    tasks: tuple[str, ...]
    legs: tuple[Path, ...]  # len(tasks) + 1: depot->t1->...->tn->depot

    @property
    def length(self) -> int:  # in graph units, as the legs'
        return sum(leg.length for leg in self.legs)

    def locations(self, inst: Instance) -> tuple[NodeId, ...]:
        return (self.depot,) + tuple(
            inst.tasks[t].location for t in self.tasks
        ) + (self.depot,)


@dataclass(frozen=True)
class RouteSet:
    routes: tuple[Route, ...]
    ticks: Ticks = field(compare=False, repr=False)  # the solve's numbers


PathMap = dict[tuple[NodeId, NodeId], Path]


@dataclass(frozen=True)
class Anchor:
    """A depot as the routing model's start (or end) of routes: a key of
    its own type, so that no task id can equal it."""
    depot: NodeId
    end: bool

    def __str__(self) -> str:
        return f"__{'end' if self.end else 'start'}_{self.depot}"


Stop = str | Anchor  # a task id or an anchor


class RoutingModel:
    """Model plus the variable maps needed for extraction."""

    def __init__(self, inst: Instance, cp: PathMap, ticks: Ticks):
        self.inst = inst
        self.cp = cp
        self.ticks = ticks
        self.ctx = S.Context()
        self.theta: dict[tuple[Stop, Stop], int] = {}  # travel a -> b
        self.dist: dict[tuple[Stop, Stop], int] = {}  # its length
        self.start_indicators: list[int] = []
        self._build()

    def _build(self) -> None:
        inst, ctx, ticks = self.inst, self.ctx, self.ticks
        real = inst.task_ids()
        starts = [Anchor(o, end=False) for o in inst.depots]
        ends = [Anchor(o, end=True) for o in inst.depots]
        full = ticks.full
        # per stop: its node, earliest time, service, latest time and the
        # vehicles that may serve it (an anchor's: those at its depot)
        stops = {a: (a.depot, 0, 0, ticks.horizon,
                     frozenset(inst.vehicles_at(a.depot))) for a in starts + ends}
        for k in real:
            stops[k] = (inst.tasks[k].location, ticks.lower[k],
                        ticks.service[k], ticks.upper[k],
                        inst.job_of(k).eligible_vehicles)

        pairs: list[tuple[Stop, Stop]] = []
        for s in starts:
            for k in real:
                pairs.append((s, k))
        for k1 in real:
            for k2 in real:
                if k1 != k2:
                    pairs.append((k1, k2))
        for k in real:
            for f in ends:
                pairs.append((k, f))
        # a link exists only where some route can use it: its ends share a
        # vehicle (the assignment stage puts a route on a vehicle stationed
        # at its depot and eligible for all its jobs), b can be reached in
        # b's window from a's earliest time, and one full charge covers it
        for a, b in pairs:
            loc_a, early, service, _, va = stops[a]
            loc_b, _, _, late, vb = stops[b]
            d = self.cp[(loc_a, loc_b)].length
            if (va & vb and early + service + d * ticks.travel <= late
                    and d * ticks.charge <= full):
                self.theta[(a, b)] = ctx.new_bool()
                self.dist[(a, b)] = d

        # per task its arrival time and the charge used so far
        gamma: dict[str, int] = {}
        used: dict[str, int] = {}
        for k in real:
            gamma[k], used[k] = ctx.new_real(), ctx.new_real()
            # x <= c is the atom x - 0 <= c, and x >= c is 0 - x <= -c
            ctx.assert_formula(ctx.le(0, gamma[k], -ticks.lower[k]))
            ctx.assert_formula(ctx.le(gamma[k], 0, ticks.upper[k]))
        # no time passes on a link from a task without service to a task at
        # its node, so such links could close a cycle with no depot: ranks
        # that grow along them forbid it
        rank: dict[str, int] = {}

        def rank_of(k: str) -> int:
            if k not in rank:
                rank[k] = ctx.new_real()
            return rank[k]

        # travel propagates time forward and the charge used upward; an
        # anchor is the zero node plus a constant, 0 at a start and T or a
        # full charge at an end
        for (a, b), var in self.theta.items():
            d = self.dist[(a, b)]
            step, drain = stops[a][2] + d * ticks.travel, d * ticks.charge
            if isinstance(a, Anchor):
                ctx.assert_formula(-var, ctx.le(0, gamma[b], -step))
                ctx.assert_formula(-var, ctx.le(0, used[b], -drain))
            elif isinstance(b, Anchor):
                ctx.assert_formula(-var, ctx.le(gamma[a], 0, ticks.horizon - step))
                ctx.assert_formula(-var, ctx.le(used[a], 0, full - drain))
            else:
                ctx.assert_formula(-var, ctx.le(gamma[a], gamma[b], -step))
                ctx.assert_formula(-var, ctx.le(used[a], used[b], -drain))
                if step == 0:
                    ctx.assert_formula(-var, ctx.le(rank_of(a), rank_of(b), -1))

        def links(pairs) -> list[int]:
            return [self.theta[p] for p in pairs if p in self.theta]

        # every task has exactly one successor and one predecessor
        for k in real:
            ctx.exactly(links((k, b) for b in real + ends), 1)
            ctx.exactly(links((a, k) for a in real + starts), 1)

        # depot coherence: every chain stays anchored to one depot, which
        # also forces each start anchor's chain to close at its own end
        if len(inst.depots) > 1:
            delta: dict[tuple[str, NodeId], int] = {}
            for k in real:
                for o in inst.depots:
                    delta[(k, o)] = ctx.new_bool()
                ctx.exactly([delta[(k, o)] for o in inst.depots], 1)
            for (a, b), link in self.theta.items():
                if isinstance(a, Anchor):
                    ctx.assert_formula(-link, delta[(b, a.depot)])
                elif isinstance(b, Anchor):
                    ctx.assert_formula(-link, delta[(a, b.depot)])
                else:
                    for o in inst.depots:
                        d1, d2 = delta[(a, o)], delta[(b, o)]
                        ctx.assert_formula(-link, -d1, d2)
                        ctx.assert_formula(-link, d1, -d2)

        # multi-task jobs run contiguously in some order that has its links
        for jid in sorted(inst.jobs):
            tasks = inst.jobs[jid].tasks
            if len(tasks) < 2:
                continue
            alternatives = []
            for ord_ in permutations(tasks):
                order_links = links(zip(ord_, ord_[1:]))
                if len(order_links) < len(ord_) - 1:
                    continue
                if len(order_links) == 1:
                    alternatives.append(order_links[0])
                    continue
                # one Boolean per order, true only if all its links are
                chosen = ctx.new_bool()
                for link in order_links:
                    ctx.assert_formula(-chosen, link)
                alternatives.append(chosen)
            ctx.assert_formula(*alternatives)

        # precedence within a job
        for k in real:
            for k_prev in sorted(inst.tasks[k].predecessors):
                ctx.assert_formula(ctx.le(gamma[k_prev], gamma[k], 0))

        self.start_indicators = links((s, k) for s in starts for k in real)


def extract_routes(m: S.Model, model: RoutingModel) -> RouteSet:
    """Reconstruct routes by chasing successor links from each start anchor."""
    inst = model.inst
    real = set(inst.task_ids())
    succ: dict[str, Stop] = {}
    true_lits: set[tuple[Stop, Stop]] = set()
    for pair, var in model.theta.items():
        if m.value(var):
            true_lits.add(pair)
            if pair[0] in real:
                # start anchors may head several routes; tasks may not
                if pair[0] in succ:
                    raise MalformedChain(f"{pair[0]} has two successors")
                succ[pair[0]] = pair[1]
    routes: list[Route] = []
    served: set[str] = set()
    for o in inst.depots:
        s, f = Anchor(o, end=False), Anchor(o, end=True)
        # several routes may leave one depot: walk each outgoing link
        heads = sorted(b for (a, b) in true_lits if a == s)
        for head in heads:
            chain: list[str] = []
            cur = head
            while cur in real:
                if cur in served:
                    raise MalformedChain(f"task {cur} visited twice")
                served.add(cur)
                chain.append(cur)
                if cur not in succ:
                    raise MalformedChain(f"chain breaks after {cur}")
                cur = succ[cur]
            if cur != f:
                raise MalformedChain(
                    f"chain from depot {o} ends at {cur}, expected {f}")
            locs = [o] + [inst.tasks[t].location for t in chain] + [o]
            legs = tuple(model.cp[(a, b)] for a, b in zip(locs, locs[1:]))
            routes.append(Route(o, tuple(chain), legs))
    if served != real:
        raise MalformedChain(f"tasks {sorted(real - served)} not on any route")
    ticks = model.ticks
    for r in routes:
        if r.length * ticks.charge > ticks.full:
            raise MalformedChain(
                f"route at depot {r.depot} exceeds the charge budget")
    return RouteSet(tuple(routes), ticks)


def _model_distance(m: S.Model, model: RoutingModel) -> int:
    return sum(model.dist[p] for p, var in model.theta.items() if m.value(var))


def route_sets(inst: Instance, cp: PathMap, ticks: Ticks) -> Iterator[RouteSet]:
    """Every route set of the instance, fewest routes first, then shortest.

    At each route count, the route sets of that count are enumerated once
    under a guarded cap and blocked as they are found, then yielded by
    total distance, ties in the order found.  Blocking only removes route
    sets, so the next count is searched from one above the last.
    """
    model = RoutingModel(inst, cp, ticks)
    ctx = model.ctx
    starts = model.start_indicators
    theta_vars = list(model.theta.values())
    lower = 0
    while (res := ctx.minimize(starts, lower=lower)).sat:
        k = len(res.model.true_vars(starts))
        cap = ctx.new_bool()
        ctx.at_most(starts, k, cap)
        found = []
        while res.sat:
            found.append((_model_distance(res.model, model), res.model))
            ctx.block_model(theta_vars, res.model)
            res = ctx.check([cap])
        found.sort(key=lambda dm: dm[0])  # stable: ties stay in found order
        for _, m in found:
            yield extract_routes(m, model)
        lower = k + 1
