"""Route construction: serve every task within its window, minimize routes.

Builds a task-successor model: Boolean travel indicators between task
locations, arrival-time and remaining-charge reals per task, depot dummy
tasks anchoring each route.  The route count is minimized and previously
returned route sets are excluded by blocking clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import solver as S
from .errors import MalformedChain
from .graph import NodeId, Path
from .instance import Instance, mutually_exclusive_jobs


@dataclass(frozen=True)
class Route:
    depot: NodeId
    tasks: tuple[str, ...]
    legs: tuple[Path, ...]  # len(tasks) + 1: depot->t1->...->tn->depot

    @property
    def length(self) -> float:
        return sum(leg.length for leg in self.legs)

    def locations(self, inst: Instance) -> tuple[NodeId, ...]:
        return (self.depot,) + tuple(
            inst.tasks[t].location for t in self.tasks
        ) + (self.depot,)

    def with_legs(self, legs: tuple[Path, ...]) -> "Route":
        assert len(legs) == len(self.legs)
        return Route(self.depot, self.tasks, legs)


ThetaLits = frozenset[tuple[str, str]]


@dataclass(frozen=True)
class RouteSet:
    routes: tuple[Route, ...]
    theta_lits: ThetaLits


PathMap = dict[tuple[NodeId, NodeId], Path]


class RoutingModel:
    """Model plus the variable maps needed for extraction."""

    def __init__(self, inst: Instance, cp: PathMap, pr: list[ThetaLits]):
        self.inst = inst
        self.cp = cp
        self.ctx = S.Context()
        self.theta: dict[tuple[str, str], int] = {}  # travel a -> b
        self.gamma: dict[str, int] = {}  # arrival time
        self.eps: dict[str, int] = {}  # remaining charge
        self.start_indicators: list[int] = []
        self._build(pr)

    def _loc(self, tid: str) -> NodeId:
        inst = self.inst
        if tid in inst.tasks:
            return inst.tasks[tid].location
        for o in inst.depots:
            if inst.start_tasks[o].id == tid or inst.end_tasks[o].id == tid:
                return o
        raise KeyError(tid)

    def _service(self, tid: str) -> float:
        return self.inst.tasks[tid].service_time if tid in self.inst.tasks else 0.0

    def _dist(self, a: str, b: str) -> float:
        return self.cp[(self._loc(a), self._loc(b))].length

    def _build(self, pr: list[ThetaLits]) -> None:
        inst, ctx = self.inst, self.ctx
        real = inst.real_task_ids()
        starts = [inst.start_tasks[o].id for o in inst.depots]
        ends = [inst.end_tasks[o].id for o in inst.depots]
        fleet = inst.fleet
        full = Fraction(fleet.operating_range) / Fraction(fleet.charge_to_range)
        T = fleet.horizon
        mex = mutually_exclusive_jobs(inst)

        pairs: list[tuple[str, str]] = []
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
        for p in pairs:
            self.theta[p] = ctx.new_bool()

        for tid in real + starts + ends:
            gamma = self.gamma[tid] = ctx.new_real()
            eps = self.eps[tid] = ctx.new_real()
            # x <= c is the atom x - 0 <= c, and x >= c is 0 - x <= -c
            ctx.assert_formula(ctx.le(eps, 0, full))
            if tid in inst.tasks:
                w = inst.tasks[tid].window
                ctx.assert_formula(ctx.le(0, gamma, -Fraction(w.lower)))
                ctx.assert_formula(ctx.le(gamma, 0, w.upper))
            else:
                ctx.assert_formula(ctx.le(gamma, 0, T))
        for s in starts:
            # vehicles leave the depot at full charge (at most full: above)
            ctx.assert_formula(ctx.le(0, self.eps[s], -full))

        # travel propagates time forward and charge downward
        for (a, b), var in self.theta.items():
            d = Fraction(self._dist(a, b))
            v = Fraction(fleet.speed)
            ctx.assert_formula(-var, ctx.le(
                self.gamma[a], self.gamma[b], -(Fraction(self._service(a)) + d / v)))
            ctx.assert_formula(-var, ctx.le(
                self.eps[b], self.eps[a], -Fraction(fleet.discharge_coeff) * d / v))

        # no direct travel between mutually exclusive jobs
        for k1 in real:
            for k2 in real:
                if k1 == k2:
                    continue
                if inst.tasks[k2].job in mex[inst.tasks[k1].job]:
                    ctx.assert_formula(-self.theta[(k1, k2)])

        # every task has exactly one successor and one predecessor
        for k in real:
            outgoing = [self.theta[(k, k2)] for k2 in real if k2 != k]
            outgoing += [self.theta[(k, f)] for f in ends]
            ctx.exactly(outgoing, 1)
            incoming = [self.theta[(k2, k)] for k2 in real if k2 != k]
            incoming += [self.theta[(s, k)] for s in starts]
            ctx.exactly(incoming, 1)

        # depot coherence: every chain stays anchored to one depot, which
        # also forces each start dummy's chain to close at its own end dummy
        if len(inst.depots) > 1:
            delta: dict[tuple[str, NodeId], int] = {}
            for k in real:
                for o in inst.depots:
                    delta[(k, o)] = ctx.new_bool()
                ctx.exactly([delta[(k, o)] for o in inst.depots], 1)
            for o in inst.depots:
                s, f = inst.start_tasks[o].id, inst.end_tasks[o].id
                for k in real:
                    ctx.assert_formula(-self.theta[(s, k)], delta[(k, o)])
                    ctx.assert_formula(-self.theta[(k, f)], delta[(k, o)])
            for k1 in real:
                for k2 in real:
                    if k1 == k2:
                        continue
                    link = self.theta[(k1, k2)]
                    for o in inst.depots:
                        d1, d2 = delta[(k1, o)], delta[(k2, o)]
                        ctx.assert_formula(-link, -d1, d2)
                        ctx.assert_formula(-link, d1, -d2)

        # multi-task jobs run contiguously in some order
        for jid in sorted(inst.jobs):
            tasks = inst.jobs[jid].tasks
            if len(tasks) < 2:
                continue
            alternatives = []
            for ord_ in permutations(tasks):
                links = [self.theta[(a, b)] for a, b in zip(ord_, ord_[1:])]
                if len(links) == 1:
                    alternatives.append(links[0])
                    continue
                # one Boolean per order, true only if all its links are
                chosen = ctx.new_bool()
                for link in links:
                    ctx.assert_formula(-chosen, link)
                alternatives.append(chosen)
            ctx.assert_formula(*alternatives)

        # precedence within a job
        for k in real:
            for k_prev in sorted(inst.tasks[k].predecessors):
                ctx.assert_formula(ctx.le(self.gamma[k_prev], self.gamma[k], 0))

        # rule out previously returned route sets
        for lits in pr:
            ctx.assert_formula(*[-self.theta[p] for p in sorted(lits)])

        self.start_indicators = [
            self.theta[(s, k)] for s in starts for k in real
        ]


def extract_routes(m: S.Model, model: RoutingModel) -> RouteSet:
    """Reconstruct routes by chasing successor links from each start dummy."""
    inst = model.inst
    real = set(inst.real_task_ids())
    succ: dict[str, str] = {}
    true_lits: set[tuple[str, str]] = set()
    for pair, var in model.theta.items():
        if m.value(var):
            true_lits.add(pair)
            if pair[0] in real:
                # start dummies may head several routes; tasks may not
                if pair[0] in succ:
                    raise MalformedChain(f"{pair[0]} has two successors")
                succ[pair[0]] = pair[1]
    routes: list[Route] = []
    served: set[str] = set()
    for o in inst.depots:
        s, f = inst.start_tasks[o].id, inst.end_tasks[o].id
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
    fleet = inst.fleet
    budget = (fleet.operating_range / fleet.charge_to_range) * fleet.speed \
        / fleet.discharge_coeff
    for r in routes:
        if r.length > budget + 1e-9:
            raise MalformedChain(
                f"route at depot {r.depot} exceeds the charge budget")
    return RouteSet(tuple(routes), frozenset(true_lits))


def _model_distance(m: S.Model, model: RoutingModel) -> float:
    return sum(model._dist(a, b)
               for (a, b), var in model.theta.items()
               if m.value(var))


def solve_routing(
    inst: Instance, cp: PathMap, pr: list[ThetaLits]
) -> RouteSet | None:
    """Minimal-route-count route set not previously returned, or None.

    Among the route sets attaining the minimal count, the one with the
    smallest total travel distance is returned; this keeps the first
    accepted solution optimal whenever no path change is needed later.
    """
    model = RoutingModel(inst, cp, pr)
    starts = model.start_indicators
    res = model.ctx.minimize(starts)
    if not res.sat:
        return None
    k = len(res.model.true_vars(starts))
    if k < len(starts):
        model.ctx.at_most(starts, k)
    best_m, best_d = res.model, _model_distance(res.model, model)
    theta_vars = [model.theta[p] for p in sorted(model.theta)]
    if theta_vars:
        # the route count is capped at its optimum, so this walks exactly
        # the route sets at the optimum
        model.ctx.block_model(theta_vars, best_m)
        while True:
            nxt = model.ctx.check()
            if not nxt.sat:
                break
            d = _model_distance(nxt.model, model)
            if d < best_d - 1e-9:
                best_m, best_d = nxt.model, d
            model.ctx.block_model(theta_vars, nxt.model)
    return extract_routes(best_m, model)
