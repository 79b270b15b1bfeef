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
        self.theta: dict[tuple[str, str], S.VarRef] = {}
        self.gamma: dict[str, S.VarRef] = {}
        self.eps: dict[str, S.VarRef] = {}
        self.start_indicators: list[S.VarRef] = []
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
            self.theta[p] = ctx.new_bool(f"theta[{p[0]},{p[1]}]")

        for tid in real + starts + ends:
            self.gamma[tid] = ctx.new_real(f"gamma[{tid}]")
            self.eps[tid] = ctx.new_real(f"eps[{tid}]")
            ctx.assert_formula(S.var_le(self.eps[tid], full))
            if tid in inst.tasks:
                w = inst.tasks[tid].window
                ctx.assert_formula(S.var_ge(self.gamma[tid], w.lower))
                ctx.assert_formula(S.var_le(self.gamma[tid], w.upper))
            else:
                ctx.assert_formula(S.var_le(self.gamma[tid], T))
        for s in starts:
            # vehicles leave the depot at full charge
            ctx.assert_formula(S.var_eq(self.eps[s], full))

        # travel propagates time forward and charge downward
        for (a, b), var in self.theta.items():
            d = Fraction(self._dist(a, b))
            v = Fraction(fleet.speed)
            ctx.assert_formula(S.implies(
                S.bvar(var),
                S.diff_ge(self.gamma[b], self.gamma[a],
                          Fraction(self._service(a)) + d / v),
            ))
            ctx.assert_formula(S.implies(
                S.bvar(var),
                S.lin([(1, self.eps[b]), (-1, self.eps[a])], "<=",
                      -Fraction(fleet.discharge_coeff) * d / v),
            ))

        # no direct travel between mutually exclusive jobs
        for k1 in real:
            for k2 in real:
                if k1 == k2:
                    continue
                if inst.tasks[k2].job in mex[inst.tasks[k1].job]:
                    ctx.assert_formula(S.not_(S.bvar(self.theta[(k1, k2)])))

        # every task has exactly one successor and one predecessor
        for k in real:
            outgoing = [self.theta[(k, k2)] for k2 in real if k2 != k]
            outgoing += [self.theta[(k, f)] for f in ends]
            ctx.assert_formula(S.exactly(outgoing, 1))
            incoming = [self.theta[(k2, k)] for k2 in real if k2 != k]
            incoming += [self.theta[(s, k)] for s in starts]
            ctx.assert_formula(S.exactly(incoming, 1))

        # depot coherence: every chain stays anchored to one depot, which
        # also forces each start dummy's chain to close at its own end dummy
        if len(inst.depots) > 1:
            delta: dict[tuple[str, NodeId], S.VarRef] = {}
            for k in real:
                for o in inst.depots:
                    delta[(k, o)] = ctx.new_bool(f"anchor[{k},{o}]")
                ctx.assert_formula(
                    S.exactly([delta[(k, o)] for o in inst.depots], 1)
                )
            for o in inst.depots:
                s, f = inst.start_tasks[o].id, inst.end_tasks[o].id
                for k in real:
                    ctx.assert_formula(S.implies(
                        S.bvar(self.theta[(s, k)]), S.bvar(delta[(k, o)])))
                    ctx.assert_formula(S.implies(
                        S.bvar(self.theta[(k, f)]), S.bvar(delta[(k, o)])))
            for k1 in real:
                for k2 in real:
                    if k1 == k2:
                        continue
                    for o in inst.depots:
                        ctx.assert_formula(S.implies(
                            S.bvar(self.theta[(k1, k2)]),
                            S.iff(S.bvar(delta[(k1, o)]), S.bvar(delta[(k2, o)])),
                        ))

        # multi-task jobs run contiguously in some order
        for jid in sorted(inst.jobs):
            tasks = inst.jobs[jid].tasks
            if len(tasks) < 2:
                continue
            alternatives = []
            for ord_ in permutations(tasks):
                links = [
                    S.bvar(self.theta[(a, b)])
                    for a, b in zip(ord_, ord_[1:])
                ]
                alternatives.append(S.and_(*links))
            ctx.assert_formula(S.or_(*alternatives))

        # precedence within a job
        for k in real:
            for k_prev in sorted(inst.tasks[k].predecessors):
                ctx.assert_formula(
                    S.diff_ge(self.gamma[k], self.gamma[k_prev], 0))

        # rule out previously returned route sets
        for lits in pr:
            ctx.assert_formula(S.or_(*[
                S.not_(S.bvar(self.theta[p])) for p in sorted(lits)
            ]))

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
        if m.value(var) is True:
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
               if m.value(var) is True)


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
        model.ctx.assert_formula(S.at_most(starts, k))
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
