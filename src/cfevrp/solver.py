"""Constraint-solving backend: Boolean logic plus difference arithmetic.

A self-contained DPLL(T) engine: a CDCL SAT core over the Boolean skeleton,
with arithmetic atoms delegated to a difference-logic theory solver
(negative-cycle detection over rational bounds with an infinitesimal
component for strict inequalities).  Cardinality constraints use a totalizer
encoding, and minimization of indicator counts runs a descending linear
search over the totalizer outputs; it can start from a known lower bound,
so a context that only gains clauses re-minimizes under an assumption
instead of starting over.

The SAT core propagates with two watched literals, keeps its trail in
lists indexed by variable and picks each decision from a heap ordered by
(activity, index).  It calls the theory on every complete assignment and
learns each negative cycle as a clause inside the same search, so one
check() is one SAT search.  The theory check runs Bellman-Ford on
integers: the bounds are scaled by the LCM of their denominators, and each
infinitesimal count is packed into the same int, so the integer
comparisons decide exactly as the rational ones would.

Every model this backend deals in is exact: real values are Fractions.
The fragment is deliberately small -- linear atoms must normalize to
``x - y <= c``, ``x <= c`` or ``x >= c`` -- which covers all sub-problem
models in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence, Union

from .errors import SortError, UnsupportedConstraint

BOOL = "bool"
REAL = "real"

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class VarRef:
    idx: int
    name: str
    sort: str

    def __repr__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Formula trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class BoolLit(Formula):
    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    """Boolean occurrence of a Boolean variable."""

    var: VarRef


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Ite(Formula):
    cond: Formula
    then: Formula
    other: Formula


@dataclass(frozen=True)
class LinCmp(Formula):
    """sum(coeff * var) op const, with op in {<=, >=, ==}."""

    terms: tuple[tuple[Fraction, VarRef], ...]
    op: str
    const: Fraction


@dataclass(frozen=True)
class ExactlyN(Formula):
    vars: tuple[VarRef, ...]
    n: int


@dataclass(frozen=True)
class AtMostN(Formula):
    vars: tuple[VarRef, ...]
    n: int


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def bvar(v: VarRef) -> Formula:
    if v.sort != BOOL:
        raise SortError(f"{v.name} is not Boolean")
    return Atom(v)


def not_(f: Formula) -> Formula:
    return Not(f)


def and_(*fs: Formula) -> Formula:
    return And(tuple(fs))


def or_(*fs: Formula) -> Formula:
    return Or(tuple(fs))


def implies(a: Formula, b: Formula) -> Formula:
    return Implies(a, b)


def iff(a: Formula, b: Formula) -> Formula:
    return Iff(a, b)


def ite(c: Formula, t: Formula, e: Formula) -> Formula:
    return Ite(c, t, e)


def exactly(vars: Iterable[VarRef], n: int) -> Formula:
    return ExactlyN(tuple(vars), n)


def at_most(vars: Iterable[VarRef], n: int) -> Formula:
    return AtMostN(tuple(vars), n)


def lin(terms: Iterable[tuple[Number, VarRef]], op: str, const: Number) -> Formula:
    assert op in ("<=", ">=", "==")
    tt = tuple((Fraction(c), v) for c, v in terms)
    for _, v in tt:
        if v.sort != REAL:
            raise SortError(f"{v.name} is not real-sorted")
    return LinCmp(tt, op, Fraction(const))


def diff_ge(x: VarRef, y: VarRef, c: Number) -> Formula:
    """x >= y + c"""
    return lin([(1, x), (-1, y)], ">=", c)


def var_le(x: VarRef, c: Number) -> Formula:
    return lin([(1, x)], "<=", c)


def var_ge(x: VarRef, c: Number) -> Formula:
    return lin([(1, x)], ">=", c)


def var_eq(x: VarRef, c: Number) -> Formula:
    return lin([(1, x)], "==", c)


def diff_eq(x: VarRef, y: VarRef, c: Number) -> Formula:
    """x == y + c"""
    return lin([(1, x), (-1, y)], "==", c)


# ---------------------------------------------------------------------------
# Models and results
# ---------------------------------------------------------------------------

class Model:
    def __init__(self, assignment: dict[VarRef, object]):
        self._assignment = assignment

    def value(self, v: VarRef):
        return self._assignment[v]

    def true_vars(self, vars: Iterable[VarRef]) -> frozenset[VarRef]:
        return frozenset(v for v in vars if self._assignment[v] is True)


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    model: Model | None = None


# ---------------------------------------------------------------------------
# The CDCL core
# ---------------------------------------------------------------------------

class _SatCore:
    """Small CDCL solver with a theory hook.  Literals are nonzero ints;
    variable v has literals v, -v.

    Clauses of two or more literals are watched on their first two
    positions (two watched literals, as in Chaff); unit clauses are kept
    apart and put on level 0 when a search starts.  Conflicts are analysed
    to the first UIP, learned, and undone by backjumping.

    The theory callback sees every complete assignment and returns the
    distinct literals of an inconsistent subset, or None.  The negation of
    that subset is learned on the spot: with one literal on its top level
    it is asserted after a backjump, with several it is analysed like a
    conflict, and on level 0 it ends the search unsat.  This is DPLL(T)
    with the theory checked on complete assignments only.

    Assumptions are handled as forced decisions on their own levels, so
    every learned clause is a consequence of the clause database and the
    theory alone and stays valid across calls.

    Decisions take the free variable of highest activity, lowest index
    first, and set it false.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.units: list[int] = []
        # watches[lit]: indices of the clauses watching lit in position 0 or 1
        self.watches: dict[int, list[int]] = {}
        self.empty_clause = False
        self.activity: list[float] = [0.0]  # indexed by variable; 0 unused

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        self.watches[v] = []
        self.watches[-v] = []
        self.activity.append(0.0)
        return v

    def add_clause(self, lits: Sequence[int]) -> int | None:
        """Add a clause, returning its index (None if dropped as tautology)."""
        distinct = set(lits)
        if any(-l in distinct for l in distinct):
            return None
        if not distinct:
            self.empty_clause = True
            return None
        return self._store(sorted(distinct, key=abs))

    def _store(self, clause: list[int]) -> int:
        """Append a clause of distinct literals, watching its first two."""
        idx = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) == 1:
            self.units.append(clause[0])
        else:
            self.watches[clause[0]].append(idx)
            self.watches[clause[1]].append(idx)
        return idx

    # -- main search ------------------------------------------------------

    def solve(self, assumptions: Sequence[int],
              theory: Callable[[Sequence[bool | None]], list[int] | None],
              ) -> list[bool | None] | None:
        """Return a satisfying assignment indexed by variable, or None.

        Entry 0 of the list is unused; every other entry is True or False.
        `theory` is called on each complete assignment as described above.
        """
        if self.empty_clause:
            return None
        n = self.nvars
        clauses = self.clauses
        activity = self.activity
        # val[lit] is the value of literal lit, and watch[lit] its watch
        # list: positive literals sit at 1..n, negative ones at n+1..2n
        # through Python's negative indexing.
        val: list[bool | None] = [None] * (2 * n + 1)
        watch: list[list[int]] = [[]] * (2 * n + 1)
        for lit, ws in self.watches.items():
            watch[lit] = ws
        level = [0] * (n + 1)
        reason: list[int | None] = [None] * (n + 1)
        trail: list[int] = []
        lim: list[int] = []
        # Decision heap with lazy deletion.  queued[v] says that v has an
        # entry carrying its current activity.  Analysis bumps assigned
        # variables only, and backtracking queues each variable it frees, so
        # every free variable is queued and its current entry surfaces
        # before its stale ones.  Entries of assigned variables are skipped.
        heap = [(-activity[v], v) for v in range(1, n + 1)]
        heapify(heap)
        queued = [True] * (n + 1)

        def enqueue(lit: int, why: int | None) -> None:
            val[lit] = True
            val[-lit] = False
            v = lit if lit > 0 else -lit
            level[v] = len(lim)
            reason[v] = why
            trail.append(lit)

        head = 0

        def propagate() -> int | None:
            """Unit propagation; returns a conflicting clause index or None.

            A clause is visited only when one of its two watched literals
            becomes false; it then watches another non-false literal, or
            is unit on its other watch, or is conflicting.
            """
            nonlocal head
            cur_level = len(lim)
            while head < len(trail):
                false_lit = -trail[head]
                head += 1
                ws = watch[false_lit]
                i = j = 0
                end = len(ws)
                while i < end:
                    ci = ws[i]
                    i += 1
                    c = clauses[ci]
                    if c[0] == false_lit:
                        c[0] = c[1]
                        c[1] = false_lit
                    first = c[0]
                    if val[first]:
                        ws[j] = ci
                        j += 1
                        continue
                    for k in range(2, len(c)):
                        other = c[k]
                        if val[other] is not False:
                            c[1] = other
                            c[k] = false_lit
                            watch[other].append(ci)
                            break
                    else:
                        ws[j] = ci
                        j += 1
                        if val[first] is None:
                            val[first] = True
                            val[-first] = False
                            v = first if first > 0 else -first
                            level[v] = cur_level
                            reason[v] = ci
                            trail.append(first)
                        else:
                            del ws[j:i]
                            return ci
                del ws[j:]
            return None

        def analyze(conflict_ci: int) -> list[int]:
            """1UIP conflict analysis; returns the learned clause, its
            asserting literal first."""
            cur_level = len(lim)
            seen: set[int] = set()
            learned: list[int] = []
            counter = 0
            lits = clauses[conflict_ci]
            idx = len(trail) - 1
            while True:
                for lit in lits:
                    v = abs(lit)
                    if v in seen or level[v] == 0:
                        continue
                    seen.add(v)
                    activity[v] += 1.0
                    queued[v] = False
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(lit)
                while idx >= 0 and abs(trail[idx]) not in seen:
                    idx -= 1
                assert idx >= 0, "conflict analysis ran off the trail"
                uip_lit = trail[idx]
                idx -= 1
                seen.discard(abs(uip_lit))
                counter -= 1
                if counter == 0:
                    return [-uip_lit, *learned]
                why = reason[abs(uip_lit)]
                assert why is not None, "non-UIP literal must have a reason"
                lits = clauses[why][1:]  # a reason clause implies its first literal

        def backtrack(to_level: int) -> None:
            nonlocal head
            if len(lim) > to_level:
                mark = lim[to_level]
                del lim[to_level:]
                for lit in trail[mark:]:
                    val[lit] = val[-lit] = None
                    v = lit if lit > 0 else -lit
                    if not queued[v]:
                        heappush(heap, (-activity[v], v))
                        queued[v] = True
                del trail[mark:]
            head = min(head, len(trail))

        def learn(clause: list[int]) -> None:
            """Store a clause whose literals are all false and whose only
            literal on its top level is clause[0]; backjump to the next
            level down and assert clause[0] there."""
            to_level = 0
            if len(clause) > 1:
                k = max(range(1, len(clause)), key=lambda k: level[abs(clause[k])])
                clause[1], clause[k] = clause[k], clause[1]
                to_level = level[abs(clause[1])]
            backtrack(to_level)
            enqueue(clause[0], self._store(clause))

        for lit in self.units:
            if val[lit] is False:
                return None
            if val[lit] is None:
                enqueue(lit, None)

        while True:
            ci = propagate()
            if ci is not None:
                if not lim:
                    return None
                learn(analyze(ci))
                continue
            # place any pending assumption on its own decision level
            failed = False
            placed = False
            for a in assumptions:
                av = val[a]
                if av is False:
                    failed = True
                    break
                if av is None:
                    lim.append(len(trail))
                    enqueue(a, None)
                    placed = True
                    break
            if failed:
                return None
            if placed:
                continue
            while heap:
                neg_act, pick = heappop(heap)
                if -neg_act == activity[pick]:
                    queued[pick] = False
                    if val[pick] is None:
                        break
            else:
                conflict = theory(val)
                if conflict is None:
                    return val[:n + 1]
                lemma = [-l for l in conflict]
                top = max(level[abs(l)] for l in lemma)
                if top == 0:
                    self._store(lemma)
                    return None
                lemma.sort(key=lambda l: level[abs(l)] != top)
                if len(lemma) > 1 and level[abs(lemma[1])] == top:
                    backtrack(top)
                    learn(analyze(self._store(lemma)))
                else:
                    learn(lemma)
                continue
            lim.append(len(trail))
            enqueue(-pick, None)


# ---------------------------------------------------------------------------
# Context: formulas in, models out
# ---------------------------------------------------------------------------

class Context:
    """One assertion set plus its solver state.

    Assertions are additive; there is no push/pop beyond model blocking.
    """

    def __init__(self) -> None:
        self._sat = _SatCore()
        self._vars: list[VarRef] = []
        self._bool_lit: dict[VarRef, int] = {}
        # difference atoms: key (u, v, bound) meaning  val(u) - val(v) <= bound
        self._atom_lit: dict[tuple[object, object, Fraction], int] = {}
        self._atom_by_lit: dict[int, tuple[object, object, Fraction]] = {}
        self._real_vars: list[VarRef] = []
        self._totalizer_cache: dict[tuple[int, ...], list[int]] = {}
        self._graph: _DiffGraph | None = None

    # -- variable management ---------------------------------------------

    def new_bool(self, name: str) -> VarRef:
        v = VarRef(len(self._vars), name, BOOL)
        self._vars.append(v)
        self._bool_lit[v] = self._sat.new_var()
        return v

    def new_real(self, name: str) -> VarRef:
        v = VarRef(len(self._vars), name, REAL)
        self._vars.append(v)
        self._real_vars.append(v)
        return v

    # -- assertion --------------------------------------------------------

    def assert_formula(self, f: Formula) -> None:
        lit = self._encode(f)
        self._sat.add_clause([lit])

    def block_model(self, vars: Sequence[VarRef], m: Model) -> None:
        """Forbid the projection of model m onto the given Boolean vars."""
        clause = [
            -self._bool_lit[v] if m.value(v) is True else self._bool_lit[v]
            for v in vars
        ]
        self._sat.add_clause(clause)

    def block_true_subset(self, vars: Sequence[VarRef], m: Model) -> None:
        """Forbid every model where all vars true in m are true again.

        Stronger than block_model: also rules out supersets.
        """
        clause = [-self._bool_lit[v] for v in vars if m.value(v) is True]
        self._sat.add_clause(clause)

    # -- solving ----------------------------------------------------------

    def check(self, assumptions: Sequence[int] = ()) -> SolveResult:
        assignment = self._sat.solve(assumptions, self._theory_conflict)
        if assignment is None:
            return SolveResult(False, None)
        return SolveResult(True, self._build_model(assignment))

    def minimize(self, indicators: Sequence[VarRef],
                 lower: int = 0) -> SolveResult:
        """Minimize the number of true variables among `indicators`.

        Descending linear search over totalizer outputs.  `lower` must be a
        proven lower bound on that number, such as an earlier optimum of
        this context when only clauses were added since: the search then
        first checks under the assumption "at most `lower`", whose model is
        optimal, and descends no further than `lower` + 1 otherwise.
        Nothing is asserted, so later check() calls see the same clauses;
        callers that want the optimum capped assert at_most themselves.
        """
        lits = [self._bool_lit[v] for v in indicators]
        if 0 < lower < len(lits):
            res = self.check(assumptions=[-self._totalizer(lits)[lower]])
            if res.sat:
                return res
            lower += 1
        res = self.check()
        if not res.sat or not lits:
            return res
        outs = self._totalizer(lits)
        k = len(res.model.true_vars(indicators))
        while k > lower:
            tighter = self.check(assumptions=[-outs[k - 1]])
            if not tighter.sat:
                break
            res = tighter
            k = len(res.model.true_vars(indicators))
        return res

    # -- encoding ---------------------------------------------------------

    def _encode(self, f: Formula) -> int:
        """Return a SAT literal equivalent to f (full Tseitin)."""
        if isinstance(f, BoolLit):
            lit = self._sat.new_var()
            self._sat.add_clause([lit if f.value else -lit])  # pin it
            return lit
        if isinstance(f, Atom):
            return self._bool_lit[f.var]
        if isinstance(f, Not):
            return -self._encode(f.arg)
        if isinstance(f, And):
            lits = [self._encode(a) for a in f.args]
            return self._define_and(lits)
        if isinstance(f, Or):
            lits = [self._encode(a) for a in f.args]
            return -self._define_and([-l for l in lits])
        if isinstance(f, Implies):
            return -self._define_and([self._encode(f.lhs), -self._encode(f.rhs)])
        if isinstance(f, Iff):
            a, b = self._encode(f.lhs), self._encode(f.rhs)
            p = self._sat.new_var()
            self._sat.add_clause([-p, -a, b])
            self._sat.add_clause([-p, a, -b])
            self._sat.add_clause([p, a, b])
            self._sat.add_clause([p, -a, -b])
            return p
        if isinstance(f, Ite):
            c, t, e = self._encode(f.cond), self._encode(f.then), self._encode(f.other)
            p = self._sat.new_var()
            self._sat.add_clause([-p, -c, t])
            self._sat.add_clause([-p, c, e])
            self._sat.add_clause([p, -c, -t])
            self._sat.add_clause([p, c, -e])
            return p
        if isinstance(f, ExactlyN):
            lits = [self._bool_lit[v] for v in f.vars]
            outs = self._totalizer(lits)
            if f.n > len(lits):
                return self._encode(FALSE)
            parts = []
            if f.n >= 1:
                parts.append(outs[f.n - 1])  # at least n
            if f.n < len(lits):
                parts.append(-outs[f.n])  # at most n
            return self._define_and(parts) if parts else self._encode(TRUE)
        if isinstance(f, AtMostN):
            if f.n < 0:
                return self._encode(FALSE)
            if f.n >= len(f.vars):
                return self._encode(TRUE)
            return -self._totalizer([self._bool_lit[v] for v in f.vars])[f.n]
        if isinstance(f, LinCmp):
            return self._encode_lincmp(f)
        raise SortError(f"unknown formula node {f!r}")

    def _define_and(self, lits: list[int]) -> int:
        if not lits:
            return self._encode(TRUE)
        if len(lits) == 1:
            return lits[0]
        p = self._sat.new_var()
        for l in lits:
            self._sat.add_clause([-p, l])
        self._sat.add_clause([p] + [-l for l in lits])
        return p

    def _totalizer(self, lits: list[int]) -> list[int]:
        """Sorted-output counter: outs[k] is true iff > k inputs are true.

        outs[k] <=> (#true >= k+1).  Both implication directions are encoded
        so the outputs can be used under either polarity.
        """
        key = tuple(lits)
        if key not in self._totalizer_cache:
            self._totalizer_cache[key] = self._totalizer_node(list(lits))
        return self._totalizer_cache[key]

    def _totalizer_node(self, ls: list[int]) -> list[int]:
        """Outputs of the totalizer subtree over ls (a method, not a closure,
        so that building one leaves no reference cycle through the context)."""
        if len(ls) <= 1:
            return list(ls)
        mid = len(ls) // 2
        a = self._totalizer_node(ls[:mid])
        b = self._totalizer_node(ls[mid:])
        r = [self._sat.new_var() for _ in range(len(a) + len(b))]
        p, q = len(a), len(b)
        for i in range(p + 1):
            for j in range(q + 1):
                if 1 <= i + j <= p + q:
                    clause = [r[i + j - 1]]
                    if i >= 1:
                        clause.append(-a[i - 1])
                    if j >= 1:
                        clause.append(-b[j - 1])
                    if i >= 1 or j >= 1:
                        self._sat.add_clause(clause)
                if 0 <= i + j < p + q:
                    clause = [-r[i + j]]
                    if i < p:
                        clause.append(a[i])
                    if j < q:
                        clause.append(b[j])
                    self._sat.add_clause(clause)
        return r

    # -- arithmetic atoms --------------------------------------------------

    _ZERO = "<zero>"

    def _encode_lincmp(self, f: LinCmp) -> int:
        if f.op == "==":
            le = LinCmp(f.terms, "<=", f.const)
            ge = LinCmp(f.terms, ">=", f.const)
            return self._define_and([self._encode_lincmp(le), self._encode_lincmp(ge)])
        terms: dict[VarRef, Fraction] = {}
        for c, v in f.terms:
            terms[v] = terms.get(v, Fraction(0)) + c
        terms = {v: c for v, c in terms.items() if c != 0}
        const = f.const
        if f.op == ">=":
            terms = {v: -c for v, c in terms.items()}
            const = -const
        # now: sum(c*v) <= const
        if not terms:
            return self._encode(TRUE if 0 <= const else FALSE)
        if len(terms) == 1:
            ((v, c),) = terms.items()
            if c > 0:
                return self._atom(v, self._ZERO, const / c)
            # c < 0: v >= const/c, i.e. zero - v <= -(const/c)
            return self._atom(self._ZERO, v, -const / c)
        if len(terms) == 2:
            (v1, c1), (v2, c2) = sorted(terms.items(), key=lambda t: t[0].idx)
            if c1 == -c2:
                if c1 > 0:
                    return self._atom(v1, v2, const / c1)
                return self._atom(v2, v1, const / c2)
        raise UnsupportedConstraint(
            f"atom outside the difference fragment: {f.terms} {f.op} {f.const}"
        )

    def _atom(self, u: object, v: object, bound: Fraction) -> int:
        key = (u, v, bound)
        if key not in self._atom_lit:
            lit = self._sat.new_var()
            self._atom_lit[key] = lit
            self._atom_by_lit[lit] = key
        return self._atom_lit[key]

    # -- theory -----------------------------------------------------------

    def _diff_graph(self) -> _DiffGraph:
        """The atoms in integer form, rebuilt only after atoms or reals are added."""
        key = (len(self._atom_by_lit), len(self._real_vars))
        if self._graph is None or self._graph.key != key:
            self._graph = _DiffGraph(key, self._atom_by_lit, self._real_vars)
        return self._graph

    def _theory_conflict(self, assignment: Sequence[bool | None]) -> list[int] | None:
        """Check the difference constraints implied by `assignment`.

        Returns the literals of an inconsistent subset (a negative cycle),
        or None when consistent.
        """
        g = self._diff_graph()
        edges = g.edges(assignment)
        n = g.n
        dist = [0] * n
        pred = [0] * n
        pred_lit = [0] * n
        changed = -1
        for _ in range(n):
            changed = -1
            for u, v, w, lit in edges:
                cand = dist[u] + w
                if cand < dist[v]:
                    dist[v] = cand
                    pred[v] = u
                    pred_lit[v] = lit
                    changed = v
            if changed < 0:
                return None
        # negative cycle: walk back n steps from the last relaxed node
        node = changed
        for _ in range(n):
            node = pred[node]
        cycle_lits: list[int] = []
        cur = node
        while True:
            if pred_lit[cur]:
                cycle_lits.append(pred_lit[cur])
            cur = pred[cur]
            if cur == node:
                break
        return cycle_lits or None

    def _build_model(self, assignment: Sequence[bool | None]) -> Model:
        values: dict[VarRef, object] = {
            v: assignment[self._bool_lit[v]] for v in self._vars if v.sort == BOOL
        }
        values.update(self._real_values(assignment))
        return Model(values)

    def _real_values(self, assignment: Sequence[bool | None]) -> dict[VarRef, Fraction]:
        if not self._real_vars:
            return {}
        g = self._diff_graph()
        edges = g.edges(assignment)
        dist = [0] * g.n
        for _ in range(g.n):
            changed = False
            for u, v, w, _lit in edges:
                cand = dist[u] + w
                if cand < dist[v]:
                    dist[v] = cand
                    changed = True
            if not changed:
                break
        r, e = zip(*map(g.unpack, dist))
        # realize the infinitesimal: pick delta keeping every edge satisfied
        delta = Fraction(1)
        for u, v, w, _lit in edges:
            wr, we = g.unpack(w)
            slack_r = r[u] + wr - r[v]
            slack_e = e[u] + we - e[v]
            if slack_r > 0 and slack_e < 0:
                delta = min(delta, Fraction(slack_r, -slack_e * g.scale))
        delta = delta / 2
        at = g.index
        return {
            v: Fraction(r[at[v]] - r[0], g.scale) + delta * (e[at[v]] - e[0])
            for v in self._real_vars
        }


class _DiffGraph:
    """The difference atoms of a context as an integer constraint graph.

    Node 0 is the zero node.  Bounds are multiplied by `scale`, the LCM of
    their denominators, and a bound value + eps * delta (eps counts the
    strict edges on a walk) is packed into the int value * M + eps.  An
    edge u -> v with weight w encodes val(v) - val(u) <= w.  A relaxation
    extends a walk by one edge of eps 0 or -1, and a check makes at most n
    passes over the edges, so every eps lies strictly inside (-M/2, M/2)
    and packed ints compare exactly as (value, eps) pairs do.
    """

    def __init__(self, key: tuple[int, int],
                 atoms: dict[int, tuple[object, object, Fraction]],
                 real_vars: Sequence[VarRef]) -> None:
        self.key = key
        self.index: dict[object, int] = {Context._ZERO: 0}
        for x in real_vars:
            self.index.setdefault(x, len(self.index))
        for u, v, _ in atoms.values():
            self.index.setdefault(u, len(self.index))
            self.index.setdefault(v, len(self.index))
        self.n = len(self.index)
        self.scale = math.lcm(*(c.denominator for _, _, c in atoms.values()))
        self.M = 2 * (self.n * (len(atoms) + len(real_vars)) + 1) + 1
        M = self.M
        # (lit, u, v, weight of edge v -> u when true, of u -> v when false)
        self.atoms = []
        for lit, (u, v, c) in atoms.items():
            w = c.numerator * (self.scale // c.denominator) * M
            self.atoms.append((lit, self.index[u], self.index[v], w, -w - 1))
        # nonnegative sort: zero - x <= 0, an edge x -> zero of weight 0
        self.sort_edges = [(self.index[x], 0, 0, 0) for x in real_vars]

    def edges(self, assignment: Sequence[bool | None]) -> list[tuple[int, ...]]:
        """(u, v, weight, literal) per edge; the sort edges carry literal 0.

        A true atom u - v <= c is the edge v -> u; a false one is the
        strict negation v - u < -c, the edge u -> v.
        """
        out = [(v, u, wt, lit) if assignment[lit] else (u, v, wf, -lit)
               for lit, u, v, wt, wf in self.atoms]
        out += self.sort_edges
        return out

    def unpack(self, x: int) -> tuple[int, int]:
        """Split a packed int into its scaled value and its eps."""
        h = self.M // 2
        r, e = divmod(x + h, self.M)
        return r, e - h
