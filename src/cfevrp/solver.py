"""Constraint-solving backend: clauses over Booleans and difference atoms.

A self-contained DPLL(T) engine whose API is the clause level that the
sub-problem models of this package write in:

- a Boolean is a SAT variable, a positive int ``b`` from ``new_bool()``;
  ``-b`` is its negation;
- a real is a node of the difference graph, a positive int ``x`` from
  ``new_real()``; node 0 is the constant zero, and every real is
  nonnegative;
- ``le(x, y, c)`` is the literal of the atom ``x - y <= c``; its negation
  is the strict ``y - x < -c``;
- ``assert_formula(*lits)`` asserts one clause over such literals;
- ``exactly`` and ``at_most`` count literals through a cached totalizer
  and hold whenever all their guard literals are true.

A CDCL SAT core searches the Boolean skeleton and hands the atoms to a
difference-logic theory solver (negative-cycle detection over rational
bounds with an infinitesimal component for strict inequalities).
Minimization of an indicator count runs a descending linear search over
the totalizer outputs; it can start from a known lower bound, so a context
that only gains clauses re-minimizes under an assumption instead of
starting over.

The SAT core propagates with two watched literals, keeps its trail in
lists indexed by variable and picks each decision from a heap ordered by
(activity, index).  It calls the theory on every complete assignment and
learns each negative cycle as a clause inside the same search, so one
check() is one SAT search.  The theory check runs Bellman-Ford on
integers: the bounds are scaled by the LCM of their denominators, and each
infinitesimal count is packed into the same int, so the integer
comparisons decide exactly as the rational ones would.  Real values in
models are exact Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence, Union

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Models and results
# ---------------------------------------------------------------------------

class Model:
    """A satisfying assignment: literal values and real values by node."""

    def __init__(self, lits: Sequence[bool], reals: Sequence[Fraction]):
        self._lits = lits
        self._reals = reals

    def value(self, lit: int) -> bool:
        return self._lits[lit]

    def real(self, x: int) -> Fraction:
        return self._reals[x]

    def true_vars(self, lits: Iterable[int]) -> frozenset[int]:
        return frozenset(l for l in lits if self._lits[l])


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
        """Return a satisfying assignment indexed by literal, or None.

        Entry lit of the list is the value of lit: True or False for every
        literal (entry 0 is unused).  `theory` is called on each complete
        assignment as described above.
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
                    return val
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
# Context: clauses in, models out
# ---------------------------------------------------------------------------

class Context:
    """One clause set plus its solver state.

    Clauses are additive; there is no push/pop beyond model blocking.
    """

    def __init__(self) -> None:
        self._sat = _SatCore()
        self._nreals = 0
        # difference atoms: key (x, y, c) meaning  val(x) - val(y) <= c
        self._atom_lit: dict[tuple[int, int, Fraction], int] = {}
        self._atom_by_lit: dict[int, tuple[int, int, Fraction]] = {}
        self._totalizer_cache: dict[tuple[int, ...], list[int]] = {}
        self._graph: _DiffGraph | None = None

    # -- building ---------------------------------------------------------

    def new_bool(self) -> int:
        return self._sat.new_var()

    def new_real(self) -> int:
        """A nonnegative real, as its node in the difference graph."""
        self._nreals += 1
        return self._nreals

    def le(self, x: int, y: int, c: Number) -> int:
        """The literal of the atom x - y <= c (0 is the zero node)."""
        key = (x, y, Fraction(c))
        lit = self._atom_lit.get(key)
        if lit is None:
            lit = self._atom_lit[key] = self._sat.new_var()
            self._atom_by_lit[lit] = key
        return lit

    def assert_formula(self, *lits: int) -> None:
        """Assert the clause lits[0] or lits[1] or ... (no lits: unsat).

        The one clause method: the stages and exactly/at_most assert their
        clauses here, so that bench/tracing.py, which times this method as
        a stage's `encode_s`, sees them.  Only the totalizer's own clauses
        and the blocking clauses are added below it.
        """
        self._sat.add_clause(lits)

    def exactly(self, lits: Sequence[int], n: int, *guards: int) -> None:
        """Exactly n of lits are true whenever every guard is true."""
        unless = [-g for g in guards]
        if n > len(lits):
            self.assert_formula(*unless)
        elif n >= 1:  # at least n
            self.assert_formula(*unless, self._totalizer(lits)[n - 1])
        self.at_most(lits, n, *guards)

    def at_most(self, lits: Sequence[int], n: int, *guards: int) -> None:
        """At most n of lits are true whenever every guard is true."""
        unless = [-g for g in guards]
        if n < 0:
            self.assert_formula(*unless)
        elif n < len(lits):
            self.assert_formula(*unless, -self._totalizer(lits)[n])

    def block_model(self, lits: Sequence[int], m: Model) -> None:
        """Forbid the projection of model m onto the given literals."""
        self._sat.add_clause([-l if m.value(l) else l for l in lits])

    def block_true_subset(self, lits: Sequence[int], m: Model) -> None:
        """Forbid every model where all lits true in m are true again.

        Stronger than block_model: also rules out supersets.
        """
        self._sat.add_clause([-l for l in lits if m.value(l)])

    # -- solving ----------------------------------------------------------

    def check(self, assumptions: Sequence[int] = ()) -> SolveResult:
        assignment = self._sat.solve(assumptions, self._theory_conflict)
        if assignment is None:
            return SolveResult(False, None)
        return SolveResult(
            True, Model(assignment, self._real_values(assignment)))

    def minimize(self, indicators: Sequence[int],
                 lower: int = 0) -> SolveResult:
        """Minimize the number of true literals among `indicators`.

        Descending linear search over totalizer outputs.  `lower` must be a
        proven lower bound on that number, such as an earlier optimum of
        this context when only clauses were added since: the search then
        first checks under the assumption "at most `lower`", whose model is
        optimal, and descends no further than `lower` + 1 otherwise.
        Nothing is asserted, so later check() calls see the same clauses;
        callers that want the optimum capped assert at_most themselves.
        """
        if 0 < lower < len(indicators):
            res = self.check(assumptions=[-self._totalizer(indicators)[lower]])
            if res.sat:
                return res
            lower += 1
        res = self.check()
        if not res.sat or not indicators:
            return res
        outs = self._totalizer(indicators)
        k = len(res.model.true_vars(indicators))
        while k > lower:
            tighter = self.check(assumptions=[-outs[k - 1]])
            if not tighter.sat:
                break
            res = tighter
            k = len(res.model.true_vars(indicators))
        return res

    # -- cardinality ------------------------------------------------------

    def _totalizer(self, lits: Sequence[int]) -> list[int]:
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

    # -- theory -----------------------------------------------------------

    def _diff_graph(self) -> _DiffGraph:
        """The atoms in integer form, rebuilt only after atoms or reals are added."""
        key = (len(self._atom_by_lit), self._nreals)
        if self._graph is None or self._graph.key != key:
            self._graph = _DiffGraph(key, self._atom_by_lit, self._nreals)
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

    def _real_values(self, assignment: Sequence[bool | None]) -> list[Fraction]:
        """The value of every node, indexed by node (0 for the zero node)."""
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
        return [Fraction(r[x] - r[0], g.scale) + delta * (e[x] - e[0])
                for x in range(g.n)]


class _DiffGraph:
    """The difference atoms of a context as an integer constraint graph.

    Node x is the context's real x, and node 0 the zero node.  Bounds are
    multiplied by `scale`, the LCM of their denominators, and a bound
    value + eps * delta (eps counts the strict edges on a walk) is packed
    into the int value * M + eps.  An edge u -> v with weight w encodes
    val(v) - val(u) <= w.  A relaxation
    extends a walk by one edge of eps 0 or -1, and a check makes at most n
    passes over the edges, so every eps lies strictly inside (-M/2, M/2)
    and packed ints compare exactly as (value, eps) pairs do.
    """

    def __init__(self, key: tuple[int, int],
                 atoms: dict[int, tuple[int, int, Fraction]],
                 nreals: int) -> None:
        self.key = key
        self.n = nreals + 1
        self.scale = math.lcm(*(c.denominator for _, _, c in atoms.values()))
        self.M = 2 * (self.n * (len(atoms) + nreals) + 1) + 1
        M = self.M
        # (lit, u, v, weight of edge v -> u when true, of u -> v when false)
        self.atoms = []
        for lit, (u, v, c) in atoms.items():
            w = c.numerator * (self.scale // c.denominator) * M
            self.atoms.append((lit, u, v, w, -w - 1))
        # nonnegative reals: zero - x <= 0, an edge x -> zero of weight 0
        self.nonneg_edges = [(x, 0, 0, 0) for x in range(1, self.n)]

    def edges(self, assignment: Sequence[bool | None]) -> list[tuple[int, ...]]:
        """(u, v, weight, literal) per edge; the nonnegativity edges carry
        literal 0.

        A true atom u - v <= c is the edge v -> u; a false one is the
        strict negation v - u < -c, the edge u -> v.
        """
        out = [(v, u, wt, lit) if assignment[lit] else (u, v, wf, -lit)
               for lit, u, v, wt, wf in self.atoms]
        out += self.nonneg_edges
        return out

    def unpack(self, x: int) -> tuple[int, int]:
        """Split a packed int into its scaled value and its eps."""
        h = self.M // 2
        r, e = divmod(x + h, self.M)
        return r, e - h
