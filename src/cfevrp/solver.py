"""Constraint-solving backend: clauses over Booleans and difference atoms.

A self-contained DPLL(T) engine whose API is the clause level that the
sub-problem models of this package write in:

- a Boolean is a SAT variable, a positive int ``b`` from ``new_bool()``;
  ``-b`` is its negation;
- a real is a node of the difference graph, a positive int ``x`` from
  ``new_real()``; node 0 is the constant zero, and every real is
  nonnegative;
- ``le(x, y, c)`` is the literal of the atom ``x - y <= c``, for an int
  bound ``c``: callers scale their quantities to whole units first;
- ``assert_formula(*lits)`` asserts one clause over such literals;
- ``check()`` and ``minimize()`` return a ``Model``, or None if unsat;
- atoms occur only positively: a clause, an assumption, a blocking
  clause or a counter that negates one raises ValueError, and so does
  ``exactly_one`` over one.  A false atom then constrains nothing, since
  flipping it to true satisfies every clause that holds it, so the theory
  takes the true atoms only;
- ``exactly_one`` is one clause plus pairwise exclusions, split past four
  literals by fresh Booleans (Heule's at-most-one encoding), with no
  counter;
- ``at_most`` counts literals through a totalizer (Bailleux and
  Boufkhad, 2003) and holds whenever all its guard literals are true.
  The totalizer is one-sided, since its outputs are only read negated:
  k + 1 true inputs force output k.  It is truncated: it counts only up
  to the bound that is read (n + 1 outputs for a bound n), in
  O(n * len) clauses, and is kept per literal list until a larger bound
  asks for a new one.

A CDCL SAT core searches the Boolean skeleton and hands the true atoms to
a difference-logic theory solver (negative-cycle detection over integer
bounds).  Minimization of an indicator count runs a descending linear
search over the outputs of a totalizer truncated just above the first
model's count; it can start from a known lower bound, so a context that
only gains clauses re-minimizes under an assumption instead of starting
over.

The SAT core propagates with two watched literals, keeps its trail in
lists indexed by variable and picks each decision from a heap ordered by
(activity, index).  It consults the theory at every propagation fixpoint
and learns each negative cycle as a clause inside the same search, so one
check() is one SAT search.  A context keeps one search state for all its
checks, as MiniSat's incremental interface does (Een and Sorensson, 2003):
each search ends back on level 0 and the next starts from there, taking
in only the clauses added since; the decisions are not kept.  The theory
adds one edge at a time against a potential, and looks for a negative
cycle with a Dijkstra over reduced costs from the new edge's head (Cotton
and Maler, 2006); backjumps drop edges and keep the potential, and so do
later checks.  The theory's graph is made with its context and grows with
each new real and atom; it is never rebuilt.  Bounds and real values are
ints, so the theory compares exactly.  A model's real values are computed
when its reals are first read, by the same check run again from potential
0 over the model's true atoms.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable, Sequence


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class Model:
    """A satisfying assignment: literal values and real values by node.

    The real values are computed on the first `real` call, since the
    router's models are only read for literals.  They satisfy every true
    atom; an atom may read false while the real values satisfy it.
    """

    def __init__(self, lits: Sequence[bool],
                 reals: Callable[[], Sequence[int]]):
        self._lits = lits
        self._compute_reals = reals
        self._reals: Sequence[int] | None = None

    def value(self, lit: int) -> bool:
        return self._lits[lit]

    def real(self, x: int) -> int:
        if self._reals is None:
            self._reals = self._compute_reals()
        return self._reals[x]

    def true_vars(self, lits: Iterable[int]) -> frozenset[int]:
        return frozenset(l for l in lits if self._lits[l])


# ---------------------------------------------------------------------------
# The CDCL core
# ---------------------------------------------------------------------------

class _SatCore:
    """Small CDCL solver with a theory hook.  Literals are nonzero ints;
    variable v has literals v, -v.

    Clauses of two or more literals are watched on two literals (two
    watched literals, as in Chaff).  Conflicts are analysed to the first
    UIP, learned, and undone by backjumping.

    The search state outlives a solve() call: each call ends back on
    level 0 and keeps the values, watches, levels and reasons, the level-0
    trail, the decision heap and the count of clauses seen, so the next
    call starts from the level-0 fixpoint the last one reached.  The lists
    indexed by literal are laid out again when variables were added.  The
    clauses added in between are taken in first: one true on level 0 is
    left alone, one with a single non-false literal puts it first and
    asserts it on level 0, and one with more is watched on its first two
    non-false literals.  A conflict on level 0, from a clause with no
    non-false literal, from propagation or from the theory, sets
    `empty_clause`: level 0 holds no assumption, so the clauses and the
    theory alone are unsat, and every later call answers None at once.

    The theory is consulted at every propagation fixpoint, before any
    assumption or decision: `theory(trail, checked)` first drops what it
    took from trail[checked:] earlier (those entries were undone or never
    accepted), then takes in the literals of trail[checked:].  It returns
    the distinct literals of an inconsistent subset of the trail, or None,
    after which the whole trail counts as accepted.  The negation of that
    subset is learned on the spot: with one literal on its top level it is
    asserted after a backjump, with several it is analysed like a
    conflict, and on level 0 it ends the search unsat.  A complete
    assignment reached this way is theory-consistent, so it is the answer.
    `checked` is kept between calls too.

    Assumptions are handled as forced decisions on their own levels, so
    every learned clause is a consequence of the clause database and the
    theory alone and stays valid across calls.

    Decisions take the free variable of highest activity, lowest index
    first, and set it false.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.empty_clause = False
        self.activity: list[float] = [0.0]  # indexed by variable; 0 unused
        # The search state between calls, all of it on level 0.  val[lit] is
        # the value of literal lit and watch[lit] the indices of the clauses
        # watching it: positive literals sit at 1..n, negative ones at
        # n+1..2n through Python's negative indexing.
        self.val: list[bool | None] = [None]
        self.watch: list[list[int]] = [[]]
        self.level: list[int] = [0]  # indexed by variable
        self.reason: list[int | None] = [None]
        self.trail: list[int] = []
        # Decision heap with lazy deletion.  queued[v] says that v has an
        # entry carrying its current activity.  Analysis bumps assigned
        # variables only, and backtracking queues each variable it frees, so
        # every free variable is queued and its current entry surfaces
        # before its stale ones.  Entries of assigned variables are skipped.
        self.heap: list[tuple[float, int]] = []
        self.queued: list[bool] = [True]
        self.seen = 0     # clauses taken into the watches
        self.checked = 0  # trail entries the theory has accepted

    def new_var(self) -> int:
        self.nvars += 1
        self.activity.append(0.0)
        return self.nvars

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause over distinct variables; the next solve takes it in."""
        if not lits:
            self.empty_clause = True
            return
        self.clauses.append(sorted(lits, key=abs))

    # -- main search ------------------------------------------------------

    def solve(self, assumptions: Sequence[int],
              theory: Callable[[Sequence[int], int], list[int] | None],
              ) -> list[bool | None] | None:
        """Return a satisfying assignment indexed by literal, or None.

        Entry lit of the list is the value of lit: True or False for every
        literal (entry 0 is unused).  The list is a copy, which later calls
        leave alone.  `theory` is called at each propagation fixpoint as
        described above.
        """
        if self.empty_clause:
            return None
        n = self.nvars
        old = len(self.level) - 1
        if n > old:
            # lay out for the new variables: the lists indexed by literal
            # keep their negative literals at the end, so new slots go in
            # the middle
            grow = n - old
            self.val = self.val[:old + 1] + [None] * (2 * grow) + self.val[old + 1:]
            self.watch = (self.watch[:old + 1] + [[] for _ in range(2 * grow)]
                          + self.watch[old + 1:])
            self.level += [0] * grow
            self.reason += [None] * grow
            self.queued += [True] * grow
            for v in range(old + 1, n + 1):
                heappush(self.heap, (-self.activity[v], v))
        clauses, activity = self.clauses, self.activity
        val, watch, level, reason = self.val, self.watch, self.level, self.reason
        trail, heap, queued = self.trail, self.heap, self.queued
        lim: list[int] = []

        def enqueue(lit: int, why: int | None) -> None:
            val[lit] = True
            val[-lit] = False
            v = lit if lit > 0 else -lit
            level[v] = len(lim)
            reason[v] = why
            trail.append(lit)

        def store(clause: list[int]) -> int:
            """Append a clause of distinct literals, watching its first two."""
            idx = len(clauses)
            clauses.append(clause)
            if len(clause) > 1:
                watch[clause[0]].append(idx)
                watch[clause[1]].append(idx)
            return idx

        head = len(trail)       # trail entries propagated
        checked = self.checked  # trail entries the theory has accepted

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
            nonlocal head, checked
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
            checked = min(checked, len(trail))

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
            enqueue(clause[0], store(clause))

        def search() -> list[bool | None] | None:
            """The answer of this call; on a conflict on level 0, where no
            assumption sits, it also sets empty_clause."""
            nonlocal checked
            # take in the clauses added since the last call, on level 0:
            # the non-false literals of each move to its front
            for ci in range(self.seen, len(clauses)):
                c = clauses[ci]
                free = 0
                for i, lit in enumerate(c):
                    value = val[lit]
                    if value:
                        break
                    if value is None:
                        c[free], c[i] = lit, c[free]
                        free += 1
                else:
                    if free == 0:
                        self.empty_clause = True
                        return None
                    if free == 1:
                        enqueue(c[0], ci)
                    else:
                        watch[c[0]].append(ci)
                        watch[c[1]].append(ci)
            while True:
                ci = propagate()
                if ci is not None:
                    if not lim:
                        self.empty_clause = True
                        return None
                    learn(analyze(ci))
                    continue
                conflict = theory(trail, checked)
                if conflict is not None:
                    lemma = [-l for l in conflict]
                    top = max(level[abs(l)] for l in lemma)
                    if top == 0:
                        store(lemma)
                        self.empty_clause = True
                        return None
                    lemma.sort(key=lambda l: level[abs(l)] != top)
                    if len(lemma) > 1 and level[abs(lemma[1])] == top:
                        backtrack(top)
                        learn(analyze(store(lemma)))
                    else:
                        learn(lemma)
                    continue
                checked = len(trail)
                # place any pending assumption on its own decision level
                for a in assumptions:
                    av = val[a]
                    if av is False:
                        return None
                    if av is None:
                        lim.append(len(trail))
                        enqueue(a, None)
                        break
                else:
                    while heap:
                        neg_act, pick = heappop(heap)
                        if -neg_act == activity[pick]:
                            queued[pick] = False
                            if val[pick] is None:
                                break
                    else:
                        return val[:]
                    lim.append(len(trail))
                    enqueue(-pick, None)

        answer = search()
        if not self.empty_clause:
            self.seen = len(clauses)
            backtrack(0)
            self.checked = checked
        return answer


# ---------------------------------------------------------------------------
# Context: clauses in, models out
# ---------------------------------------------------------------------------

class Context:
    """One clause set plus its solver state.

    Clauses are additive; there is no push/pop beyond model blocking.
    """

    def __init__(self) -> None:
        self._sat = _SatCore()
        # difference atoms: key (x, y, c) meaning  val(x) - val(y) <= c
        self._atom_lit: dict[tuple[int, int, int], int] = {}
        self._totalizer_cache: dict[tuple[int, ...], list[int]] = {}
        self._graph = _DiffGraph()

    # -- building ---------------------------------------------------------

    def new_bool(self) -> int:
        return self._sat.new_var()

    def new_real(self) -> int:
        """A nonnegative real, as its node in the difference graph."""
        return self._graph.new_node()

    def le(self, x: int, y: int, c: int) -> int:
        """The literal of the atom x - y <= c (0 is the zero node), to be
        used only positively.

        The bound is an int; any other raises TypeError.  A caller with
        rational quantities scales them all by one positive factor that
        makes them whole, which keeps every comparison.
        """
        if not isinstance(c, int):
            raise TypeError(f"bound {c!r} is not an int")
        key = (x, y, c)
        lit = self._atom_lit.get(key)
        if lit is None:
            lit = self._atom_lit[key] = self._sat.new_var()
            self._graph.edge[lit] = (y, x, c)
        return lit

    def assert_formula(self, *lits: int) -> None:
        """Assert the clause lits[0] or lits[1] or ... (no lits: unsat).

        The one clause method: the stages, exactly_one's at-least-one
        clause and at_most's bound are asserted here, so that
        bench/tracing.py, which times this method as a stage's `encode_s`,
        sees them.  Only exactly_one's exclusions, the totalizer's own
        clauses and the blocking clauses are added below it.
        """
        self._require_positive(lits)
        self._add_clause(lits)

    def exactly_one(self, lits: Sequence[int]) -> None:
        """Exactly one of lits is true (no lits: unsat; none may be an
        atom), with no counter: one clause for at least one, and pairwise
        exclusions (-a, -b) up to four literals.  Past four, Heule's split
        excludes pairs among the first three and a fresh y, then goes on
        with -y and the rest.  A repeated literal counts per occurrence.
        """
        # every literal occurs in both polarities below
        self._require_positive([-abs(l) for l in lits])
        self.assert_formula(*lits)
        lits = list(lits)
        while len(lits) > 4:
            y = self._sat.new_var()
            self._exclude_pairs(lits[:3] + [y])
            lits = [-y] + lits[3:]
        self._exclude_pairs(lits)

    def _exclude_pairs(self, lits: Sequence[int]) -> None:
        """No two of lits are true: a clause (-a, -b) per pair."""
        for i, a in enumerate(lits):
            for b in lits[i + 1:]:
                self._add_clause((-a, -b))

    def at_most(self, lits: Sequence[int], n: int, *guards: int) -> None:
        """At most n of lits are true whenever every guard is true."""
        unless = [-g for g in guards]
        if n < 0:
            self.assert_formula(*unless)
        elif n < len(lits):
            self.assert_formula(*unless, -self._totalizer(lits, n + 1)[n])

    def block_model(self, lits: Sequence[int], m: Model) -> None:
        """Forbid the projection of model m onto the given literals."""
        clause = [-l if m.value(l) else l for l in lits]
        self._require_positive(clause)
        self._add_clause(clause)

    def _add_clause(self, lits: Sequence[int]) -> None:
        """Add the clause lits with repeated literals merged, or not at all
        if it holds a complementary pair."""
        if len(lits) > 1 and len(set(map(abs, lits))) < len(lits):
            lits = set(lits)
            if any(-l in lits for l in lits):
                return
        self._sat.add_clause(lits)

    def _require_positive(self, lits: Iterable[int]) -> None:
        """Raise ValueError if an atom occurs negated among lits."""
        edge = self._graph.edge
        for l in lits:
            if l < 0 and -l in edge:
                y, x, c = edge[-l]
                raise ValueError(f"the atom {(x, y, c)} occurs negated; "
                                 "atoms may occur only positively")

    # -- solving ----------------------------------------------------------

    def check(self, assumptions: Sequence[int] = ()) -> Model | None:
        """A model of the clauses under the assumptions, or None if unsat."""
        self._require_positive(assumptions)
        # the model's reals see only the nodes and atoms made before now,
        # newest atom first: the stages make a route's atoms front to back
        g, n, nvars = self._graph, self._graph.n, self._sat.nvars
        assignment = self._sat.solve(assumptions, self._theory_conflict)
        if assignment is None:
            return None
        return Model(assignment, lambda: g.values(
            [l for l in reversed(g.edge) if l <= nvars and assignment[l]], n))

    def minimize(self, indicators: Sequence[int],
                 lower: int = 0) -> Model | None:
        """A model with the fewest true literals among `indicators`, or
        None if unsat.

        Descending linear search over totalizer outputs, which are built
        only up to the first model's count + 1: the descent reads no
        higher, and a caller that caps the optimum with at_most reads
        exactly that one.  `lower` must be a proven lower bound on that
        number, such as an earlier optimum of this context when only
        clauses were added since: the search then first checks under the
        assumption "at most `lower`", whose model is optimal, and descends
        no further than `lower` + 1 otherwise.  Nothing is asserted, so
        later check() calls see the same clauses; callers that want the
        optimum capped assert at_most themselves.
        """
        if 0 < lower < len(indicators):
            m = self.check(
                assumptions=[-self._totalizer(indicators, lower + 1)[lower]])
            if m is not None:
                return m
            lower += 1
        m = self.check()
        if m is None or not indicators:
            return m
        k = len(m.true_vars(indicators))
        outs = self._totalizer(indicators, k + 1)
        while k > lower:
            tighter = self.check(assumptions=[-outs[k - 1]])
            if tighter is None:
                break
            m = tighter
            k = len(m.true_vars(indicators))
        return m

    # -- cardinality ------------------------------------------------------

    def _totalizer(self, lits: Sequence[int], size: int) -> list[int]:
        """Sorted-output counter cut at `size` outputs (all of them when
        size >= len(lits)), one-sided: k+1 true inputs force outs[k].

        Only that direction is encoded, (#true >= k+1) => outs[k], since
        every reader takes an output negated: at_most asserts -outs[n] and
        minimize assumes -outs[k-1], each of which then bounds the count.
        An output may be true with fewer inputs true.  Each node keeps
        only its first `size` outputs, so the clauses number O(n * size)
        instead of O(n^2).  A larger size than the cached one builds a
        new counter beside it; the old one's clauses stay, and still hold.
        """
        key = tuple(lits)
        outs = self._totalizer_cache.get(key)
        if outs is None or len(outs) < min(size, len(lits)):
            # the clauses below hold every input negated
            self._require_positive([-l for l in lits])
            outs = self._totalizer_node(list(lits), size)
            self._totalizer_cache[key] = outs
        return outs

    def _totalizer_node(self, ls: list[int], size: int) -> list[int]:
        """The first `size` outputs of the totalizer subtree over ls (a
        method, not a closure, so that building one leaves no reference
        cycle through the context).

        A child cut at `size` never needs its missing outputs: every sum
        i + j that reaches past them reaches past this node's outputs too.
        Its clauses only push outputs up: i true outputs of one child and
        j of the other force the node's first i + j.
        """
        if len(ls) <= 1:
            return list(ls)
        mid = len(ls) // 2
        a = self._totalizer_node(ls[:mid], size)
        b = self._totalizer_node(ls[mid:], size)
        # only a node over two inputs has clauses with two input literals
        add = (self._add_clause if len(ls) == 2 and abs(ls[0]) == abs(ls[1])
               else self._sat.add_clause)
        p, q = len(a), len(b)
        r = [self._sat.new_var() for _ in range(min(p + q, size))]
        for i in range(p + 1):
            for j in range(q + 1):
                if 1 <= i + j <= len(r):
                    clause = [r[i + j - 1]]
                    if i >= 1:
                        clause.append(-a[i - 1])
                    if j >= 1:
                        clause.append(-b[j - 1])
                    add(clause)
        return r

    # -- theory -----------------------------------------------------------

    def _theory_conflict(self, trail: Sequence[int], start: int) -> list[int] | None:
        """Take in the difference constraints of trail[start:].

        Edges taken from trail[start:] by earlier calls are dropped first.
        Returns the literals of an inconsistent subset of the trail (a
        negative cycle), or None when the trail is consistent.
        """
        return self._graph.assert_trail(trail, start)


class _DiffGraph:
    """The difference atoms of a context as an integer constraint graph,
    and the incremental negative-cycle check over it, whose state is kept
    from one check() to the next.  The graph is made with its context and
    grows with each new real (a node) and each new atom (an edge).

    Node x is the context's real x, and node 0 the zero node.  An edge
    u -> v with weight w encodes val(v) - val(u) <= w.  A true atom
    u - v <= c is the edge v -> u of weight c; a false atom gives no edge,
    since atoms occur only positively.  Every real is nonnegative: an edge
    x -> 0 of weight 0.
    """

    def __init__(self, n: int = 1) -> None:
        """n nodes, no edge but nonnegativity, and the potential 0."""
        self.n = n
        # edge[lit] = (u, v, weight) of the edge that atom lit gives when true
        self.edge: dict[int, tuple[int, int, int]] = {}
        self.pot = [0] * n
        # out[u]: (v, weight, literal) per active edge u -> v, oldest first;
        # the nonnegativity edges carry literal 0
        self.out: list[list[tuple[int, int, int]]] = [[]]
        self.out += [[(0, 0, 0)] for _ in range(1, n)]
        # (trail index, tail) per edge taken from the trail, oldest first
        self.taken: list[tuple[int, int]] = []

    def new_node(self) -> int:
        """A new node; potential 0 keeps its nonnegativity edge."""
        self.pot.append(0)
        self.out.append([(0, 0, 0)])
        self.n += 1
        return self.n - 1

    def values(self, lits: Sequence[int], n: int) -> list[int]:
        """The values of nodes 0..n-1 under the edges of lits, which close
        no negative cycle and use only those nodes.  The check runs on a
        new graph from potential 0, and each lowering is the least one
        needed, so the potential ends as the greatest solution with every
        value <= 0, which is unique; node 0 is then shifted to 0."""
        h = _DiffGraph(n)
        h.edge = self.edge
        h.assert_trail(lits, 0)
        return [p - h.pot[0] for p in h.pot]

    # -- the incremental check ------------------------------------------------

    def assert_trail(self, trail: Sequence[int], start: int) -> list[int] | None:
        """Drop the edges of trail[start:], then add those of its literals.

        Returns the literals of a negative cycle through the first edge
        that closes one, or None.  The potential pot keeps every active
        edge: pot[v] <= pot[u] + w.
        """
        out, pot, taken = self.out, self.pot, self.taken
        while taken and taken[-1][0] >= start:
            out[taken.pop()[1]].pop()
        edge = self.edge
        for i in range(start, len(trail)):
            lit = trail[i]
            e = edge.get(lit)
            if e is None:
                continue
            u, v, w = e
            if pot[u] + w < pot[v]:
                cycle = self._lower(u, v, w)
                if cycle is not None:
                    cycle.append(lit)
                    return cycle
            out[u].append((v, w, lit))
            taken.append((i, u))
        return None

    def _lower(self, u: int, v: int, w: int) -> list[int] | None:
        """Lower the potential so that it keeps the new edge u -> v, or
        return the literals of the other edges of a negative cycle.

        Dijkstra from v over the reduced costs pot[s] + weight - pot[t],
        which are nonnegative on the active edges.  key[t] is how far t's
        potential must drop; only nodes with a negative key are expanded,
        and a negative key at u closes a negative cycle through the new
        edge.  The potential changes only when no cycle is found.
        """
        if u == v:
            return []
        pot, out = self.pot, self.out
        key = {v: pot[u] + w - pot[v]}
        pred: dict[int, tuple[int, int]] = {}
        heap = [(key[v], v)]
        done = []
        while heap:
            k, s = heappop(heap)
            if k != key[s]:
                continue  # stale entry
            done.append(s)
            base = k + pot[s]
            for t, wt, lit in out[s]:
                nk = base + wt - pot[t]
                if nk < 0 and nk < key.get(t, 0):
                    pred[t] = (s, lit)
                    if t == u:
                        lits = []
                        while t != v:
                            t, lit = pred[t]
                            if lit:
                                lits.append(lit)
                        return lits
                    key[t] = nk
                    heappush(heap, (nk, t))
        for s in done:
            pot[s] += key[s]
        return None
