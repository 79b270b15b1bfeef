"""Constraint backend: satisfiability, arithmetic, enumeration, minimization."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from cfevrp import solver as S


def test_empty_context_is_sat():
    res = S.Context().check()
    assert res is not None


def test_two_contexts_are_independent():
    c1, c2 = S.Context(), S.Context()
    x = c1.new_bool()
    c1.assert_formula(x)
    c1.assert_formula(-x)
    assert c1.check() is None
    assert c2.check() is not None


def test_assert_true_stays_sat():
    ctx = S.Context()
    x = ctx.new_bool()
    ctx.assert_formula(x, -x)  # a tautology
    assert ctx.check() is not None
    # a repeated literal counts once, in an asserted and in a blocking
    # clause: y or y or x with x false forces y, and blocking the model's
    # projection onto x, y, y leaves no model
    y = ctx.new_bool()
    ctx.assert_formula(y, y, x)
    ctx.assert_formula(-x)
    res = ctx.check()
    assert res is not None and res.value(y)
    ctx.block_model([x, y, y], res)
    assert ctx.check() is None
    assert _each_variable_once(ctx)


def _each_variable_once(ctx):
    """No stored clause repeats a variable: repeats merged, tautologies
    dropped."""
    return all(len({abs(l) for l in c}) == len(c) for c in ctx._sat.clauses)


def test_counter_over_repeated_inputs():
    # a counter counts a repeated input twice, and x, -x once in all
    ctx = S.Context()
    x, z = ctx.new_bool(), ctx.new_bool()
    ctx.at_most([z, z], 1)
    ctx.exactly_one([x, -x])
    for assumptions, sat in (([], True), ([z], False), ([x], True),
                             ([-x], True)):
        assert (ctx.check(assumptions) is not None) is sat, assumptions
    assert _each_variable_once(ctx)


def test_contradiction_is_unsat():
    ctx = S.Context()
    x = ctx.new_bool()
    ctx.assert_formula(x)
    ctx.assert_formula(-x)
    assert ctx.check() is None


def test_pinned_real_value():
    ctx = S.Context()
    g = ctx.new_real()
    ctx.assert_formula(ctx.le(0, g, -2))  # g >= 2
    ctx.assert_formula(ctx.le(g, 0, 2))  # g <= 2
    res = ctx.check()
    assert res is not None and res.real(g) == 2


def test_strict_inequalities_separate():
    ctx = S.Context()
    a, b = ctx.new_real(), ctx.new_real()
    ctx.assert_formula(ctx.le(a, b, -1))  # a <= b - 1
    ctx.assert_formula(ctx.le(b, 0, 3))
    res = ctx.check()
    assert res is not None
    assert res.real(b) - res.real(a) >= 1


def test_minimize_at_least_one():
    ctx = S.Context()
    x, y = ctx.new_bool(), ctx.new_bool()
    ctx.assert_formula(x, y)
    res = ctx.minimize([x, y])
    assert res is not None
    assert sum(1 for v in (x, y) if res.value(v)) == 1


def test_minimize_unconstrained_indicators_gives_zero():
    ctx = S.Context()
    vars_ = [ctx.new_bool() for _ in range(4)]
    res = ctx.minimize(vars_)
    assert res is not None
    assert all(res.value(v) is False for v in vars_)


def test_block_single_model_then_other_survives():
    ctx = S.Context()
    x, y = ctx.new_bool(), ctx.new_bool()
    ctx.assert_formula(x, y)
    ctx.assert_formula(-y)
    res = ctx.check()
    assert res is not None and res.value(x) is True
    ctx.block_model([x, y], res)
    assert ctx.check() is None  # y is pinned false, x was the only option


def test_full_model_enumeration_counts_seven():
    ctx = S.Context()
    vars_ = [ctx.new_bool() for _ in range(3)]
    ctx.assert_formula(*vars_)
    seen = set()
    while True:
        res = ctx.check()
        if res is None:
            break
        seen.add(tuple(bool(res.value(v)) for v in vars_))
        ctx.block_model(vars_, res)
    assert len(seen) == 7  # all assignments except all-false


def _cardinality_matches_brute_force(add, holds):
    """Enumerate the models of add(ctx, lits, n, *guards) over 0-4 lits,
    n from -1 to len+1, no guard or a guard that is true, false or free,
    and compare them with brute force.  The count holds exactly when the
    guard is true (or absent); under a false guard the lits are free."""
    for nv in range(5):
        for n in range(-1, nv + 2):
            for guard in (None, True, False, "free"):
                ctx = S.Context()
                lits = [ctx.new_bool() for _ in range(nv)]
                g = ctx.new_bool()
                add(ctx, lits, n, *([] if guard is None else [g]))
                if guard in (True, False):
                    ctx.assert_formula(g if guard else -g)
                found = set()
                while (res := ctx.check()) is not None:
                    model = tuple(res.value(v) for v in [*lits, g])
                    assert model not in found
                    found.add(model)
                    ctx.block_model([*lits, g], res)
                expected = {
                    bits + (gv,)
                    for bits in itertools.product([False, True], repeat=nv)
                    for gv in (False, True)
                    if guard in (None, "free", gv)
                    and (holds(sum(bits), n) or (guard is not None and not gv))
                }
                assert found == expected, (nv, n, guard)


def test_context_with_totalizer_is_freed_without_gc():
    # Path changer contexts are large; a reference cycle would keep each one
    # alive until a full collection.
    gc.disable()
    try:
        ctx = S.Context()
        vars_ = [ctx.new_bool() for _ in range(5)]
        ctx.at_most(vars_, 2)
        assert ctx.check() is not None
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_ite_links_boolean_to_arithmetic():
    # if c then r >= 5 else r <= 1, as two guarded clauses
    ctx = S.Context()
    c = ctx.new_bool()
    r = ctx.new_real()
    ctx.assert_formula(-c, ctx.le(0, r, -5))
    ctx.assert_formula(c, ctx.le(r, 0, 1))
    ctx.assert_formula(ctx.le(0, r, -2))  # r >= 2
    res = ctx.check()
    assert res is not None
    assert res.value(c) is True and res.real(r) >= 5


def _clause_lits(lits):
    return [v if pos else -v for v, pos in lits]


def test_models_satisfy_asserted_formulas():
    rng = random.Random(99)
    for _ in range(30):
        ctx = S.Context()
        vars_ = [ctx.new_bool() for _ in range(5)]
        clauses = []
        for _ in range(8):
            lits = [(rng.choice(vars_), rng.random() < 0.5) for _ in range(3)]
            clauses.append(lits)
            ctx.assert_formula(*_clause_lits(lits))
        res = ctx.check()
        truth = {}
        if res is not None:
            truth = {v: bool(res.value(v)) for v in vars_}
            for lits in clauses:
                assert any(truth[v] == pos for v, pos in lits)
        else:
            # cross-check with exhaustive enumeration
            for bits in itertools.product([False, True], repeat=5):
                assign = dict(zip(vars_, bits))
                assert not all(
                    any(assign[v] == pos for v, pos in lits)
                    for lits in clauses
                )


def test_minimize_matches_brute_force():
    rng = random.Random(4)
    for _ in range(20):
        ctx = S.Context()
        vars_ = [ctx.new_bool() for _ in range(6)]
        clauses = []
        for _ in range(6):
            lits = [(rng.choice(vars_), rng.random() < 0.6) for _ in range(2)]
            clauses.append(lits)
            ctx.assert_formula(*_clause_lits(lits))
        res = ctx.minimize(vars_)
        best = None
        for bits in itertools.product([False, True], repeat=6):
            assign = dict(zip(vars_, bits))
            if all(any(assign[v] == pos for v, pos in lits) for lits in clauses):
                cost = sum(bits)
                best = cost if best is None else min(best, cost)
        if best is None:
            assert res is None
        else:
            assert res is not None
            assert sum(1 for v in vars_ if res.value(v)) == best


def test_cardinality_over_no_variables():
    for add, sat in ((lambda c: c.exactly_one([]), False),
                     (lambda c: c.at_most([], 0), True),
                     (lambda c: c.at_most([], 1), True),
                     (lambda c: c.at_most([], -1), False)):
        ctx = S.Context()
        add(ctx)
        assert (ctx.check() is not None) is sat
    assert S.Context().minimize([], lower=1) is not None


def test_at_most_matches_brute_force():
    _cardinality_matches_brute_force(S.Context.at_most, lambda k, n: k <= n)


def _random_literals(rng, vars_, size):
    """size literals over vars_, each of random sign; a variable may repeat,
    and then counts once per occurrence."""
    return [rng.choice(vars_) * rng.choice((1, -1)) for _ in range(size)]


def test_exactly_one_matches_brute_force():
    # Random literal lists of 0-8 literals over five variables, repeats and
    # complements included; a list past four literals goes through the
    # split, and its fresh variables must not change the projection.
    rng = random.Random(26)
    for size in range(9):
        for _ in range(6):
            ctx = S.Context()
            vars_ = [ctx.new_bool() for _ in range(5)]
            lits = _random_literals(rng, vars_, size)
            ctx.exactly_one(lits)
            assert (ctx._sat.nvars > len(vars_)) is (size > 4)
            found = set()
            while (res := ctx.check()) is not None:
                model = tuple(res.value(v) for v in vars_)
                assert model not in found
                found.add(model)
                ctx.block_model(vars_, res)
            expected = set()
            for bits in itertools.product([False, True], repeat=len(vars_)):
                value = dict(zip(vars_, bits))
                if sum(value[l] if l > 0 else not value[-l] for l in lits) == 1:
                    expected.add(bits)
            assert found == expected, lits


def test_truncated_cardinality_matches_brute_force_at_every_bound():
    # One context per literal list holds every bound at once, each under its
    # own guard and asked in a random order, so the totalizer is cut at one
    # bound and rebuilt for a larger one in the same context.
    rng = random.Random(16)
    for size in range(11):
        ctx = S.Context()
        vars_ = [ctx.new_bool() for _ in range(6)]
        lits = _random_literals(rng, vars_, size)
        bounds = list(range(-1, size + 2))
        rng.shuffle(bounds)
        guard = {}
        for n in bounds:
            guard[n] = ctx.new_bool()
            ctx.at_most(lits, n, guard[n])
        for bits in itertools.product([False, True], repeat=len(vars_)):
            fixed = [v if b else -v for v, b in zip(vars_, bits)]
            value = dict(zip(vars_, bits))
            count = sum(value[l] if l > 0 else not value[-l] for l in lits)
            for n in bounds:
                res = ctx.check([guard[n], *fixed])
                assert (res is not None) is (count <= n), (size, lits, n, bits)


def test_truncated_minimize_matches_brute_force_from_every_lower_bound():
    rng = random.Random(17)
    for size in range(1, 11):
        for _ in range(3):
            ctx = S.Context()
            vars_ = [ctx.new_bool() for _ in range(size)]
            lits = [v * rng.choice((1, -1)) for v in vars_]
            clauses = [[rng.choice(vars_) * rng.choice((1, -1))
                        for _ in range(3)] for _ in range(size)]
            for clause in clauses:
                ctx.assert_formula(*clause)
            costs = []
            for bits in itertools.product([False, True], repeat=size):
                value = dict(zip(vars_, bits))
                truth = lambda l: value[l] if l > 0 else not value[-l]
                if all(any(truth(l) for l in c) for c in clauses):
                    costs.append(sum(truth(l) for l in lits))
            for lower in range(min(costs, default=0) + 1):
                res = ctx.minimize(lits, lower=lower)
                assert (res is not None) is bool(costs)
                if costs:
                    assert len(res.true_vars(lits)) == min(costs)


def test_exactly_one_over_many_literals_adds_linear_clauses():
    # Exactly one needs no counter: up to four literals it is one clause and
    # the pairwise exclusions, with no new variable, and past four Heule's
    # split adds one variable per two literals and six clauses per variable,
    # not the O(len^2) exclusions of all pairs.
    for size, clauses, new_vars in ((4, 1 + 6, 0), (64, 8 * 64, 64 // 2)):
        ctx = S.Context()
        lits = [ctx.new_bool() for _ in range(size)]
        ctx.exactly_one(lits)
        assert len(ctx._sat.clauses) <= clauses, size
        assert ctx._sat.nvars - size <= new_vars, size


def test_minimize_from_last_optimum_lists_models_by_cost():
    # Blocking each optimum and minimizing again from it must walk every
    # model in cost order: no cap may survive a minimize call, and the
    # lower bound must not skip a cheaper model.
    rng = random.Random(8)
    for _ in range(15):
        ctx = S.Context()
        vars_ = [ctx.new_bool() for _ in range(5)]
        clauses = []
        for _ in range(5):
            lits = [(rng.choice(vars_), rng.random() < 0.5) for _ in range(2)]
            clauses.append(lits)
            ctx.assert_formula(*_clause_lits(lits))
        costs = sorted(
            sum(bits) for bits in itertools.product([False, True], repeat=5)
            if all(any(dict(zip(vars_, bits))[v] == pos for v, pos in lits)
                   for lits in clauses))
        got, lower = [], 0
        while (res := ctx.minimize(vars_, lower=lower)) is not None:
            lower = len(res.true_vars(vars_))
            got.append(lower)
            ctx.block_model(vars_, res)
        assert got == costs


# --- difference theory against a Fraction reference -------------------------
#
# The theory works on int bounds, with a potential kept while literals come
# and go.  These tests draw rational bounds and hand the theory their
# multiples by SCALE, which makes each whole, as a caller scales its
# quantities.  The references run a from-scratch Bellman-Ford on the
# Fractions over the same edges: a true atom gives its edge, and a false
# atom none, since atoms occur only positively.

SCALE = 21 * 2 ** 52  # thirds, sevenths and the binary values of floats


def _atoms(ctx):
    """The atoms of ctx: literal -> (x, y, c) for the atom x - y <= c."""
    return {lit: (x, y, c) for lit, (y, x, c) in ctx._graph.edge.items()}


def _scaled(c):
    """The rational bound c as the int bound the theory takes."""
    assert (c * SCALE).denominator == 1
    return int(c * SCALE)


def _ref_edge(ctx, lit):
    """(u, v, weight) of the edge lit gives, or None."""
    atom = _atoms(ctx).get(lit)
    if atom is None:
        return None
    u, v, c = atom
    return (v, u, Fraction(c, SCALE))


def _ref_edges(ctx, lits):
    edges = [(*e, lit) for lit in lits if (e := _ref_edge(ctx, lit)) is not None]
    for x in range(1, ctx._graph.n):  # node 0 is zero
        edges.append((x, 0, Fraction(0), 0))
    return edges


def _ref_relax(dist, edges, passes):
    """In-place Bellman-Ford passes; returns the last node relaxed."""
    changed = None
    for _ in range(passes):
        changed = None
        for u, v, w, _lit in edges:
            cand = dist[u] + w
            if cand < dist[v]:
                dist[v] = cand
                changed = v
        if changed is None:
            break
    return changed


def reference_has_negative_cycle(ctx, lits):
    dist = dict.fromkeys(range(ctx._graph.n), Fraction(0))
    return _ref_relax(dist, _ref_edges(ctx, lits), len(dist)) is not None


def reference_real_values(ctx, lits):
    dist = dict.fromkeys(range(ctx._graph.n), Fraction(0))
    _ref_relax(dist, _ref_edges(ctx, lits), len(dist))
    return [dist[x] - dist[0] for x in dist]


def _model_reals(m, n):
    """The values of reals 0..n-1 in model m, as the rational values."""
    return [Fraction(m.real(x), SCALE) for x in range(n)]


def _random_bound(rng):
    return rng.choice([
        Fraction(rng.randint(-12, 12), 3),
        Fraction(rng.randint(-12, 12), 7),
        Fraction(rng.choice([0.7, -0.7, 2.1, 1.3])),
        Fraction(rng.randint(-4, 4)),
    ])


def _random_atom(rng, ctx, xs):
    kind = rng.randrange(4)
    c = _scaled(_random_bound(rng))
    if kind == 0:
        return ctx.le(rng.choice(xs), 0, c)  # x <= c
    if kind == 1:
        return ctx.le(0, rng.choice(xs), -c)  # x >= c
    a, b = rng.sample(xs, 2)
    # a - b >= c, or a - b <= c
    return ctx.le(b, a, -c) if kind == 2 else ctx.le(a, b, c)


def test_integer_theory_matches_fraction_reference():
    # Literals reach the theory one at a time, as the core hands them over
    # at its fixpoints, and random undo points drop the newest ones, as a
    # backjump does.  Every verdict must equal the reference's, and every
    # cycle must be negative and made of literals on the trail.
    rng = random.Random(7)
    outcomes = {"conflict": 0, "consistent": 0}
    for _ in range(60):
        ctx = S.Context()
        xs = [ctx.new_real() for _ in range(rng.randint(2, 5))]
        for _batch in range(2):  # the second batch adds atoms to the first
            for _ in range(rng.randint(2, 6)):
                _random_atom(rng, ctx, xs)
            atoms = sorted(_atoms(ctx))
            for _ in range(5):
                # each trial on a fresh graph over the context's edges
                g = S._DiffGraph(ctx._graph.n)
                g.edge = ctx._graph.edge
                trail, checked = [], 0
                for atom in rng.sample(atoms, len(atoms)):
                    if trail and rng.random() < 0.25:
                        del trail[rng.randrange(len(trail)):]
                        checked = min(checked, len(trail))
                    trail.append(atom if rng.random() < 0.5 else -atom)
                    cycle = g.assert_trail(trail, checked)
                    expected = reference_has_negative_cycle(ctx, trail)
                    assert (cycle is not None) == expected, trail
                    if cycle is None:
                        outcomes["consistent"] += 1
                        checked = len(trail)
                        continue
                    outcomes["conflict"] += 1
                    assert len(set(cycle)) == len(cycle)
                    assert set(cycle) <= set(trail)
                    assert sum(_ref_edge(ctx, lit)[2] for lit in cycle) < 0
                    assert reference_has_negative_cycle(ctx, cycle)
                    trail.pop()
                    checked = min(checked, len(trail))
                assert ([Fraction(r, SCALE) for r in g.values(trail, g.n)]
                        == reference_real_values(ctx, trail))
    assert min(outcomes.values()) >= 50, outcomes


def test_model_values_are_exact_fractions():
    # in units of 1/210, the bounds 1/3, 7/10 and 2/7 are whole, and the
    # model's int values read back as exact Fractions
    ctx = S.Context()
    a, b = ctx.new_real(), ctx.new_real()
    ctx.assert_formula(ctx.le(a, b, -70))  # b - a >= 1/3
    ctx.assert_formula(ctx.le(b, 0, 147))  # b <= 7/10
    ctx.assert_formula(ctx.le(0, a, -60))  # a >= 2/7
    res = ctx.check()
    assert res is not None
    ia, ib = res.real(a), res.real(b)
    assert isinstance(ia, int) and isinstance(ib, int)
    va, vb = Fraction(ia, 210), Fraction(ib, 210)
    assert va >= Fraction(2, 7) and vb - va >= Fraction(1, 3)
    assert vb <= Fraction(7, 10)


# --- the CDCL(T) core against brute force -------------------------------------
#
# Random small CNFs over Boolean literals and positive difference atoms.
# Brute force decides every projection onto the Boolean variables by trying
# each truth value of each atom and a Fraction Bellman-Ford on the true
# atoms' constraints.
# The seed makes the solver hit theory conflicts with one literal on their
# top level, theory conflicts on level 0, and unit clauses added between two
# check() calls.  A mishandled unit clause fails this test; the two conflict
# branches are pinned by test_failed_assumption_does_not_poison_a_later_check
# and test_unsat_without_assumptions_stays_unsat.


def _atoms_consistent(xs, atoms, truth):
    zero = "zero"
    edges = [(x, zero, Fraction(0), 0) for x in xs]
    for (a, b, c), t in zip(atoms, truth):
        if t:
            edges.append((b or zero, a or zero, c, 0))
    dist = dict.fromkeys([zero, *xs], Fraction(0))
    return _ref_relax(dist, edges, len(dist)) is None


def _holds(lit, bools, atoms, m):
    kind, i, pos = lit
    if kind == "b":
        return m.value(bools[i]) is pos
    a, b, c = atoms[i]
    va = m.real(a) if a is not None else 0
    vb = m.real(b) if b is not None else 0
    return (Fraction(va - vb, SCALE) <= c) is pos


def _solver_lit(ctx, lit, bools, atoms):
    kind, i, pos = lit
    if kind == "b":
        x = bools[i]
    else:
        a, b, c = atoms[i]  # val(a) - val(b) <= c, None is the zero node
        x = ctx.le(a or 0, b or 0, _scaled(c))
    return x if pos else -x


def _brute_force_projections(bools, xs, atoms, clauses):
    out = set()
    for bbits in itertools.product([False, True], repeat=len(bools)):
        for abits in itertools.product([False, True], repeat=len(atoms)):
            ok = all(any(
                (bbits[i] if kind == "b" else abits[i]) is pos
                for kind, i, pos in cl) for cl in clauses)
            if ok and _atoms_consistent(xs, atoms, abits):
                out.add(bbits)
                break
    return out


def _check_model(m, bools, atoms, clauses):
    for cl in clauses:
        assert any(_holds(lit, bools, atoms, m) for lit in cl), cl
    return tuple(m.value(v) for v in bools)


def _random_lit(rng, nb, na):
    if rng.random() < 0.5:
        return ("b", rng.randrange(nb), rng.random() < 0.5)
    return ("a", rng.randrange(na), True)


def test_cdcl_t_core_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        ctx = S.Context()
        bools = [ctx.new_bool() for _ in range(rng.randint(2, 4))]
        xs = [ctx.new_real() for _ in range(rng.randint(2, 3))]
        atoms = []
        for _ in range(rng.randint(3, 5)):
            a, b = rng.sample([None, *xs], 2)
            atoms.append((a, b, Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))))
        clauses = [[_random_lit(rng, len(bools), len(atoms))
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(3, 7))]

        def assert_clause(cl):
            ctx.assert_formula(*[_solver_lit(ctx, l, bools, atoms) for l in cl])

        for cl in clauses:
            assert_clause(cl)
        for round_ in range(2):
            expected = _brute_force_projections(bools, xs, atoms, clauses)
            # every projection, one check(assumptions=...) call each
            for bits in itertools.product([False, True], repeat=len(bools)):
                lits = [v if t else -v for v, t in zip(bools, bits)]
                res = ctx.check(assumptions=lits)
                assert (res is not None) == (bits in expected), (round_, bits)
                if res is not None:
                    assert _check_model(res, bools, atoms, clauses) == bits
            if round_ == 0:
                # a unit clause between two check() calls
                unit = [_random_lit(rng, len(bools), len(atoms))]
                clauses.append(unit)
                assert_clause(unit)
        # enumerate by blocking each model's projection
        found = set()
        while True:
            res = ctx.check()
            if res is None:
                break
            bits = _check_model(res, bools, atoms, clauses)
            assert bits in expected and bits not in found
            found.add(bits)
            ctx.block_model(bools, res)
        assert found == expected


# --- the search state kept between check() calls -----------------------------
#
# A context keeps its level-0 trail, watches, heap and theory potential from
# one check() to the next.  These tests replay random logs of additions on
# one context, checking after each step, and compare every verdict with a
# fresh context built from the same log.  Literal numbering depends only on
# the log, so both contexts share it.


def _apply(ctx, entry):
    kind, *args = entry
    if kind == "bool":
        ctx.new_bool()
    elif kind == "real":
        ctx.new_real()
    elif kind == "le":
        return ctx.le(*args)
    elif kind == "clause":
        ctx.assert_formula(*args[0])
    else:
        ctx.at_most(*args)


def _model_satisfies(ctx, m, log, assumptions):
    """The model m against every entry of log and the assumptions; its
    reals must equal the Fraction reference over its true literals."""
    for a in assumptions:
        assert m.value(a)
    for kind, *args in log:
        if kind == "clause":
            assert any(m.value(l) for l in args[0]), args
        elif kind == "at_most":
            lits, n = args
            assert sum(m.value(l) for l in lits) <= n
    true_lits = [l for v in range(1, ctx._sat.nvars + 1)
                 for l in (v, -v) if m.value(l)]
    reals = reference_real_values(ctx, true_lits)
    assert _model_reals(m, ctx._graph.n) == reals
    for lit, (x, y, c) in _atoms(ctx).items():
        if m.value(lit):
            assert reals[x] - reals[y] <= Fraction(c, SCALE)


def _random_le_args(rng, ctx):
    """(x, y, c) of a random atom over the context's reals."""
    x, y = rng.sample(range(ctx._graph.n), 2)
    return x, y, _scaled(_random_bound(rng))


def test_incremental_context_matches_fresh_context():
    rng = random.Random(19)
    seen = dict.fromkeys(
        ("sat", "unsat", "dead", "level0 unit", "level0 true", "level0 false",
         "grew", "assumption failed then sat"), 0)
    for _ in range(150):
        ctx = S.Context()
        log = []

        def add(entry):
            log.append(entry)
            return _apply(ctx, entry)

        for _ in range(rng.randint(4, 7)):
            add(("bool",))
        for _ in range(rng.randint(2, 3)):
            add(("real",))
        atoms = []
        dead = failed = False
        assumptions = []
        checked_size = None  # (reals, atoms) at the last check
        for _step in range(10):
            # atoms occur only positively: a level-0 literal may go into a
            # clause as it is unless it negates an atom, and negated unless
            # it is an atom
            level0 = list(ctx._sat.trail)
            known = _atoms(ctx)
            level0_true = [l for l in level0 if -l not in known]
            level0_false = [l for l in level0 if l not in known]
            bools = [v for v in range(1, ctx._sat.nvars + 1) if v not in known]

            def boolean():
                return rng.choice(bools) * rng.choice((1, -1))

            def lit():
                if atoms and rng.random() < 0.4:
                    return rng.choice(atoms)
                return boolean()

            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(10)
                if kind == 0:  # a new atom, sometimes over a new real, and
                    # sometimes in a clause at once
                    if rng.random() < 0.3:
                        add(("real",))
                    atoms.append(add(("le", *_random_le_args(rng, ctx))))
                    if rng.random() < 0.5:
                        add(("clause", [atoms[-1], lit()]))
                elif kind == 1 and atoms:  # an atom, maybe for the first time
                    add(("clause", [rng.choice(atoms), lit(), lit()]))
                elif kind == 2:  # a new counter over old and new Booleans
                    lits = [boolean() for _ in range(rng.randint(2, 5))]
                    add(("at_most", lits, rng.randint(1, len(lits) - 1)))
                elif kind == 3:
                    add(("clause", [lit()]))
                elif kind == 4 and level0_true:  # true on level 0
                    add(("clause", [rng.choice(level0_true), lit()]))
                    seen["level0 true"] += 1
                elif kind == 5 and level0_false:  # level-0 false literals
                    false = [-rng.choice(level0_false) for _ in range(2)]
                    free = rng.choice((0, 1, 1, 2, 2, 2, 2, 2))
                    add(("clause", false + [lit() for _ in range(free)]))
                    seen["level0 false"] += 1
                else:
                    add(("clause", [lit() for _ in range(rng.randint(2, 3))]))
            if rng.random() < 0.5:  # change the assumptions
                assumptions = [lit() for _ in range(rng.randint(0, 2))]
                if atoms and rng.random() < 0.3:
                    assumptions.append(rng.choice(atoms))
            size = (ctx._graph.n, len(ctx._graph.edge))
            if checked_size is not None and size != checked_size:
                seen["grew"] += 1  # the graph grew since the last check
            checked_size = size
            trail = len(ctx._sat.trail)
            res = ctx.check(assumptions)
            seen["level0 unit"] += len(ctx._sat.trail) > trail
            fresh = S.Context()
            for entry in log:
                _apply(fresh, entry)
            expected = fresh.check(assumptions)
            assert (res is None) is (expected is None), log
            if dead:
                assert res is None
                break
            if failed and res is not None:
                seen["assumption failed then sat"] += 1
            if res is not None:
                seen["sat"] += 1
                _model_satisfies(ctx, res, log, assumptions)
                _model_satisfies(fresh, expected, log, assumptions)
                failed = False
                continue
            seen["unsat"] += 1
            if not assumptions or ctx._sat.empty_clause:
                dead = True  # the next check must be unsat too
                seen["dead"] += ctx._sat.empty_clause
            failed = not dead
    assert min(seen.values()) >= 10, seen


def test_equal_bounds_share_one_atom():
    # Equal int bounds share an atom; any other bound is refused, a Fraction
    # as a float: the caller scales its quantities to whole units first.
    ctx = S.Context()
    x = ctx.new_real()
    assert ctx.le(x, 0, 2) == ctx.le(x, 0, 2)
    assert ctx.le(x, 0, 5) == ctx.le(x, 0, 10 // 2)
    assert ctx.le(0, x, -3) != ctx.le(x, 0, 3)
    for c in (2.0, 2.5, 0.7, Fraction(2), Fraction(5, 2)):
        with pytest.raises(TypeError):
            ctx.le(x, 0, c)
    assert sorted(type(c).__name__ for _, _, c in _atoms(ctx).values()) \
        == ["int", "int", "int", "int"]


def test_unsat_without_assumptions_stays_unsat():
    ctx = S.Context()
    x, y = ctx.new_real(), ctx.new_real()
    b = ctx.new_bool()
    ctx.assert_formula(ctx.le(x, y, -1))  # x <= y - 1
    ctx.assert_formula(ctx.le(y, x, 0), b)
    ctx.assert_formula(-b)
    assert ctx.check() is None  # a theory conflict on level 0
    assert ctx._sat.empty_clause
    c = ctx.new_bool()
    ctx.assert_formula(c)
    assert ctx.check() is None
    assert ctx.check([c]) is None


def test_failed_assumption_does_not_poison_a_later_check():
    # A Boolean assumption refuted by a clause, and an atom assumption
    # refuted by the theory: neither leaves a trace once it is dropped.
    ctx = S.Context()
    x = ctx.new_real()
    a, b = ctx.new_bool(), ctx.new_bool()
    low = ctx.le(x, 0, 1)  # x <= 1
    ctx.assert_formula(-a, ctx.le(0, x, -2))  # a -> x >= 2
    ctx.assert_formula(-a, -b)
    assert ctx.check([a, b]) is None
    assert ctx.check([a, low]) is None
    for assumptions in ([], [a], [b], [low]):
        res = ctx.check(assumptions)
        assert res is not None and all(res.value(l) for l in assumptions)
    assert not ctx._sat.empty_clause


def test_model_is_a_snapshot():
    # Later checks, blocked models, new atoms and new reals must not change
    # what a model reads, whether its reals are first read at once or only
    # later; a real made after a check has no value in its model.
    ctx = S.Context()
    xs = [ctx.new_real() for _ in range(3)]
    bools = [ctx.new_bool() for _ in range(4)]
    for i, b in enumerate(bools):
        # b -> x >= i+1
        ctx.assert_formula(-b, ctx.le(0, xs[i % 3], -_scaled(i + 1)))
    ctx.assert_formula(*bools)
    models = []
    while len(models) < 16 and (m := ctx.check()) is not None:
        lits = {l: m.value(l)
                for v in range(1, ctx._sat.nvars + 1) for l in (v, -v)}
        assert all(lits[v] is not lits[-v] for v in bools)
        assert any(lits[v] for v in bools)
        reals = reference_real_values(ctx, [l for l, t in lits.items() if t])
        if len(models) % 2:
            assert _model_reals(m, len(reals)) == reals
        models.append((m, lits, reals))
        ctx.block_model(bools, m)
        # a new atom, and a new real with an atom over it
        ctx.assert_formula(ctx.le(xs[0], 0, _scaled(10 + len(models))))
        y = ctx.new_real()
        ctx.assert_formula(ctx.le(xs[1], y, -_scaled(len(models))))
        for m, lits, reals in models:
            assert {l: m.value(l) for l in lits} == lits
            assert _model_reals(m, len(reals)) == reals
            with pytest.raises(IndexError):
                m.real(y)
    assert len(models) == 15


def test_negated_atom_is_refused_at_every_entry_point():
    # Atoms occur only positively.  Every entry point that would negate one
    # raises before it changes the context, which then answers as before.
    ctx = S.Context()
    x = ctx.new_real()
    b = ctx.new_bool()
    low = ctx.le(0, x, -2)  # x >= 2
    high = ctx.le(x, 0, 1)  # x <= 1
    ctx.assert_formula(low, b)
    ctx.assert_formula(high)
    m = ctx.check()
    assert m.value(high) and m.value(b) and not m.value(low)
    size = (ctx._sat.nvars, len(ctx._sat.clauses), len(_atoms(ctx)))
    refused = [
        lambda: ctx.assert_formula(b, -high),
        lambda: ctx.block_model([b, high], m),
        lambda: ctx.check([b, -low]),
        lambda: ctx.at_most([b, low], 1),
        lambda: ctx.exactly_one([high, b]),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="negated"):
            call()
        assert (ctx._sat.nvars, len(ctx._sat.clauses),
                len(_atoms(ctx))) == size
        res = ctx.check()
        assert res is not None and res.value(b) and res.value(high)
        assert res.real(x) <= 1
        assert ctx.check([low]) is None
