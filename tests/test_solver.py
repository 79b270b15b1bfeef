"""Constraint backend: satisfiability, arithmetic, enumeration, minimization."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

from cfevrp import solver as S


def test_empty_context_is_sat():
    res = S.Context().check()
    assert res.sat


def test_two_contexts_are_independent():
    c1, c2 = S.Context(), S.Context()
    x = c1.new_bool()
    c1.assert_formula(x)
    c1.assert_formula(-x)
    assert not c1.check().sat
    assert c2.check().sat


def test_assert_true_stays_sat():
    ctx = S.Context()
    x = ctx.new_bool()
    ctx.assert_formula(x, -x)  # a tautology
    assert ctx.check().sat


def test_contradiction_is_unsat():
    ctx = S.Context()
    x = ctx.new_bool()
    ctx.assert_formula(x)
    ctx.assert_formula(-x)
    assert not ctx.check().sat


def test_pinned_real_value():
    ctx = S.Context()
    g = ctx.new_real()
    ctx.assert_formula(ctx.le(0, g, -2))  # g >= 2
    ctx.assert_formula(ctx.le(g, 0, 2))  # g <= 2
    res = ctx.check()
    assert res.sat and res.model.real(g) == Fraction(2)


def test_strict_inequalities_separate():
    ctx = S.Context()
    a, b = ctx.new_real(), ctx.new_real()
    ctx.assert_formula(ctx.le(a, b, Fraction(-1)))  # a <= b - 1
    ctx.assert_formula(ctx.le(b, 0, 3))
    res = ctx.check()
    assert res.sat
    assert res.model.real(b) - res.model.real(a) >= 1


def test_minimize_at_least_one():
    ctx = S.Context()
    x, y = ctx.new_bool(), ctx.new_bool()
    ctx.assert_formula(x, y)
    res = ctx.minimize([x, y])
    assert res.sat
    assert sum(1 for v in (x, y) if res.model.value(v)) == 1


def test_minimize_unconstrained_indicators_gives_zero():
    ctx = S.Context()
    vars_ = [ctx.new_bool() for _ in range(4)]
    res = ctx.minimize(vars_)
    assert res.sat
    assert all(res.model.value(v) is False for v in vars_)


def test_block_single_model_then_other_survives():
    ctx = S.Context()
    x, y = ctx.new_bool(), ctx.new_bool()
    ctx.assert_formula(x, y)
    ctx.assert_formula(-y)
    res = ctx.check()
    assert res.sat and res.model.value(x) is True
    ctx.block_model([x, y], res.model)
    assert not ctx.check().sat  # y is pinned false, x was the only option


def test_full_model_enumeration_counts_seven():
    ctx = S.Context()
    vars_ = [ctx.new_bool() for _ in range(3)]
    ctx.assert_formula(*vars_)
    seen = set()
    while True:
        res = ctx.check()
        if not res.sat:
            break
        seen.add(tuple(bool(res.model.value(v)) for v in vars_))
        ctx.block_model(vars_, res.model)
    assert len(seen) == 7  # all assignments except all-false


def test_positive_subset_blocking_is_coarser():
    ctx = S.Context()
    vars_ = [ctx.new_bool() for _ in range(3)]
    ctx.assert_formula(*vars_)
    count = 0
    while True:
        res = ctx.check()
        if not res.sat:
            break
        count += 1
        ctx.block_true_subset(vars_, res.model)
        assert count <= 7
    assert 1 <= count < 7  # supersets of earlier true-sets are gone too


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
                while (res := ctx.check()).sat:
                    model = tuple(res.model.value(v) for v in [*lits, g])
                    assert model not in found
                    found.add(model)
                    ctx.block_model([*lits, g], res.model)
                expected = {
                    bits + (gv,)
                    for bits in itertools.product([False, True], repeat=nv)
                    for gv in (False, True)
                    if guard in (None, "free", gv)
                    and (holds(sum(bits), n) or (guard is not None and not gv))
                }
                assert found == expected, (nv, n, guard)


def test_exactly_n():
    _cardinality_matches_brute_force(S.Context.exactly, lambda k, n: k == n)


def test_context_with_totalizer_is_freed_without_gc():
    # Path changer contexts are large; a reference cycle would keep each one
    # alive until a full collection.
    gc.disable()
    try:
        ctx = S.Context()
        vars_ = [ctx.new_bool() for _ in range(5)]
        ctx.exactly(vars_, 2)
        assert ctx.check().sat
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
    assert res.sat
    assert res.model.value(c) is True and res.model.real(r) >= 5


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
        if res.sat:
            truth = {v: bool(res.model.value(v)) for v in vars_}
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
            assert not res.sat
        else:
            assert res.sat
            assert sum(1 for v in vars_ if res.model.value(v)) == best


def test_cardinality_over_no_variables():
    for add, sat in ((lambda c: c.exactly([], 0), True),
                     (lambda c: c.exactly([], 1), False),
                     (lambda c: c.at_most([], 0), True),
                     (lambda c: c.at_most([], 1), True),
                     (lambda c: c.at_most([], -1), False)):
        ctx = S.Context()
        add(ctx)
        assert ctx.check().sat is sat
    assert S.Context().minimize([], lower=1).sat


def test_at_most_matches_brute_force():
    _cardinality_matches_brute_force(S.Context.at_most, lambda k, n: k <= n)


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
        while (res := ctx.minimize(vars_, lower=lower)).sat:
            lower = len(res.model.true_vars(vars_))
            got.append(lower)
            ctx.block_model(vars_, res.model)
        assert got == costs


# --- difference theory against a Fraction reference -------------------------
#
# The theory check works on integers: bounds scaled by the LCM of their
# denominators, a strict-edge count packed into each weight.  These
# references run the same Bellman-Ford on (Fraction, eps) pairs, so the
# integer check must return the same cycle and the same model.

def _ref_edges(ctx, assignment):
    edges = []
    for lit, (u, v, c) in ctx._atom_by_lit.items():
        if assignment[lit]:
            edges.append((v, u, (c, 0), lit))
        else:
            edges.append((u, v, (-c, -1), -lit))
    for x in range(1, ctx._nreals + 1):  # node 0 is zero
        edges.append((x, 0, (Fraction(0), 0), 0))
    return edges


def _ref_relax(dist, edges, passes, pred=None):
    """In-place Bellman-Ford passes; returns the last node relaxed."""
    changed = None
    for _ in range(passes):
        changed = None
        for u, v, w, lit in edges:
            cand = (dist[u][0] + w[0], dist[u][1] + w[1])
            if cand < dist[v]:
                dist[v] = cand
                if pred is not None:
                    pred[v] = (u, lit)
                changed = v
        if changed is None:
            break
    return changed


def reference_theory_conflict(ctx, assignment):
    edges = _ref_edges(ctx, assignment)
    nodes = set(range(ctx._nreals + 1))
    for u, v, _, _ in edges:
        nodes.update((u, v))
    dist = {x: (Fraction(0), 0) for x in nodes}
    pred = {}
    node = _ref_relax(dist, edges, len(nodes), pred)
    if node is None:
        return None
    for _ in range(len(nodes)):
        node = pred[node][0]
    lits, cur = [], node
    while True:
        cur, lit = pred[cur]
        if lit:
            lits.append(lit)
        if cur == node:
            return lits or None


def reference_real_values(ctx, assignment):
    edges = _ref_edges(ctx, assignment)
    nodes = range(ctx._nreals + 1)
    dist = {x: (Fraction(0), 0) for x in nodes}
    _ref_relax(dist, edges, len(nodes))
    delta = Fraction(1)
    for u, v, w, _ in edges:
        slack_r = dist[u][0] + w[0] - dist[v][0]
        slack_e = dist[u][1] + w[1] - dist[v][1]
        if slack_r > 0 and slack_e < 0:
            delta = min(delta, Fraction(slack_r, -slack_e))
    base = dist[0]
    return [dist[x][0] - base[0] + delta / 2 * (dist[x][1] - base[1])
            for x in nodes]


def _random_bound(rng):
    return rng.choice([
        Fraction(rng.randint(-12, 12), 3),
        Fraction(rng.randint(-12, 12), 7),
        Fraction(rng.choice([0.7, -0.7, 2.1, 1.3])),
        Fraction(rng.randint(-4, 4)),
    ])


def _random_atom(rng, ctx, xs):
    kind = rng.randrange(4)
    c = _random_bound(rng)
    if kind == 0:
        return ctx.le(rng.choice(xs), 0, c)  # x <= c
    if kind == 1:
        return ctx.le(0, rng.choice(xs), -c)  # x >= c
    a, b = rng.sample(xs, 2)
    # a - b >= c, or a - b <= c
    return ctx.le(b, a, -c) if kind == 2 else ctx.le(a, b, c)


def test_integer_theory_matches_fraction_reference():
    rng = random.Random(7)
    outcomes = {"conflict": 0, "consistent": 0}
    for _ in range(60):
        ctx = S.Context()
        xs = [ctx.new_real() for _ in range(rng.randint(2, 5))]
        for _batch in range(2):  # new atoms must rebuild the integer graph
            for _ in range(rng.randint(2, 6)):
                _random_atom(rng, ctx, xs)
            for _ in range(5):
                assignment = [None] + [rng.random() < 0.5
                                       for _ in range(ctx._sat.nvars)]
                got = ctx._theory_conflict(assignment)
                assert got == reference_theory_conflict(ctx, assignment)
                if got is None:
                    outcomes["consistent"] += 1
                    assert (ctx._real_values(assignment)
                            == reference_real_values(ctx, assignment))
                else:
                    outcomes["conflict"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_model_values_are_exact_fractions():
    ctx = S.Context()
    a, b = ctx.new_real(), ctx.new_real()
    ctx.assert_formula(ctx.le(a, b, -Fraction(1, 3)))  # b - a >= 1/3
    ctx.assert_formula(ctx.le(b, 0, Fraction(0.7)))
    ctx.assert_formula(-ctx.le(a, 0, Fraction(2, 7)))  # a > 2/7
    res = ctx.check()
    assert res.sat
    va, vb = res.model.real(a), res.model.real(b)
    assert isinstance(va, Fraction) and isinstance(vb, Fraction)
    assert va > Fraction(2, 7) and vb - va >= Fraction(1, 3)
    assert vb <= Fraction(0.7)


# --- the CDCL(T) core against brute force -------------------------------------
#
# Random small CNFs over Boolean variables and difference atoms.  Brute force
# decides every projection onto the Boolean variables by trying each truth
# value of each atom and a Fraction Bellman-Ford on the atoms' constraints.
# The seed makes the solver hit theory conflicts with one literal on their
# top level, theory conflicts on level 0, and unit clauses added between two
# check() calls; breaking the handling of any of them fails this test.


def _atoms_consistent(xs, atoms, truth):
    zero = "zero"
    edges = [(x, zero, (Fraction(0), 0), 0) for x in xs]
    for (a, b, c), t in zip(atoms, truth):
        a, b = a or zero, b or zero
        edges.append((b, a, (c, 0), 0) if t else (a, b, (-c, -1), 0))
    dist = {x: (Fraction(0), 0) for x in [zero, *xs]}
    return _ref_relax(dist, edges, len(dist)) is None


def _holds(lit, bools, atoms, m):
    kind, i, pos = lit
    if kind == "b":
        return m.value(bools[i]) is pos
    a, b, c = atoms[i]
    va = m.real(a) if a is not None else 0
    vb = m.real(b) if b is not None else 0
    return (va - vb <= c) is pos


def _solver_lit(ctx, lit, bools, atoms):
    kind, i, pos = lit
    if kind == "b":
        x = bools[i]
    else:
        a, b, c = atoms[i]  # val(a) - val(b) <= c, None is the zero node
        x = ctx.le(a or 0, b or 0, c)
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


def _check_model(res, bools, atoms, clauses):
    for cl in clauses:
        assert any(_holds(lit, bools, atoms, res.model) for lit in cl), cl
    return tuple(res.model.value(v) for v in bools)


def _random_lit(rng, nb, na):
    if rng.random() < 0.5:
        return ("b", rng.randrange(nb), rng.random() < 0.5)
    return ("a", rng.randrange(na), rng.random() < 0.5)


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
                assert res.sat == (bits in expected), (round_, bits)
                if res.sat:
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
            if not res.sat:
                break
            bits = _check_model(res, bools, atoms, clauses)
            assert bits in expected and bits not in found
            found.add(bits)
            ctx.block_model(bools, res.model)
        assert found == expected
