"""Constraint backend: satisfiability, arithmetic, enumeration, minimization."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from cfevrp import solver as S
from cfevrp.errors import UnsupportedConstraint


def test_empty_context_is_sat():
    res = S.Context().check()
    assert res.sat


def test_two_contexts_are_independent():
    c1, c2 = S.Context(), S.Context()
    x = c1.new_bool("x")
    c1.assert_formula(S.bvar(x))
    c1.assert_formula(S.not_(S.bvar(x)))
    assert not c1.check().sat
    assert c2.check().sat


def test_assert_true_stays_sat():
    ctx = S.Context()
    ctx.assert_formula(S.TRUE)
    assert ctx.check().sat


def test_contradiction_is_unsat():
    ctx = S.Context()
    x = ctx.new_bool("x")
    ctx.assert_formula(S.and_(S.bvar(x), S.not_(S.bvar(x))))
    assert not ctx.check().sat


def test_pinned_real_value():
    ctx = S.Context()
    g = ctx.new_real("g")
    ctx.assert_formula(S.var_ge(g, 2))
    ctx.assert_formula(S.var_le(g, 2))
    res = ctx.check()
    assert res.sat and res.model.value(g) == Fraction(2)


def test_strict_inequalities_separate():
    ctx = S.Context()
    a, b = ctx.new_real("a"), ctx.new_real("b")
    ctx.assert_formula(S.lin([(1, a), (-1, b)], "<=", Fraction(-1)))  # a <= b - 1
    ctx.assert_formula(S.var_le(b, 3))
    res = ctx.check()
    assert res.sat
    assert res.model.value(b) - res.model.value(a) >= 1


def test_minimize_at_least_one():
    ctx = S.Context()
    x, y = ctx.new_bool("x"), ctx.new_bool("y")
    ctx.assert_formula(S.or_(S.bvar(x), S.bvar(y)))
    res = ctx.minimize([x, y])
    assert res.sat
    assert sum(1 for v in (x, y) if res.model.value(v)) == 1


def test_minimize_unconstrained_indicators_gives_zero():
    ctx = S.Context()
    vars_ = [ctx.new_bool(f"b{i}") for i in range(4)]
    res = ctx.minimize(vars_)
    assert res.sat
    assert all(res.model.value(v) is False for v in vars_)


def test_block_single_model_then_other_survives():
    ctx = S.Context()
    x, y = ctx.new_bool("x"), ctx.new_bool("y")
    ctx.assert_formula(S.or_(S.bvar(x), S.bvar(y)))
    ctx.assert_formula(S.not_(S.bvar(y)))
    res = ctx.check()
    assert res.sat and res.model.value(x) is True
    ctx.block_model([x, y], res.model)
    assert not ctx.check().sat  # y is pinned false, x was the only option


def test_full_model_enumeration_counts_seven():
    ctx = S.Context()
    vars_ = [ctx.new_bool(f"b{i}") for i in range(3)]
    ctx.assert_formula(S.or_(*[S.bvar(v) for v in vars_]))
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
    vars_ = [ctx.new_bool(f"b{i}") for i in range(3)]
    ctx.assert_formula(S.or_(*[S.bvar(v) for v in vars_]))
    count = 0
    while True:
        res = ctx.check()
        if not res.sat:
            break
        count += 1
        ctx.block_true_subset(vars_, res.model)
        assert count <= 7
    assert 1 <= count < 7  # supersets of earlier true-sets are gone too


def test_exactly_n():
    for n in range(4):
        ctx = S.Context()
        vars_ = [ctx.new_bool(f"b{i}") for i in range(3)]
        ctx.assert_formula(S.exactly(vars_, n))
        res = ctx.check()
        assert res.sat
        assert sum(1 for v in vars_ if res.model.value(v)) == n


def test_context_with_totalizer_is_freed_without_gc():
    # Path changer contexts are large; a reference cycle would keep each one
    # alive until a full collection.
    gc.disable()
    try:
        ctx = S.Context()
        vars_ = [ctx.new_bool(f"b{i}") for i in range(5)]
        ctx.assert_formula(S.exactly(vars_, 2))
        assert ctx.check().sat
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_ite_links_boolean_to_arithmetic():
    ctx = S.Context()
    c = ctx.new_bool("c")
    r = ctx.new_real("r")
    ctx.assert_formula(S.ite(S.bvar(c), S.var_ge(r, 5), S.var_le(r, 1)))
    ctx.assert_formula(S.var_ge(r, 2))
    res = ctx.check()
    assert res.sat
    assert res.model.value(c) is True and res.model.value(r) >= 5


def test_models_satisfy_asserted_formulas():
    rng = random.Random(99)
    for _ in range(30):
        ctx = S.Context()
        vars_ = [ctx.new_bool(f"b{i}") for i in range(5)]
        clauses = []
        for _ in range(8):
            lits = [(rng.choice(vars_), rng.random() < 0.5) for _ in range(3)]
            clauses.append(lits)
            ctx.assert_formula(S.or_(*[
                S.bvar(v) if pos else S.not_(S.bvar(v)) for v, pos in lits
            ]))
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
        vars_ = [ctx.new_bool(f"b{i}") for i in range(6)]
        clauses = []
        for _ in range(6):
            lits = [(rng.choice(vars_), rng.random() < 0.6) for _ in range(2)]
            clauses.append(lits)
            ctx.assert_formula(S.or_(*[
                S.bvar(v) if pos else S.not_(S.bvar(v)) for v, pos in lits
            ]))
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
    for f, sat in ((S.exactly([], 0), True), (S.exactly([], 1), False),
                   (S.at_most([], 0), True), (S.at_most([], 1), True),
                   (S.at_most([], -1), False)):
        ctx = S.Context()
        ctx.assert_formula(f)
        assert ctx.check().sat is sat
    assert S.Context().minimize([], lower=1).sat


def test_at_most_matches_brute_force():
    for n in range(-1, 6):
        ctx = S.Context()
        vars_ = [ctx.new_bool(f"b{i}") for i in range(4)]
        ctx.assert_formula(S.at_most(vars_, n))
        models = 0
        while (res := ctx.check()).sat:
            assert len(res.model.true_vars(vars_)) <= n
            ctx.block_model(vars_, res.model)
            models += 1
        assert models == sum(math.comb(4, k) for k in range(max(n + 1, 0)))


def test_minimize_from_last_optimum_lists_models_by_cost():
    # Blocking each optimum and minimizing again from it must walk every
    # model in cost order: no cap may survive a minimize call, and the
    # lower bound must not skip a cheaper model.
    rng = random.Random(8)
    for _ in range(15):
        ctx = S.Context()
        vars_ = [ctx.new_bool(f"b{i}") for i in range(5)]
        clauses = []
        for _ in range(5):
            lits = [(rng.choice(vars_), rng.random() < 0.5) for _ in range(2)]
            clauses.append(lits)
            ctx.assert_formula(S.or_(*[
                S.bvar(v) if pos else S.not_(S.bvar(v)) for v, pos in lits
            ]))
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


def test_unsupported_linear_form_raises():
    ctx = S.Context()
    a, b = ctx.new_real("a"), ctx.new_real("b")
    with pytest.raises(UnsupportedConstraint):
        ctx.assert_formula(S.lin([(2, a), (1, b)], "<=", 3))
        ctx.check()


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
    for x in ctx._real_vars:
        edges.append((x, ctx._ZERO, (Fraction(0), 0), 0))
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
    nodes = {ctx._ZERO, *ctx._real_vars}
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
    nodes = [ctx._ZERO, *ctx._real_vars]
    dist = {x: (Fraction(0), 0) for x in nodes}
    _ref_relax(dist, edges, len(nodes))
    delta = Fraction(1)
    for u, v, w, _ in edges:
        slack_r = dist[u][0] + w[0] - dist[v][0]
        slack_e = dist[u][1] + w[1] - dist[v][1]
        if slack_r > 0 and slack_e < 0:
            delta = min(delta, Fraction(slack_r, -slack_e))
    base = dist[ctx._ZERO]
    return {x: dist[x][0] - base[0] + delta / 2 * (dist[x][1] - base[1])
            for x in ctx._real_vars}


def _random_bound(rng):
    return rng.choice([
        Fraction(rng.randint(-12, 12), 3),
        Fraction(rng.randint(-12, 12), 7),
        Fraction(rng.choice([0.7, -0.7, 2.1, 1.3])),
        Fraction(rng.randint(-4, 4)),
    ])


def _random_atom(rng, xs):
    kind = rng.randrange(4)
    c = _random_bound(rng)
    if kind == 0:
        return S.var_le(rng.choice(xs), c)
    if kind == 1:
        return S.var_ge(rng.choice(xs), c)
    a, b = rng.sample(xs, 2)
    return S.diff_ge(a, b, c) if kind == 2 else S.lin([(1, a), (-1, b)], "<=", c)


def test_integer_theory_matches_fraction_reference():
    rng = random.Random(7)
    outcomes = {"conflict": 0, "consistent": 0}
    for _ in range(60):
        ctx = S.Context()
        xs = [ctx.new_real(f"x{i}") for i in range(rng.randint(2, 5))]
        for _batch in range(2):  # new atoms must rebuild the integer graph
            for _ in range(rng.randint(2, 6)):
                f = _random_atom(rng, xs)
                ctx.assert_formula(S.or_(f, S.not_(f)))
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
    a, b = ctx.new_real("a"), ctx.new_real("b")
    ctx.assert_formula(S.diff_ge(b, a, Fraction(1, 3)))
    ctx.assert_formula(S.var_le(b, Fraction(0.7)))
    ctx.assert_formula(S.not_(S.var_le(a, Fraction(2, 7))))  # a > 2/7
    res = ctx.check()
    assert res.sat
    va, vb = res.model.value(a), res.model.value(b)
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

def _atom_formula(atom):
    a, b, c = atom  # val(a) - val(b) <= c, either side may be the zero node
    if b is None:
        return S.var_le(a, c)
    if a is None:
        return S.var_ge(b, -c)
    return S.lin([(1, a), (-1, b)], "<=", c)


def _atoms_consistent(xs, atoms, truth):
    zero = "zero"
    edges = [(x, zero, (Fraction(0), 0), 0) for x in xs]
    for (a, b, c), t in zip(atoms, truth):
        a, b = a or zero, b or zero
        edges.append((b, a, (c, 0), 0) if t else (a, b, (-c, -1), 0))
    dist = {x: (Fraction(0), 0) for x in [zero, *xs]}
    return _ref_relax(dist, edges, len(dist)) is None


def _holds(lit, bools, atoms, value):
    kind, i, pos = lit
    if kind == "b":
        return value(bools[i]) is pos
    a, b, c = atoms[i]
    va = value(a) if a is not None else 0
    vb = value(b) if b is not None else 0
    return (va - vb <= c) is pos


def _lit_formula(lit, bools, atoms):
    kind, i, pos = lit
    f = S.bvar(bools[i]) if kind == "b" else _atom_formula(atoms[i])
    return f if pos else S.not_(f)


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
    value = res.model.value
    for cl in clauses:
        assert any(_holds(lit, bools, atoms, value) for lit in cl), cl
    return tuple(value(v) for v in bools)


def _random_lit(rng, nb, na):
    if rng.random() < 0.5:
        return ("b", rng.randrange(nb), rng.random() < 0.5)
    return ("a", rng.randrange(na), rng.random() < 0.5)


def test_cdcl_t_core_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        ctx = S.Context()
        bools = [ctx.new_bool(f"b{i}") for i in range(rng.randint(2, 4))]
        xs = [ctx.new_real(f"x{i}") for i in range(rng.randint(2, 3))]
        atoms = []
        for _ in range(rng.randint(3, 5)):
            a, b = rng.sample([None, *xs], 2)
            atoms.append((a, b, Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))))
        clauses = [[_random_lit(rng, len(bools), len(atoms))
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(3, 7))]

        def assert_clause(cl):
            ctx.assert_formula(S.or_(*[_lit_formula(l, bools, atoms) for l in cl]))

        for cl in clauses:
            assert_clause(cl)
        for round_ in range(2):
            expected = _brute_force_projections(bools, xs, atoms, clauses)
            # every projection, one check(assumptions=...) call each
            for bits in itertools.product([False, True], repeat=len(bools)):
                lits = [ctx._bool_lit[v] if t else -ctx._bool_lit[v]
                        for v, t in zip(bools, bits)]
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
