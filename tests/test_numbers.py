"""The number model: instance numbers are exact, and every stage agrees.

Instance constructors turn every number into a Fraction once (a float is
read from its decimal text), and only the JSON writer turns them back into
floats.  The solver, the validator and the oracle therefore decide the
same arithmetic, on decimal data as on integer data.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cfevrp.driver import (
    ABORTED, FEASIBLE, INFEASIBLE, c_comsat_solve, comsat_solve,
    total_distance,
)
from cfevrp.errors import CfEvrpError, InvariantViolation, NonPositiveLength
from cfevrp.fileio import dumps_canonical, instance_to_json, parse_instance
from cfevrp.generator import GenParams, generate_instance
from cfevrp.graph import validate_graph
from cfevrp.instance import FleetParams
from cfevrp.validator import brute_force_feasible, validate_schedule
from conftest import corridor_instance, decimal_line_instance, \
    random_tiny_instance


def _ends_by_horizon(schedule, inst) -> bool:
    return all(r.node_out[-1] <= inst.fleet.horizon for r in schedule.routes)


def test_decimal_line_is_feasible_at_distance_8_in_both_modes(decimal_line):
    verdict = brute_force_feasible(decimal_line)
    assert verdict.feasible and verdict.best_total_distance == 8
    for solve in (comsat_solve, c_comsat_solve):
        out = solve(decimal_line)
        assert out.status == FEASIBLE, (solve.__name__, out.reason)
        assert total_distance(out) == 8
        assert validate_schedule(out.schedule, decimal_line).ok
        assert _ends_by_horizon(out.schedule, decimal_line)


def _instance_numbers(inst):
    yield from (e.length for e in inst.graph.edges.values())
    f = inst.fleet
    yield from (f.operating_range, f.charge_coeff, f.discharge_coeff,
                f.charge_to_range, f.speed, f.horizon)
    for t in inst.tasks.values():
        yield from (t.window.lower, t.window.upper, t.service_time)


def test_every_instance_number_is_a_fraction():
    direct = decimal_line_instance()  # built from float literals
    parsed = parse_instance(dumps_canonical(instance_to_json(direct)))
    generated = generate_instance(3, GenParams(9, 2, 2, 20.0))
    for inst in (direct, parsed, generated, corridor_instance()):
        numbers = list(_instance_numbers(inst))
        assert numbers and all(type(x) is Fraction for x in numbers)
    for inst in (direct, parsed):
        assert inst.graph.edges[(2, 3)].length == Fraction(7, 10)
    # generated windows are rounded to one decimal, and read as decimals
    assert all((t.window.lower * 10).denominator == 1
               for t in generated.tasks.values())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_fleet_value_is_rejected(bad):
    with pytest.raises(InvariantViolation):
        FleetParams(10, 1, 1, 1, bad, 10)
    doc = instance_to_json(corridor_instance())
    doc["fleet"]["OR"] = bad
    with pytest.raises(CfEvrpError):
        parse_instance(dumps_canonical(doc))
    with pytest.raises(NonPositiveLength):
        validate_graph([1, 2], [1], [(1, 2, bad, 1)])


# Seeds of the decimal variant whose solve stops at the path-set budget.
# Limits.max_path_sets counts per assignment, yet reaching it ends the whole
# solve; the oracle's verdict for each seed is the value.  Seeds 255, 283
# and 293 once aborted here: each had an assignment whose timing fails even
# without occupancy limits, and the loop now skips its path changes.
BUDGET_ABORTS = {}


def test_decimal_tiny_instances_agree_with_the_oracle():
    aborted, wrong = {}, []
    for seed in range(300):
        inst = random_tiny_instance(seed, unit=False)
        out = comsat_solve(inst)
        verdict = brute_force_feasible(inst)
        if out.status == ABORTED:
            assert out.reason == ("path set limit reached "
                                  "(50 combinations for one assignment)"), seed
            aborted[seed] = verdict.feasible
        elif (out.status == FEASIBLE) != verdict.feasible:
            wrong.append((seed, out.status, verdict.feasible))
        elif out.status == FEASIBLE and not (
                validate_schedule(out.schedule, inst).ok
                and _ends_by_horizon(out.schedule, inst)):
            wrong.append((seed, "schedule fails validation or ends past T"))
    assert not wrong
    assert aborted == BUDGET_ABORTS


def test_decimal_tiny_instances_with_charge_coefficients_agree_with_the_oracle():
    # The decimal recipe draws D = rho = 1, so the router's charge reals
    # never scale.  Here D and rho are drawn too, rho = 4/3 among them,
    # whose ticks are thirds.
    feasible = infeasible = 0
    for seed in range(100):
        inst = random_tiny_instance(seed, unit=False)
        rng = random.Random(1000 + seed)
        inst = dataclasses.replace(inst, fleet=dataclasses.replace(
            inst.fleet, discharge_coeff=rng.choice([0.7, 1.5, 2]),
            charge_to_range=rng.choice([0.5, Fraction(4, 3), 3])))
        verdict = brute_force_feasible(inst)
        for solve in (comsat_solve, c_comsat_solve):
            out = solve(inst)
            assert out.status in (FEASIBLE, INFEASIBLE), (seed, out.reason)
            feasible += out.status == FEASIBLE
            infeasible += out.status == INFEASIBLE
            if solve is comsat_solve:
                assert (out.status == FEASIBLE) == verdict.feasible, seed
                assert out.status != FEASIBLE or (
                    validate_schedule(out.schedule, inst).ok
                    and _ends_by_horizon(out.schedule, inst)), seed
    assert (feasible, infeasible) == (122, 78)
