"""JSON round-trips for instances and schedules."""

import pytest

from cfevrp.driver import comsat_solve
from cfevrp.errors import InvariantViolation, SchemaError
from cfevrp.fileio import (
    dumps_canonical, instance_to_json, outcome_to_json, parse_instance,
    parse_schedule,
)
from cfevrp.generator import GenParams, generate_instance
from cfevrp.validator import validate_schedule
from conftest import corridor_instance, random_tiny_instance


def test_instance_round_trip_is_byte_stable():
    inst = corridor_instance()
    txt = dumps_canonical(instance_to_json(inst))
    again = dumps_canonical(instance_to_json(parse_instance(txt)))
    assert txt == again


def test_job_named_with_two_underscores_survives_the_round_trip():
    """instance_to_json once dropped every job whose id starts with `__`,
    and its task with it."""
    inst = corridor_instance()
    doc = instance_to_json(inst)
    doc["jobs"][0]["id"] = "__x"
    doc["jobs"][0]["tasks"][0]["id"] = "__x1"
    txt = dumps_canonical(doc)
    again = parse_instance(txt)
    assert "__x" in again.jobs and "__x1" in again.tasks
    assert dumps_canonical(instance_to_json(again)) == txt


def test_generated_instances_round_trip():
    for seed in range(5):
        inst = generate_instance(seed, GenParams(nodes=12, vehicles=2,
                                                 jobs=2, horizon=20))
        txt = dumps_canonical(instance_to_json(inst))
        assert dumps_canonical(instance_to_json(parse_instance(txt))) == txt


def test_tiny_instances_round_trip():
    for seed in range(10):
        inst = random_tiny_instance(seed)
        txt = dumps_canonical(instance_to_json(inst))
        assert dumps_canonical(instance_to_json(parse_instance(txt))) == txt


def test_parsed_corridor_solves_the_same():
    inst = corridor_instance()
    again = parse_instance(dumps_canonical(instance_to_json(inst)))
    assert comsat_solve(again).schedule.total_distance == 12.0


def test_schedule_round_trip_revalidates():
    inst = corridor_instance()
    out = comsat_solve(inst)
    txt = dumps_canonical(outcome_to_json(out))
    outcome, schedule = parse_schedule(txt)
    assert outcome == "feasible"
    assert schedule.total_distance == out.schedule.total_distance
    assert validate_schedule(schedule, inst).ok


def test_not_json_raises_schema_error():
    with pytest.raises(SchemaError):
        parse_instance("this is not json")


def test_missing_section_raises_schema_error():
    with pytest.raises(SchemaError):
        parse_instance("{}")


def test_invariant_violations_surface_from_parsing():
    inst = corridor_instance()
    doc = instance_to_json(inst)
    doc["depots"] = []
    with pytest.raises(InvariantViolation):
        parse_instance(dumps_canonical(doc))


def test_empty_eligible_set_rejected_at_parse():
    inst = corridor_instance()
    doc = instance_to_json(inst)
    doc["jobs"][0]["eligible"] = []
    with pytest.raises(InvariantViolation):
        parse_instance(dumps_canonical(doc))
