"""Instance construction and validation."""

import dataclasses

import pytest

from cfevrp.errors import InvariantViolation
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
)
from conftest import corridor_instance


def line_graph():
    return validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])


FLEET = FleetParams(10, 1, 1, 1, 1, 10)


def test_corridor_instance_has_three_tasks_and_two_depots():
    inst = corridor_instance()
    assert inst.task_ids() == ["j11", "j21", "j31"]
    assert inst.depots == (1, 6)


def test_empty_depots_rejected():
    with pytest.raises(InvariantViolation):
        build_instance(line_graph(), [], FLEET, [], [], [])


def test_depot_must_be_hub():
    with pytest.raises(InvariantViolation):
        build_instance(line_graph(), [2], FLEET, [], [], [])


def test_empty_eligible_set_rejected():
    with pytest.raises(InvariantViolation):
        build_instance(
            line_graph(), [1], FLEET, [Vehicle("v1", 1)],
            [Job("j1", ("t1",), frozenset())],
            [Task("t1", "j1", 2, TimeWindow(0, 5), 0.0)])


def test_task_location_must_exist():
    with pytest.raises(InvariantViolation):
        build_instance(
            line_graph(), [1], FLEET, [Vehicle("v1", 1)],
            [Job("j1", ("t1",), frozenset({"v1"}))],
            [Task("t1", "j1", 9, TimeWindow(0, 5), 0.0)])


def test_window_beyond_horizon_rejected():
    with pytest.raises(InvariantViolation):
        build_instance(
            line_graph(), [1], FLEET, [Vehicle("v1", 1)],
            [Job("j1", ("t1",), frozenset({"v1"}))],
            [Task("t1", "j1", 2, TimeWindow(0, 99), 0.0)])


def test_predecessor_outside_job_rejected():
    with pytest.raises(InvariantViolation):
        build_instance(
            line_graph(), [1], FLEET, [Vehicle("v1", 1)],
            [Job("j1", ("t1",), frozenset({"v1"})),
             Job("j2", ("t2",), frozenset({"v1"}))],
            [Task("t1", "j1", 2, TimeWindow(0, 5), 0.0),
             Task("t2", "j2", 3, TimeWindow(0, 5), 0.0, frozenset({"t1"}))])


def test_time_window_ordering_enforced():
    with pytest.raises(InvariantViolation):
        TimeWindow(3, 2)


def test_ticks_follow_a_replaced_horizon_and_take_no_part_in_equality():
    inst = corridor_instance()
    later = dataclasses.replace(
        inst, fleet=dataclasses.replace(inst.fleet, horizon=25))
    assert later.ticks is not inst.ticks
    assert later.ticks.horizon == 25 * later.ticks.scale
    assert inst.ticks.horizon != later.ticks.horizon
    # an instance equals its copy with other ticks, and hashes alike
    twin = dataclasses.replace(inst)
    object.__setattr__(twin, "ticks", later.ticks)
    assert twin == inst and hash(twin) == hash(inst)
