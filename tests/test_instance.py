"""Instance construction, validation, and derived job relations."""

import pytest

from cfevrp.errors import InvariantViolation
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
    mutually_exclusive_jobs,
)
from conftest import corridor_instance


def line_graph():
    return validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])


FLEET = FleetParams(10, 1, 1, 1, 1, 10)


def test_corridor_instance_has_three_real_and_four_dummy_tasks():
    inst = corridor_instance()
    assert sorted(inst.real_task_ids()) == ["j11", "j21", "j31"]
    assert len(inst.start_tasks) == 2 and len(inst.end_tasks) == 2
    for o in inst.depots:
        for dummy in (inst.start_tasks[o], inst.end_tasks[o]):
            assert dummy.service_time == 0.0
            assert dummy.window.lower == 0.0
            assert dummy.window.upper == inst.fleet.horizon


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


def test_mutually_exclusive_jobs_on_corridor():
    inst = corridor_instance()
    mex = mutually_exclusive_jobs(inst)
    assert mex["j1"] == {"j2", "j3"}
    assert mex["j2"] == {"j1"}
    assert mex["j3"] == {"j1"}


def test_mutual_exclusion_empty_when_fleets_shared():
    g = line_graph()
    inst = build_instance(
        g, [1], FLEET, [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"})),
         Job("j2", ("t2",), frozenset({"v1"}))],
        [Task("t1", "j1", 2, TimeWindow(0, 5), 0.0),
         Task("t2", "j2", 3, TimeWindow(0, 5), 0.0)])
    mex = mutually_exclusive_jobs(inst)
    assert mex["j1"] == set() and mex["j2"] == set()


def test_mutual_exclusion_symmetric():
    inst = corridor_instance()
    mex = mutually_exclusive_jobs(inst)
    for j, others in mex.items():
        for o in others:
            assert j in mex[o]
