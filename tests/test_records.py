"""Records: the value records behave as values, the package keeps a
dataclass only where it needs one, and an import loads only what it uses."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from collections.abc import Hashable
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

import cfevrp
from cfevrp import validator
from cfevrp.capacity import VisitList, VisitPosition
from cfevrp.driver import Event, Limits
from cfevrp.graph import Edge, Path
from cfevrp.instance import Job, Vehicle
from cfevrp.routing import Anchor, Route
from conftest import corridor_instance

# Each factory builds a fresh record; two calls give equal records.
RECORDS = {
    "Edge": lambda: Edge(1, 2, Fraction(1), 1),
    "Route": lambda: Route(1, ("j21",), (Path((1, 2), 1), Path((2, 1), 1))),
    "Anchor": lambda: Anchor(1, False),
    "VisitPosition": lambda: VisitPosition(2, 0, 10, 1, ("t1",)),
    "VisitList": lambda: VisitList(
        1, ("t1",), (VisitPosition(1, 0, 10, 0, ()),
                     VisitPosition(2, 0, 10, 1, ("t1",))), ((1, 2),), 1),
    "Job": lambda: Job("j1", ("t1",), frozenset({"v1"})),
    "Vehicle": lambda: Vehicle("v1", 1),
    "Event": lambda: Event("router", True, 0.5),
    "Limits": lambda: Limits(),
    "Violation": lambda: validator.Violation(
        validator.HORIZON, 0, 3.0, "route 0 ends past T"),
    "ValidationReport": lambda: validator.ValidationReport(True, ()),
    "_Clock": lambda: validator._clock(corridor_instance()),
    "_Ruler": lambda: validator._ruler(corridor_instance()),
}

# The package's dataclasses, each with why it is not a NamedTuple.
REPLACED = "bench/selftest.py calls dataclasses.replace on it"
DATACLASSES = {
    "instance.Instance": REPLACED,
    "instance.FleetParams": REPLACED,
    "capacity.RouteSchedule": REPLACED,
    "capacity.Schedule": REPLACED,
    "validator.OracleVerdict": REPLACED,
    "instance.TimeWindow": "__post_init__ makes its numbers exact and checks them",
    "instance.Task": "__post_init__ makes its service time exact",
    "graph.Path": "__post_init__ checks that it is simple",
    "generator.GenParams": "__post_init__ checks its parameters",
    "graph.PlantGraph": "field(init=False): its tables are built from the edges",
    "driver.SolveOutcome": "mutable: the loop appends its events",
    "capacity.CapacityStats": "mutable: counters",
    "validator.OracleStats": "mutable: counters",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a == b and a is not b
    if all(isinstance(f, Hashable) for f in a):
        assert hash(a) == hash(b)
    first = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, a[0])


def test_anchor_never_equals_a_task_id():
    start, end = Anchor(1, False), Anchor(1, True)
    keys = {start: "start", end: "end"}
    for text in (str(start), str(end), "1", ""):
        assert start != text and end != text
        assert text not in keys
    assert str(start) == "__start_1" and str(end) == "__end_1"


def test_remaining_dataclasses_are_the_listed_ones():
    # A new record defaults to a NamedTuple; one that needs a dataclass
    # goes on the list with its reason.
    found = set()
    for info in pkgutil.iter_modules(cfevrp.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"cfevrp.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{info.name}.{name}")
    assert found == set(DATACLASSES)


def test_solver_import_leaves_the_generator_out():
    src = FilePath(cfevrp.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, cfevrp.driver, cfevrp.validator, cfevrp.fileio; "
            "print('cfevrp.generator' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
