"""Conflict-free electric vehicle routing: compositional solver and tools."""

from .driver import (
    ABORTED, FEASIBLE, INFEASIBLE, Limits, SolveOutcome, c_comsat_solve,
    comsat_solve, total_distance,
)
from .instance import (
    FleetParams, Instance, Job, Task, TimeWindow, Vehicle, build_instance,
)
from .validator import brute_force_feasible, validate_schedule

__all__ = [
    "ABORTED", "FEASIBLE", "INFEASIBLE", "Limits", "SolveOutcome",
    "c_comsat_solve", "comsat_solve", "total_distance",
    "FleetParams", "Instance", "Job", "Task", "TimeWindow", "Vehicle",
    "build_instance",
    "brute_force_feasible", "validate_schedule",
]

__version__ = "0.1.0"
