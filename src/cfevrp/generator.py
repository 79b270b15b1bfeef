"""Seeded random instance generator.

Lays the requested number of nodes out on a near-square grid, thins the
segment set by a configurable fraction while keeping the plant connected,
and synthesizes a fleet, jobs, and time windows scaled to the horizon.
All randomness flows from one seeded generator, so equal parameters give
byte-identical instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import GenerationFailed, NotStronglyConnected
from .graph import PlantGraph, validate_graph
from .instance import (
    FleetParams, Instance, Job, Task, TimeWindow, Vehicle, build_instance,
)

VEHICLE_TYPES = ("A", "B", "C")

_THINNING_RETRIES = 200


@dataclass(frozen=True)
class GenParams:
    nodes: int
    vehicles: int
    jobs: int
    horizon: float
    edge_reduction: float = 0.0  # fraction of grid segments to drop

    def __post_init__(self) -> None:
        if self.nodes < 4 or self.vehicles < 1 or self.jobs < 1:
            raise GenerationFailed("need at least 4 nodes, 1 vehicle, 1 job")
        if self.horizon <= 0:
            raise GenerationFailed("horizon must be positive")
        if not (0 <= self.edge_reduction < 1):
            raise GenerationFailed("edge_reduction must lie in [0, 1)")


def _grid_segments(n: int) -> tuple[list[tuple[int, int]], int, int]:
    """Node ids 1..n on a ceil(n/cols) x cols grid with 4-neighbor segments."""
    cols = max(2, math.ceil(math.sqrt(n)))
    segs = []
    for a in range(1, n + 1):
        r, c = divmod(a - 1, cols)
        if c + 1 < cols and a + 1 <= n:
            segs.append((a, a + 1))
        if a + cols <= n:
            segs.append((a, a + cols))
    return segs, cols, math.ceil(n / cols)


def generate_instance(seed: int, params: GenParams) -> Instance:
    """Deterministic random instance for the given seed and parameters."""
    rng = random.Random(seed)
    n = params.nodes
    grid, cols, rows = _grid_segments(n)

    drop = round(params.edge_reduction * len(grid))
    if len(grid) - drop < n - 1:  # fewer segments than a spanning tree
        raise GenerationFailed(
            f"could not drop {drop} segments and stay connected")
    segs = list(grid)
    if drop:
        for _ in range(_THINNING_RETRIES):
            trial = list(grid)
            rng_local = random.Random(rng.random())
            rng_local.shuffle(trial)
            trial = trial[drop:]
            try:
                validate_graph(list(range(1, n + 1)), [],
                               [(a, b, 1, 1) for a, b in trial])
            except NotStronglyConnected:
                continue
            segs = sorted(trial)
            break
        else:
            raise GenerationFailed(
                f"could not drop {drop} segments and stay connected")

    # depots sit at opposite grid corners; both are hubs
    depots = [1, n] if params.vehicles > 1 else [1]
    hubs = sorted(set(depots))

    segments = []
    for a, b in sorted(segs):
        capacity = 2 if rng.random() < 0.2 else 1
        segments.append((a, b, 1.0, capacity))
    graph: PlantGraph = validate_graph(list(range(1, n + 1)), hubs, segments)

    vehicles = []
    for i in range(params.vehicles):
        vehicles.append(Vehicle(f"v{i + 1}", depots[i % len(depots)]))
    type_of = {
        v.id: VEHICLE_TYPES[i % len(VEHICLE_TYPES)]
        for i, v in enumerate(vehicles)
    }
    present_types = sorted(set(type_of.values()))

    T = float(params.horizon)
    non_hub = [x for x in range(1, n + 1) if x not in graph.hubs]
    jobs: list[Job] = []
    tasks: list[Task] = []
    for j in range(params.jobs):
        jid = f"j{j + 1}"
        n_tasks = 1 if rng.random() < 0.7 else 2
        tids = []
        prev: str | None = None
        for k in range(n_tasks):
            tid = f"{jid}t{k + 1}"
            loc = rng.choice(non_hub)
            center = rng.uniform(0.2 * T, 0.9 * T)
            width = rng.uniform(0.1 * T, 0.3 * T)
            lower = max(0.0, round(center - width / 2, 1))
            upper = min(T, round(center + width / 2, 1))
            service = round(rng.uniform(0.02 * T, 0.06 * T), 1)
            preds = frozenset({prev}) if prev is not None else frozenset()
            tasks.append(Task(tid, jid, loc, TimeWindow(lower, upper),
                              service, preds))
            tids.append(tid)
            prev = tid
        want = rng.choice(present_types)
        eligible = frozenset(
            v.id for v in vehicles if type_of[v.id] == want)
        jobs.append(Job(jid, tuple(tids), eligible))

    diameter = float(cols + rows)  # grid graph diameter upper bound
    fleet = FleetParams(
        operating_range=round(4 * diameter, 1),
        charge_coeff=1.0,
        discharge_coeff=1.0,
        charge_to_range=1.0,
        speed=1.0,
        horizon=T,
    )
    return build_instance(graph, depots, fleet, vehicles, jobs, tasks)
