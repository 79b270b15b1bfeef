"""JSON file formats for instances, schedules, and validation reports.

Serialization is canonical (sorted keys, fixed separators, trailing
newline), so identical data always produces identical bytes.  Numbers are
exact Fractions inside the package; `dumps_canonical` is the one place
that writes them as floats.
"""

from __future__ import annotations

import json
from typing import Any

from .capacity import RouteSchedule, Schedule
from .driver import SolveOutcome
from .errors import SchemaError
from .graph import validate_graph
from .instance import (
    FleetParams, Instance, Job, Task, TimeWindow, Vehicle, build_instance,
)


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": "), default=float) + "\n"


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing '{key}' in {where}")
    return obj[key]


def instance_to_json(inst: Instance) -> dict:
    g = inst.graph
    undirected = sorted(
        {tuple(sorted(e, key=str)) for e in g.edges}
    )
    return {
        "graph": {
            "nodes": [
                {"id": n, "hub": n in g.hubs} for n in sorted(g.nodes)
            ],
            "segments": [
                {
                    "from": a,
                    "to": b,
                    "length": g.edges[(a, b)].length,
                    "capacity": g.edges[(a, b)].capacity,
                }
                for a, b in undirected
            ],
        },
        "depots": sorted(inst.depots),
        "fleet": {
            "OR": inst.fleet.operating_range,
            "C": inst.fleet.charge_coeff,
            "D": inst.fleet.discharge_coeff,
            "rho": inst.fleet.charge_to_range,
            "v": inst.fleet.speed,
            "T": inst.fleet.horizon,
        },
        "vehicles": [
            {"id": v.id, "depot": v.depot}
            for v in sorted(inst.vehicles.values(), key=lambda v: v.id)
        ],
        "jobs": [
            {
                "id": j.id,
                "eligible": sorted(j.eligible_vehicles),
                "tasks": [
                    {
                        "id": t.id,
                        "location": inst.tasks[t.id].location,
                        "window": [inst.tasks[t.id].window.lower,
                                   inst.tasks[t.id].window.upper],
                        "service": inst.tasks[t.id].service_time,
                        "predecessors": sorted(inst.tasks[t.id].predecessors),
                    }
                    for t in (inst.tasks[tid] for tid in j.tasks)
                ],
            }
            for j in sorted(inst.jobs.values(), key=lambda j: j.id)
        ],
    }


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    graph_doc = _need(doc, "graph", "instance")
    nodes_doc = _need(graph_doc, "nodes", "graph")
    segs_doc = _need(graph_doc, "segments", "graph")
    try:
        nodes = [n["id"] for n in nodes_doc]
        hubs = [n["id"] for n in nodes_doc if n.get("hub")]
        segments = [
            (s["from"], s["to"], float(s["length"]), int(s["capacity"]))
            for s in segs_doc
        ]
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"malformed graph section: {exc}") from exc
    graph = validate_graph(nodes, hubs, segments)

    fleet_doc = _need(doc, "fleet", "instance")
    try:
        fleet = FleetParams(
            operating_range=float(_need(fleet_doc, "OR", "fleet")),
            charge_coeff=float(_need(fleet_doc, "C", "fleet")),
            discharge_coeff=float(_need(fleet_doc, "D", "fleet")),
            charge_to_range=float(_need(fleet_doc, "rho", "fleet")),
            speed=float(_need(fleet_doc, "v", "fleet")),
            horizon=float(_need(fleet_doc, "T", "fleet")),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed fleet section: {exc}") from exc

    depots = _need(doc, "depots", "instance")
    if not isinstance(depots, list):
        raise SchemaError("'depots' must be a list")

    vehicles = []
    for v in _need(doc, "vehicles", "instance"):
        vehicles.append(Vehicle(
            str(_need(v, "id", "vehicle")), _need(v, "depot", "vehicle")))

    jobs: list[Job] = []
    tasks: list[Task] = []
    for j in _need(doc, "jobs", "instance"):
        jid = str(_need(j, "id", "job"))
        tids = []
        for t in _need(j, "tasks", f"job {jid}"):
            tid = str(_need(t, "id", "task"))
            window = _need(t, "window", f"task {tid}")
            if not (isinstance(window, list) and len(window) == 2):
                raise SchemaError(f"task {tid}: window must be [lower, upper]")
            tasks.append(Task(
                tid, jid, _need(t, "location", f"task {tid}"),
                TimeWindow(float(window[0]), float(window[1])),
                float(t.get("service", 0.0)),
                frozenset(str(p) for p in t.get("predecessors", [])),
            ))
            tids.append(tid)
        jobs.append(Job(
            jid, tuple(tids),
            frozenset(str(v) for v in _need(j, "eligible", f"job {jid}"))))

    return build_instance(graph, list(depots), fleet, vehicles, jobs, tasks)


def outcome_to_json(out: SolveOutcome) -> dict:
    doc: dict = {
        "outcome": out.status,
        "reason": out.reason,
        "routes": [],
        "totals": {},
        "events": [
            {
                "phase": e.phase,
                "sat": e.sat,
                "seconds": round(e.seconds, 6),
            }
            for e in out.events
        ],
    }
    if out.schedule is not None:
        doc["routes"] = [_route_to_json(rs) for rs in out.schedule.routes]
        doc["totals"] = {
            "distance": out.schedule.total_distance,
            "routes": len(out.schedule.routes),
        }
    return doc


def _route_to_json(rs: RouteSchedule) -> dict:
    return {
        "vehicle": rs.vehicle,
        "depot": rs.depot,
        "tasks": list(rs.tasks),
        "nodes": [
            {
                "node": rs.nodes[p],
                "t_in": rs.node_in[p],
                "t_out": rs.node_out[p],
                "serves": list(rs.position_tasks[p]),
            }
            for p in range(len(rs.nodes))
        ],
        "edges": [
            {"from": e[0], "to": e[1], "t_enter": rs.edge_in[q]}
            for q, e in enumerate(rs.edges)
        ],
        "length": rs.length,
        "start": rs.start,
    }


def parse_schedule(text: str) -> tuple[str, Schedule | None]:
    """Read a schedule file back as (outcome tag, schedule or None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    outcome = str(_need(doc, "outcome", "schedule"))
    routes_doc = _need(doc, "routes", "schedule")
    if outcome != "feasible":
        return outcome, None
    routes = []
    for r in routes_doc:
        nodes_doc = _need(r, "nodes", "route")
        edges_doc = _need(r, "edges", "route")
        try:
            routes.append(RouteSchedule(
                vehicle=str(r["vehicle"]),
                depot=r["depot"],
                tasks=tuple(str(t) for t in r["tasks"]),
                nodes=tuple(n["node"] for n in nodes_doc),
                node_in=tuple(float(n["t_in"]) for n in nodes_doc),
                node_out=tuple(float(n["t_out"]) for n in nodes_doc),
                position_tasks=tuple(
                    tuple(str(t) for t in n.get("serves", []))
                    for n in nodes_doc),
                edges=tuple((e["from"], e["to"]) for e in edges_doc),
                edge_in=tuple(float(e["t_enter"]) for e in edges_doc),
                length=float(r["length"]),
                start=float(r["start"]),
            ))
        except (TypeError, KeyError, ValueError) as exc:
            raise SchemaError(f"malformed route entry: {exc}") from exc
    return outcome, Schedule(tuple(routes))
