"""Command-line interface: solve, validate, generate, bench."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from .driver import (
    ABORTED, FEASIBLE, INFEASIBLE, Limits, c_comsat_solve, comsat_solve,
)
from .errors import CfEvrpError, GenerationFailed, SchemaError
from .fileio import (
    dumps_canonical, instance_to_json, outcome_to_json, parse_instance,
    parse_schedule,
)
from .generator import GenParams, generate_instance
from .validator import validate_schedule

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GENERATION = 3
EXIT_INFEASIBLE = 10
EXIT_ABORTED = 20

_STATUS_CODE = {FEASIBLE: EXIT_OK, INFEASIBLE: EXIT_INFEASIBLE,
                ABORTED: EXIT_ABORTED}


def _read_instance(path: str):
    try:
        return parse_instance(Path(path).read_text())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except CfEvrpError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return EXIT_INPUT
    limits = Limits(max_path_sets=args.max_path_sets)
    if args.relaxed:
        outcome = c_comsat_solve(inst, limits)
    else:
        outcome = comsat_solve(inst, limits)
    doc = outcome_to_json(outcome)
    if not args.log_json:
        doc.pop("events")
    _emit(dumps_canonical(doc), args.out)
    return _STATUS_CODE[outcome.status]


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _read_instance(args.instance)
    if inst is None:
        return EXIT_INPUT
    try:
        outcome, schedule = parse_schedule(Path(args.schedule).read_text())
    except OSError as exc:
        print(f"error: cannot read {args.schedule}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SchemaError as exc:
        print(f"error: {args.schedule}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if schedule is None:
        print(f"schedule outcome is '{outcome}'; nothing to validate")
        return EXIT_OK
    try:
        report = validate_schedule(schedule, inst)
    except CfEvrpError as exc:
        print(f"error: malformed schedule: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for v in report.violations:
        where = "" if v.route is None else f" route {v.route}"
        print(f"{v.kind}{where}: {v.detail}")
    print("ok" if report.ok else f"{len(report.violations)} violation(s)")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        inst = generate_instance(args.seed, GenParams(
            nodes=args.nodes, vehicles=args.vehicles, jobs=args.jobs,
            horizon=args.horizon, edge_reduction=args.edge_reduction))
    except GenerationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    _emit(dumps_canonical(instance_to_json(inst)), args.out)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    folder = Path(args.dir)
    if not folder.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return EXIT_INPUT
    columns = ["instance", "outcome", "seconds", "total_distance",
               "router_calls", "assign_calls", "capacity_calls",
               "paths_calls", "routes_check_calls"]
    rows = []
    for path in sorted(folder.glob("*.json")):
        inst = _read_instance(str(path))
        if inst is None:
            rows.append({"instance": path.name, "outcome": "input_error"})
            continue
        limits = Limits(max_path_sets=args.max_path_sets)
        t0 = time.perf_counter()
        if args.timeout is not None and args.timeout <= 0:
            outcome_tag, secs, dist, events = ABORTED, 0.0, "", []
        else:
            out = comsat_solve(inst, limits)
            secs = time.perf_counter() - t0
            events = out.events
            if args.timeout is not None and secs > args.timeout:
                outcome_tag, dist = ABORTED, ""
            else:
                outcome_tag = out.status
                dist = (float(out.schedule.total_distance)
                        if out.schedule is not None else "")
        counts = {p: sum(1 for e in events if e.phase == p)
                  for p in ("router", "assign", "capacity", "paths",
                            "routes_check")}
        rows.append({
            "instance": path.name, "outcome": outcome_tag,
            "seconds": round(secs, 3), "total_distance": dist,
            "router_calls": counts["router"],
            "assign_calls": counts["assign"],
            "capacity_calls": counts["capacity"],
            "paths_calls": counts["paths"],
            "routes_check_calls": counts["routes_check"],
        })
    target = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.csv:
            target.close()
    return EXIT_OK


def _count(text: str) -> int:
    """A whole number of 0 or more; anything else is a usage error."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfevrp",
        description="Conflict-free electric vehicle routing solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--relaxed", action="store_true",
                   help="ignore occupancy limits")
    p.add_argument("--max-path-sets", type=_count, default=50)
    p.add_argument("--log-json", action="store_true",
                   help="include the phase event log in the output")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("generate", help="write a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nodes", type=int, default=15)
    p.add_argument("--vehicles", type=int, default=2)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--edge-reduction", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("bench", help="solve every instance in a directory")
    p.add_argument("dir")
    p.add_argument("--timeout", type=float, default=None,
                   help="label a solve aborted once it has run longer than "
                        "this many seconds; the solve is not stopped")
    p.add_argument("--max-path-sets", type=_count, default=50)
    p.add_argument("--csv", help="write the table to this file")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
