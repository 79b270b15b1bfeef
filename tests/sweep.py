"""Solve a fixed instance sweep and print every outcome, for diffing two trees.

    PYTHONPATH=src python3 tests/sweep.py > after.jsonl
    PYTHONPATH=../parent/src python3 tests/sweep.py > before.jsonl
    diff before.jsonl after.jsonl

The sweep is the 28 committed benchmark instances plus `random_tiny_instance`
seeds 0-299, with unit and with decimal data, each solved in both modes
(`comsat_solve` and `c_comsat_solve`): 1,256 solves.  Each solve prints one
JSON line with its status, reason, event phases (a trailing `-` marks an
unsat event), total distance and the exact times of its schedule.  Every
strict schedule is checked with `validate_schedule`.  A summary goes to
stderr: the solve counts, then the events per mode and phase over all
solves and how many of them were unsat.  The exit status is 1 if some strict schedule
fails validation.

`cfevrp` is imported from `PYTHONPATH`, so one copy of this script sweeps
any tree.  Pytest does not collect this file; `test_sweep.py` runs `main`
in-process.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from conftest import random_tiny_instance  # noqa: E402
from cfevrp.driver import FEASIBLE, c_comsat_solve, comsat_solve  # noqa: E402
from cfevrp.fileio import parse_instance  # noqa: E402
from cfevrp.validator import validate_schedule  # noqa: E402

INSTANCES = TESTS.parent / "bench" / "instances"
TINY_SEEDS = range(300)


def instances():
    """(name, instance) for every instance of the sweep, in a fixed order."""
    for path in sorted(INSTANCES.glob("*/*.json")):
        if path.name != "verdicts.json":
            yield f"{path.parent.name}/{path.stem}", parse_instance(path.read_text())
    for unit, tag in ((True, "u"), (False, "d")):
        for seed in TINY_SEEDS:
            yield f"{tag}{seed}", random_tiny_instance(seed, unit=unit)


def times(schedule) -> list:
    """Every time of a schedule as an exact string, route by route."""
    return [[str(rs.start), [str(t) for t in rs.node_in],
             [str(t) for t in rs.node_out], [str(t) for t in rs.edge_in]]
            for rs in schedule.routes]


def main() -> int:
    solves = strict = invalid = 0
    events, unsat = Counter(), Counter()
    t0 = time.perf_counter()
    for name, inst in instances():
        for mode, solve in (("strict", comsat_solve), ("relaxed", c_comsat_solve)):
            out = solve(inst)
            solves += 1
            for e in out.events:
                events[mode, e.phase] += 1
                unsat[mode, e.phase] += not e.sat
            line = {
                "instance": name, "mode": mode, "status": out.status,
                "reason": out.reason,
                "events": " ".join(e.phase + ("" if e.sat else "-")
                                   for e in out.events),
            }
            if out.status == FEASIBLE:
                line["distance"] = str(out.schedule.total_distance)
                line["times"] = times(out.schedule)
                if mode == "strict":
                    strict += 1
                    if not validate_schedule(out.schedule, inst).ok:
                        invalid += 1
                        line["invalid"] = True
            print(json.dumps(line), flush=True)
    print(f"{solves} solves, {strict} strict schedules, {invalid} invalid, "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for (mode, phase), n in events.items():
        print(f"{mode} {phase}: {n} events, {unsat[mode, phase]} unsat",
              file=sys.stderr)
    return 1 if invalid else 0


if __name__ == "__main__":
    sys.exit(main())
