"""Regenerate the benchmark's committed instances, verdicts and witnesses.

    python3 bench/make_instances.py            # rewrite bench/instances/
    python3 bench/make_instances.py --check    # fail if anything would change

Run from the root of a source checkout.  Instances come from
`generate_instance` and from the fixtures in `tests/conftest.py`; they are
written as canonical JSON, so a later change to either source shows up as
a diff here instead of silently changing what the benchmark measures.

Each workload directory gets a `verdicts.json` table.  Oracle-sized
instances (the oracle's guard: at most 4 tasks, 3 vehicles, 8 nodes) are
decided by `brute_force_feasible`, which also gives the minimum distance.
Larger instances are solved with `comsat_solve`; the schedule is kept as
a witness in `witness/`, and the instance is kept only if that schedule
validates and returns to its depot by the horizon.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import conftest  # noqa: E402
from cfevrp import driver, errors, fileio, solver, validator  # noqa: E402
from cfevrp.generator import GenParams, generate_instance  # noqa: E402

MODS = SimpleNamespace(driver=driver, errors=errors, fileio=fileio,
                       solver=solver, validator=validator)
HORIZON = 20.0

# (nodes, vehicles, jobs, seed) for generate_instance at T=20; the last
# three are oracle-sized.
GRID = [(9, 2, 2, 1), (12, 2, 3, 2), (10, 3, 2, 1), (9, 2, 2, 0),
        (9, 2, 2, 2), (6, 2, 2, 0), (6, 2, 2, 2), (8, 2, 2, 1)]
CONGESTED_SEEDS = [30, 46, 250]
TINY_SEEDS = list(range(28, 44))


def grid_name(n, v, j, s):
    return f"g{n:02d}-{v}-{j}-s{s}"


def workloads() -> dict[str, dict[str, object]]:
    grid = {grid_name(*spec): generate_instance(
        spec[3], GenParams(spec[0], spec[1], spec[2], HORIZON))
        for spec in GRID}
    congested = {"swap_deadlock": conftest.swap_deadlock_instance()}
    congested.update({f"tiny{s:03d}": conftest.random_tiny_instance(s)
                      for s in CONGESTED_SEEDS})
    tiny = {f"tiny{s:03d}": conftest.random_tiny_instance(s) for s in TINY_SEEDS}
    return {"grid": grid, "congested": congested, "tiny": tiny}


def oracle_sized(inst) -> bool:
    return (len(inst.tasks) <= 4 and len(inst.vehicles) <= 3
            and len(inst.graph.nodes) <= 8)


def build(workload: str, insts) -> dict[str, str]:
    """File name -> canonical text for one workload's directory."""
    files = {}
    verdicts = {}
    for name, inst in insts.items():
        files[f"{name}.json"] = fileio.dumps_canonical(fileio.instance_to_json(inst))
        if oracle_sized(inst):
            v = validator.brute_force_feasible(inst)
            verdicts[name] = {"source": "oracle", "feasible": v.feasible,
                              "best_total_distance": v.best_total_distance}
            continue
        out = driver.comsat_solve(inst)
        problem = (f"solver says {out.status}" if out.status != driver.FEASIBLE
                   else checks.schedule_problem(MODS, out.schedule, inst))
        if problem:
            raise SystemExit(f"{workload}/{name}: no witness ({problem})")
        files[f"witness/{name}.json"] = fileio.dumps_canonical(
            fileio.outcome_to_json(_without_events(out)))
        verdicts[name] = {"source": "witness", "feasible": True,
                          "best_total_distance": None}
    files["verdicts.json"] = fileio.dumps_canonical(verdicts)
    return files


def _without_events(out):
    """Event timings differ per run; the witness keeps the schedule only."""
    return driver.SolveOutcome(out.status, out.schedule)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed files, write nothing")
    args = ap.parse_args(argv)
    stale = []
    for workload, insts in workloads().items():
        folder = BENCH / "instances" / workload
        for rel, text in build(workload, insts).items():
            path = folder / rel
            if args.check:
                if not path.is_file() or path.read_text() != text:
                    stale.append(str(path.relative_to(ROOT)))
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        print(f"{workload}: {len(insts)} instances", file=sys.stderr)
    for path in stale:
        print(f"differs: {path}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
