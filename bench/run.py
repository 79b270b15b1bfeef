"""Solver benchmark: solve a workload's committed instances, check every
output, print the metrics.

    python3 bench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports `cfevrp` from
`src/`.  One process, one thread.  A run repeats whole rounds, each round
solving every instance of the workload once (in an order drawn from
`--seed`) with `comsat_solve` and deciding the oracle-sized ones with
`brute_force_feasible`, until another round would end after
`--seconds`.  One operation is one instance solved and checked.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the layers are wrapped from outside
the package (see tracing.py) and the object holds the per-layer metrics
instead.  Times are in seconds at reference speed (see ScaledClock).
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INSTANCES = BENCH / "instances"
SETUP_REPEATS = 9
MODULES = ("driver", "errors", "fileio", "solver", "validator")
REF_ITERS = 10_000
REF_S = 0.02  # reference speed: REF_ITERS iterations of reference_work take 20 ms

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402


def reference_work() -> float:
    """Wall time of a fixed piece of stdlib-only work: the host's speed now.

    Fraction arithmetic and small dict updates, like the solver's theory
    check and model bookkeeping; nothing here touches cfevrp.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(REF_ITERS):
        total += Fraction(i % 11, 1 + i % 5)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - t0


class ScaledClock:
    """Times calls in seconds at reference speed.

    This host's speed changes by up to a factor of two within minutes
    (shared cores), which no number of rounds averages out.  So each call's
    wall time is scaled by REF_S over the mean of the reference work timed
    just before and just after it.
    """

    def __init__(self):
        self.refs = [reference_work()]

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.refs.append(reference_work())
        return result, wall * 2 * REF_S / (self.refs[-2] + self.refs[-1])

    def scale(self) -> float:
        """Wall seconds to reference seconds, for the run as a whole."""
        return REF_S / statistics.median(self.refs)


def fresh_import():
    """Import cfevrp from src/ anew, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "cfevrp" or m.startswith("cfevrp.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{
        m: importlib.import_module(f"cfevrp.{m}") for m in MODULES})
    if not Path(mods.driver.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cfevrp imported from {mods.driver.__file__}, not {SRC}")
    return mods


def load_workload(name: str):
    folder = INSTANCES / name
    verdicts = json.loads((folder / "verdicts.json").read_text())
    texts = {n: (folder / f"{n}.json").read_text() for n in sorted(verdicts)}
    return folder, verdicts, texts


def setup(texts, clock):
    """Import the package and parse every instance; median of a few tries."""
    def once():
        mods = fresh_import()
        return mods, {n: mods.fileio.parse_instance(t) for n, t in texts.items()}
    times = []
    for _ in range(SETUP_REPEATS):
        (mods, insts), seconds = clock.time(once)
        times.append(seconds)
    return mods, insts, statistics.median(times)


def witness_problems(mods, folder, verdicts, insts) -> dict[str, str]:
    """Instances whose committed witness does not show them feasible."""
    bad = {}
    for name, v in verdicts.items():
        if v["source"] != "witness":
            continue
        path = folder / "witness" / f"{name}.json"
        _, schedule = mods.fileio.parse_schedule(path.read_text())
        problem = ("witness is not feasible" if schedule is None
                   else checks.schedule_problem(mods, schedule, insts[name]))
        if problem:
            bad[name] = f"witness does not back the verdict: {problem}"
    return bad


def run_round(mods, insts, verdicts, order, limits, unbacked, clock):
    """Solve and check every instance once.

    Returns the solve and oracle seconds (at reference speed), the distance
    summed over feasible instances, the failures and each instance's
    (status, distance).
    """
    solve_s = oracle_s = distance = 0.0
    failures = []
    results = {}
    for name in order:
        inst = insts[name]
        expect = verdicts[name]
        try:
            out, seconds = clock.time(mods.driver.comsat_solve, inst, limits)
            solve_s += seconds
            verdict = None
            if expect["source"] == "oracle":
                verdict, seconds = clock.time(
                    mods.validator.brute_force_feasible, inst)
                oracle_s += seconds
            problem = unbacked.get(name) or checks.outcome_problem(
                mods, inst, out, expect, verdict)
        except Exception as exc:  # an exception is a failed operation
            problem, out = f"{type(exc).__name__}: {exc}", None
        if problem:
            failures.append(f"{name}: {problem}")
        elif out.status == mods.driver.FEASIBLE:
            distance += out.schedule.total_distance
        results[name] = (out.status if out else None,
                         out.schedule.total_distance if out and out.schedule else None)
    return solve_s, oracle_s, distance, failures, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cfevrp").is_dir():
        print(f"error: no package source at {SRC / 'cfevrp'}", file=sys.stderr)
        return 2
    if not (INSTANCES / args.workload / "verdicts.json").is_file():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    folder, verdicts, texts = load_workload(args.workload)
    clock = ScaledClock()
    mods, insts, setup_s = setup(texts, clock)
    unbacked = witness_problems(mods, folder, verdicts, insts)
    limits = mods.driver.Limits()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)
        insts = {n: mods.fileio.parse_instance(t) for n, t in texts.items()}

    rng = random.Random(args.seed)
    names = sorted(insts)
    rounds = []
    solve_total = oracle_total = 0.0
    failures: list[str] = []
    first_results = None
    deterministic = True
    start = time.perf_counter()
    while True:
        order = names[:]
        rng.shuffle(order)
        t0 = time.perf_counter()
        solve_s, oracle_s, distance, failed, results = run_round(
            mods, insts, verdicts, order, limits, unbacked, clock)
        rounds.append((distance, time.perf_counter() - t0))
        solve_total += solve_s
        oracle_total += oracle_s
        failures += failed
        if first_results is None:
            first_results = results
        deterministic = deterministic and results == first_results
        elapsed = time.perf_counter() - start
        typical = statistics.median(r[1] for r in rounds)
        if elapsed + typical > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not deterministic:
        print("error: results differ between rounds", file=sys.stderr)
    # Time per round, averaged over all the run's rounds.
    solve_per_round = solve_total / len(rounds)
    oracle_per_round = oracle_total / len(rounds)
    print(f"{args.workload}: {len(rounds)} rounds, solve_s {solve_per_round:.4f}"
          f"{' (traced)' if tracer else ''}, reference work "
          f"{statistics.median(clock.refs) * 1000:.1f} ms", file=sys.stderr)

    if tracer is None:
        metrics = {
            "solve_s": (solve_per_round, "s"),
            "oracle_s": (oracle_per_round, "s"),
            "setup_s": (setup_s, "s"),
            "total_distance": (statistics.median(r[0] for r in rounds), "length"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = tracer.report(len(rounds), clock.scale())
    print(json.dumps({
        "correct": not failures and deterministic,
        "attempted": len(rounds) * len(names),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
