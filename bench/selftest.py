"""Test the benchmark's own checks and its tracer.

    python3 bench/selftest.py

Run from the root of a source checkout; exits 0 when every case holds.
Each case feeds a known-bad output through the same round loop the
benchmark uses and requires it to count as exactly one failed operation:
a route shifted into a clash, a route back past the horizon, flipped
solver and oracle verdicts, an abort and an exception.  A good witness
must pass.  Last, the tracer runs with `_SatCore.solve` missing, as after
a solver rewrite, and must finish and name the metrics it dropped.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from types import SimpleNamespace

import run
import tracing


def with_fakes(mods, solve=None, oracle=None):
    """mods whose comsat_solve / brute_force_feasible are replaced."""
    driver = SimpleNamespace(
        ABORTED=mods.driver.ABORTED, FEASIBLE=mods.driver.FEASIBLE,
        INFEASIBLE=mods.driver.INFEASIBLE, Limits=mods.driver.Limits,
        comsat_solve=solve or mods.driver.comsat_solve)
    validator = SimpleNamespace(
        validate_schedule=mods.validator.validate_schedule,
        brute_force_feasible=oracle or mods.validator.brute_force_feasible)
    return SimpleNamespace(driver=driver, validator=validator,
                           errors=mods.errors, fileio=mods.fileio,
                           solver=mods.solver)


def failures(mods, name, inst, expect):
    """The failed operations of one round over this single instance."""
    return run.run_round(mods, {name: inst}, {name: expect}, [name],
                         mods.driver.Limits(), {}, run.ScaledClock())[3]


def shift_route(rs, delta):
    return dataclasses.replace(
        rs, node_in=tuple(t + delta for t in rs.node_in),
        node_out=tuple(t + delta for t in rs.node_out),
        edge_in=tuple(t + delta for t in rs.edge_in), start=rs.start + delta)


def clash(schedule, inst):
    """Shift one route so it enters a shared non-hub node with another."""
    routes = schedule.routes
    for i, a in enumerate(routes):
        for j, b in enumerate(routes):
            if i == j:
                continue
            for p, node in enumerate(a.nodes):
                if node in inst.graph.hubs or node not in b.nodes:
                    continue
                q = b.nodes.index(node)
                moved = list(routes)
                moved[j] = shift_route(b, a.node_in[p] - b.node_in[q])
                return dataclasses.replace(schedule, routes=tuple(moved))
    return None


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.fresh_import()
    results = []

    def case(label, fails, expect_failed, must_mention=""):
        ok = (len(fails) == expect_failed
              and all(must_mention in f for f in fails))
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {fails or 'passes'}")

    folder, verdicts, texts = run.load_workload("grid")
    insts = {n: mods.fileio.parse_instance(t) for n, t in texts.items()}
    witnessed = [n for n, v in verdicts.items() if v["source"] == "witness"]
    picked = None
    for name in witnessed:
        _, schedule = mods.fileio.parse_schedule(
            (folder / "witness" / f"{name}.json").read_text())
        if clash(schedule, insts[name]) is not None:
            picked = name, schedule
            break
    if picked is None:
        print("FAIL no witness has two routes through a shared node")
        return 1
    name, schedule = picked
    inst, expect = insts[name], verdicts[name]
    Outcome = mods.driver.SolveOutcome
    feasible, infeasible = mods.driver.FEASIBLE, mods.driver.INFEASIBLE

    def returning(out):
        return with_fakes(mods, solve=lambda inst, limits: out)

    case("good witness", failures(
        returning(Outcome(feasible, schedule)), name, inst, expect), 0)
    case("route shifted into a clash", failures(
        returning(Outcome(feasible, clash(schedule, inst))), name, inst,
        expect), 1, "Capacity")
    end = max(rs.node_out[-1] for rs in schedule.routes)
    early = dataclasses.replace(inst, fleet=dataclasses.replace(
        inst.fleet, horizon=end - 0.5))
    case("route back past T", failures(
        returning(Outcome(feasible, schedule)), name, early, expect),
        1, "past T")
    case("flipped solver verdict", failures(
        returning(Outcome(infeasible, None)), name, inst, expect),
        1, "solver says infeasible")
    case("abort", failures(
        returning(Outcome(mods.driver.ABORTED, None, reason="budget")),
        name, inst, expect), 1, "aborted")

    def boom(inst, limits):
        raise RuntimeError("solver crashed")
    case("exception", failures(with_fakes(mods, solve=boom), name, inst,
                               expect), 1, "RuntimeError")

    folder, verdicts, texts = run.load_workload("tiny")
    tname = min((n for n, v in verdicts.items() if v["source"] == "oracle"),
                key=lambda n: len(texts[n]))
    tinst = mods.fileio.parse_instance(texts[tname])
    real = mods.validator.brute_force_feasible(tinst)
    flipped = dataclasses.replace(real, feasible=not real.feasible)
    case("flipped oracle verdict", failures(
        with_fakes(mods, oracle=lambda inst: flipped), tname, tinst,
        verdicts[tname]), 1, "oracle verdict differs")

    # The traced run survives a missing boundary and names what it dropped.
    tracer = tracing.Tracer()
    rewritten = SimpleNamespace(**vars(mods))
    rewritten.solver = SimpleNamespace(Context=mods.solver.Context,
                                       _SatCore=type("_SatCore", (), {}))
    tracer.install(rewritten)
    try:
        out = mods.driver.comsat_solve(tinst, mods.driver.Limits())
    finally:
        tracer.uninstall()
    report = tracer.report(1)
    dropped = sorted(tracer.dropped)
    ok = (out.status in (feasible, infeasible)
          and "routing.solver.sat_s" in dropped
          and "routing.solver.sat_calls" in dropped
          and not set(dropped) & set(report)
          and report.get("routing.calls", (0,))[0] >= 1)
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} missing _SatCore.solve: dropped "
          f"{json.dumps(dropped)}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
