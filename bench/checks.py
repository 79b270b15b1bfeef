"""Output checks: one solved instance passes them all or counts as failed.

An instance's expected verdict comes from the workload's committed
`verdicts.json`.  Oracle-sized instances carry the brute-force oracle's
verdict and minimum distance; larger ones carry a witness schedule that
shows the instance is feasible.
"""

from __future__ import annotations

TOL = 1e-6


def horizon_problem(schedule, inst) -> str | None:
    """The validator does not check the horizon, so the benchmark does."""
    T = inst.fleet.horizon
    for ri, rs in enumerate(schedule.routes):
        if rs.nodes[-1] != rs.depot:
            return f"route {ri} ends at node {rs.nodes[-1]}, not its depot {rs.depot}"
        if rs.node_out[-1] > T + TOL:
            return f"route {ri} is back at {rs.node_out[-1]}, past T={T}"
    return None


def schedule_problem(mods, schedule, inst) -> str | None:
    """Validator violations or a horizon breach; None when the schedule is good."""
    try:
        report = mods.validator.validate_schedule(schedule, inst)
    except mods.errors.CfEvrpError as exc:
        return f"malformed schedule: {exc}"
    if not report.ok:
        kinds = sorted({v.kind for v in report.violations})
        return f"validator: {', '.join(kinds)}"
    return horizon_problem(schedule, inst)


def outcome_problem(mods, inst, out, expect, verdict=None) -> str | None:
    """Why one solve outcome is wrong, or None when it passes every check.

    `expect` is the instance's committed verdict; `verdict` is the oracle's
    answer from this run, when the instance is oracle-sized.
    """
    driver = mods.driver
    if verdict is not None:
        if verdict.feasible != expect["feasible"]:
            return "oracle verdict differs from the committed verdict"
        if (verdict.feasible and abs(verdict.best_total_distance
                                     - expect["best_total_distance"]) > TOL):
            return "oracle minimum differs from the committed minimum"
    if out.status == driver.ABORTED:
        return f"aborted: {out.reason}"
    if out.status not in (driver.FEASIBLE, driver.INFEASIBLE):
        return f"unknown status {out.status!r}"
    feasible = out.status == driver.FEASIBLE
    if feasible != expect["feasible"]:
        return (f"solver says {out.status}, committed verdict says "
                f"{'feasible' if expect['feasible'] else 'infeasible'}")
    if not feasible:
        return None
    problem = schedule_problem(mods, out.schedule, inst)
    if problem:
        return problem
    best = expect.get("best_total_distance")
    if (best is not None and out.paths_changer_calls == 0
            and abs(out.schedule.total_distance - best) > TOL):
        return (f"distance {out.schedule.total_distance} without a path "
                f"change, oracle minimum {best}")
    return None
