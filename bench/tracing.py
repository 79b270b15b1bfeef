"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public entry points of each layer with
wrappers that record spans and counts, and `Tracer.uninstall` puts the
originals back.  Nothing inside `cfevrp` changes: the wrappers sit on the
module attributes that callers look up at call time (the stage functions
as `cfevrp.driver` names them, the solver's `Context` and `_SatCore`
methods, the validator and the parser).

Spans nest: the solve span holds stage spans, which hold solver spans.
Solver spans and counts go to the innermost stage span around them, so
`routing.solver.sat_s` is SAT-core time spent while the router ran.  A
span's self time is its duration minus the time its child spans cover.

A boundary that no longer exists (say `_SatCore.solve` after a solver
rewrite) is skipped: the metrics it feeds are listed in `dropped`, and the
rest of the run goes on.
"""

from __future__ import annotations

import functools
import sys
import time

# Stage functions as the driver calls them: (driver attribute, layer name).
STAGES = (
    ("shortest_path_map", "graph"),
    ("solve_routing", "routing"),
    ("solve_assignment", "assignment"),
    ("verify_capacity", "capacity"),
    ("solve_paths_changing", "pathschanger"),
    ("verify_routes", "routesverify"),
)
SOLVER_STAGES = ("routing", "assignment", "capacity", "pathschanger")
SOLVER_METRICS = (
    ("encode_s", "s"), ("check_calls", "count"), ("minimize_calls", "count"),
    ("sat_calls", "count"), ("sat_s", "s"), ("theory_checks", "count"),
    ("theory_conflicts", "count"), ("theory_s", "s"), ("vars", "count"),
    ("clauses", "count"),
)
# Model-size metrics are the largest model a stage call left behind, not
# sums, so that state kept across calls shows as growth.
_MAX_METRICS = ("vars", "clauses")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [
        ("driver.s", "s"), ("driver.self_s", "s"), ("graph.s", "s"),
        ("routing.calls", "count"), ("routing.s", "s"),
        ("assignment.calls", "count"), ("assignment.s", "s"),
        ("capacity.calls", "count"), ("capacity.s", "s"),
        ("capacity.unsat", "count"),
        ("pathschanger.calls", "count"), ("pathschanger.s", "s"),
        ("routesverify.calls", "count"), ("routesverify.s", "s"),
        ("routesverify.accepted", "count"),
    ]
    for stage in SOLVER_STAGES:
        out.append((f"{stage}.self_s", "s"))
        out.extend((f"{stage}.solver.{m}", u) for m, u in SOLVER_METRICS)
    out += [
        ("validator.validate_s", "s"), ("validator.oracle_s", "s"),
        ("validator.oracle_candidates", "count"),
        ("validator.oracle_timing_checks", "count"),
        ("fileio.parse_s", "s"),
    ]
    return out


class _Frame:
    __slots__ = ("stage", "child", "contexts")

    def __init__(self, stage: str | None):
        self.stage = stage   # set on stage spans only
        self.child = 0.0     # time covered by child spans
        self.contexts: list = []


class Tracer:
    def __init__(self):
        self.sums: dict[str, float] = {}
        self.maxes: dict[str, float] = {}
        self.dropped: dict[str, str] = {}  # metric -> missing boundary
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _add(self, metric: str, value: float) -> None:
        self.sums[metric] = self.sums.get(metric, 0.0) + value

    def _stage(self) -> str:
        for frame in reversed(self._stack):
            if frame.stage is not None:
                return frame.stage
        return "driver"

    def _span(self, fn, on_exit, stage: str | None = None):
        """Wrap fn in a span; on_exit(result, duration, self_time, frame)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(stage)
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child += dur
            on_exit(result, dur, dur - frame.child, frame)
            return result
        return wrapper

    def _counted(self, fn, metric: str):
        """Wrap a solver method: count calls, remember the context used."""
        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            self._add(f"{self._stage()}.solver.{metric}", 1)
            self._touch(ctx)
            return fn(ctx, *args, **kwargs)
        return wrapper

    def _touch(self, ctx) -> None:
        for frame in reversed(self._stack):
            if frame.stage is not None:
                if not any(c is ctx for c in frame.contexts):
                    frame.contexts.append(ctx)
                return

    def _model_size(self, stage: str, frame: _Frame) -> None:
        nvars = nclauses = 0
        for ctx in frame.contexts:
            core = getattr(ctx, "_sat", None)
            if core is None or not hasattr(core, "nvars") or not hasattr(core, "clauses"):
                self._drop(f"{stage}.solver.vars", "Context._sat.nvars")
                self._drop(f"{stage}.solver.clauses", "Context._sat.clauses")
                return
            nvars += core.nvars
            nclauses += len(core.clauses)
        for metric, value in (("vars", nvars), ("clauses", nclauses)):
            key = f"{stage}.solver.{metric}"
            self.maxes[key] = max(self.maxes.get(key, 0), value)

    # -- wrappers per layer ------------------------------------------------

    def _stage_exit(self, stage: str):
        def on_exit(result, dur, self_time, frame):
            self._add(f"{stage}.calls", 1)
            self._add(f"{stage}.s", dur)
            if stage in SOLVER_STAGES:
                self._add(f"{stage}.self_s", self_time)
                self._model_size(stage, frame)
            if stage == "capacity" and result[0] is None:
                self._add("capacity.unsat", 1)
            if stage == "routesverify" and result:
                self._add("routesverify.accepted", 1)
        return on_exit

    def _solver_span(self, metric_s: str, metric_calls: str | None = None,
                     conflicts: str | None = None, track_context=False):
        def wrap(fn):
            def on_exit(result, dur, self_time, frame):
                stage = self._stage()
                self._add(f"{stage}.solver.{metric_s}", dur)
                if metric_calls:
                    self._add(f"{stage}.solver.{metric_calls}", 1)
                if conflicts and result is not None:
                    self._add(f"{stage}.solver.{conflicts}", 1)
            inner = self._span(fn, on_exit)
            if not track_context:
                return inner

            @functools.wraps(fn)
            def tracked(ctx, *args, **kwargs):
                self._touch(ctx)
                return inner(ctx, *args, **kwargs)
            return tracked
        return wrap

    def _driver_exit(self, result, dur, self_time, frame):
        self._add("driver.s", dur)
        self._add("driver.self_s", self_time)

    def _oracle_exit(self, result, dur, self_time, frame):
        self._add("validator.oracle_s", dur)
        stats = getattr(result, "stats", None)
        for field, metric in (("candidates", "validator.oracle_candidates"),
                              ("timing_checks", "validator.oracle_timing_checks")):
            if hasattr(stats, field):
                self._add(metric, getattr(stats, field))
            else:
                self._drop(metric, f"OracleStats.{field}")

    def boundaries(self, mods) -> list:
        """(owner object, attribute, wrapper factory, metrics it feeds)."""
        driver, solver = mods.driver, mods.solver
        ctx_cls = getattr(solver, "Context", None)
        core_cls = getattr(solver, "_SatCore", None)
        out = [(driver, "comsat_solve",
                lambda fn: self._span(fn, self._driver_exit),
                ["driver.s", "driver.self_s"])]
        for attr, stage in STAGES:
            names = [m for m, _ in per_layer_metrics()
                     if m.startswith(stage + ".") and ".solver." not in m]
            out.append((driver, attr,
                        lambda fn, stage=stage: self._span(
                            fn, self._stage_exit(stage), stage=stage),
                        names))

        def solver_names(metric):
            return [f"{s}.solver.{metric}" for s in SOLVER_STAGES]

        out += [
            (ctx_cls, "assert_formula",
             self._solver_span("encode_s", track_context=True),
             solver_names("encode_s")),
            (ctx_cls, "block_model",
             self._solver_span("encode_s", track_context=True),
             solver_names("encode_s")),
            (ctx_cls, "check",
             lambda fn: self._counted(fn, "check_calls"),
             solver_names("check_calls")),
            (ctx_cls, "minimize",
             lambda fn: self._counted(fn, "minimize_calls"),
             solver_names("minimize_calls")),
            (core_cls, "solve", self._solver_span("sat_s", "sat_calls"),
             solver_names("sat_s") + solver_names("sat_calls")),
            (ctx_cls, "_theory_conflict",
             self._solver_span("theory_s", "theory_checks", "theory_conflicts"),
             solver_names("theory_s") + solver_names("theory_checks")
             + solver_names("theory_conflicts")),
            (mods.validator, "validate_schedule",
             lambda fn: self._span(
                 fn, lambda r, d, s, f: self._add("validator.validate_s", d)),
             ["validator.validate_s"]),
            (mods.validator, "brute_force_feasible",
             lambda fn: self._span(fn, self._oracle_exit),
             ["validator.oracle_s", "validator.oracle_candidates",
              "validator.oracle_timing_checks"]),
            (mods.fileio, "parse_instance",
             lambda fn: self._span(
                 fn, lambda r, d, s, f: self._add("fileio.parse_s", d)),
             ["fileio.parse_s"]),
        ]
        return out

    # -- install / report ---------------------------------------------------

    def _drop(self, metric: str, boundary: str) -> None:
        if metric not in self.dropped:
            self.dropped[metric] = boundary
            print(f"trace: dropped metric {metric}: boundary {boundary} "
                  f"no longer exists", file=sys.stderr)

    def install(self, mods) -> None:
        for owner, attr, factory, metrics in self.boundaries(mods):
            original = getattr(owner, attr, None)
            if original is None:
                where = getattr(owner, "__name__", "<missing>")
                for m in metrics:
                    self._drop(m, f"{where}.{attr}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, factory(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def report(self, rounds: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Each metric per round: sums divided by rounds, maxima as they are.

        Times are multiplied by `scale` (wall to reference seconds).
        fileio.parse_s covers one parse of the workload's files and is not
        divided.
        """
        out = {}
        for name, unit in per_layer_metrics():
            if name in self.dropped:
                continue
            if name.rsplit(".", 1)[-1] in _MAX_METRICS:
                value = self.maxes.get(name, 0)
            elif name == "fileio.parse_s":
                value = self.sums.get(name, 0.0)
            else:
                value = self.sums.get(name, 0.0) / rounds
            out[name] = (value * scale if unit == "s" else value, unit)
        return out
