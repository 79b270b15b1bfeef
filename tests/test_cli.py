"""Command-line interface: exit codes, determinism, bench output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfevrp
from cfevrp.cli import main
from cfevrp.fileio import dumps_canonical, instance_to_json
from cfevrp.graph import validate_graph
from cfevrp.instance import (
    FleetParams, Job, Task, TimeWindow, Vehicle, build_instance,
)
from conftest import corridor_instance, swap_deadlock_instance


@pytest.fixture
def corridor_file(tmp_path):
    path = tmp_path / "corridor.json"
    path.write_text(dumps_canonical(instance_to_json(corridor_instance())))
    return path


def infeasible_instance():
    g = validate_graph([1, 2, 3], [1], [(1, 2, 1.0, 1), (2, 3, 1.0, 1)])
    return build_instance(
        g, [1], FleetParams(10, 1, 1, 1, 1, 10), [Vehicle("v1", 1)],
        [Job("j1", ("t1",), frozenset({"v1"}))],
        [Task("t1", "j1", 3, TimeWindow(0, 1), 0.0)])


def test_solve_corridor_exit_zero(corridor_file, tmp_path, capsys):
    out = tmp_path / "schedule.json"
    code = main(["solve", str(corridor_file), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "feasible"
    assert doc["totals"]["distance"] in (10.0, 12.0)


def test_solve_infeasible_exit_ten(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(instance_to_json(infeasible_instance())))
    assert main(["solve", str(path), "--out", str(tmp_path / "s.json")]) == 10


def test_solve_aborts_with_zero_path_budget(corridor_file, tmp_path):
    code = main(["solve", str(corridor_file), "--max-path-sets", "0",
                 "--out", str(tmp_path / "s.json")])
    assert code == 20


def test_solve_unreadable_file_exit_two(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2


def test_solve_malformed_file_exit_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 2


def test_relaxed_solve(corridor_file, tmp_path):
    out = tmp_path / "relaxed.json"
    assert main(["solve", str(corridor_file), "--relaxed",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["totals"]["distance"] == 10.0


def test_validate_solver_output(corridor_file, tmp_path, capsys):
    sched = tmp_path / "schedule.json"
    main(["solve", str(corridor_file), "--out", str(sched)])
    assert main(["validate", str(corridor_file), str(sched)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_mutated_schedule_fails(corridor_file, tmp_path, capsys):
    sched = tmp_path / "schedule.json"
    main(["solve", str(corridor_file), "--out", str(sched)])
    doc = json.loads(sched.read_text())
    for r in doc["routes"]:  # shift every time by half a unit
        r["start"] += 0.5
        for n in r["nodes"]:
            n["t_in"] += 0.5
            n["t_out"] += 0.5
        for e in r["edges"]:
            e["t_enter"] += 0.5
    sched.write_text(json.dumps(doc))
    assert main(["validate", str(corridor_file), str(sched)]) == 1
    assert "TimeWindow" in capsys.readouterr().out


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["generate", "--seed", "4", "--nodes", "15", "--vehicles", "2",
             "--jobs", "2", "--horizon", "20"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_impossible_reduction_exit_three(tmp_path, capsys):
    assert main(["generate", "--seed", "1", "--nodes", "16",
                 "--edge-reduction", "0.9",
                 "--out", str(tmp_path / "x.json")]) == 3


def test_bench_empty_dir_writes_header(tmp_path):
    csv_path = tmp_path / "out.csv"
    assert main(["bench", str(tmp_path), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("instance,outcome")


def test_bench_solves_directory(tmp_path):
    (tmp_path / "b_corridor.json").write_text(
        dumps_canonical(instance_to_json(corridor_instance())))
    (tmp_path / "a_deadlock.json").write_text(
        dumps_canonical(instance_to_json(swap_deadlock_instance())))
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(tmp_path), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
    # rows ordered by instance name regardless of solve order
    assert lines[1].startswith("a_deadlock.json,infeasible")
    assert lines[2].startswith("b_corridor.json,feasible")


def test_bench_timeout_zero_aborts_everything(tmp_path):
    (tmp_path / "c.json").write_text(
        dumps_canonical(instance_to_json(corridor_instance())))
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(tmp_path), "--timeout", "0",
                 "--csv", str(csv_path)]) == 0
    assert ",aborted," in csv_path.read_text()


def test_console_script_is_installed(corridor_file):
    proc = subprocess.run(
        ["cfevrp", "solve", str(corridor_file)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "feasible"


def test_python_dash_m_runs_the_cli(corridor_file):
    src = Path(cfevrp.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cfevrp", "solve", str(corridor_file)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "feasible"


def test_solve_has_no_seed_flag(corridor_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(corridor_file), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_log_json_includes_event_log(corridor_file, tmp_path):
    out = tmp_path / "s.json"
    main(["solve", str(corridor_file), "--log-json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert any(e["phase"] == "paths" for e in doc["events"])
