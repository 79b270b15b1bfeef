"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workload grid --workload tiny --seeds 1-10
    python3 bench/repeat.py --workload congested --seeds 1,2,3 --trace 1

Run from the root of a source checkout.  Each run is the command in
BENCHMARK.json with its `run_seconds`; its result line is appended to
`bench/out/results.jsonl`.  For each workload and metric this prints the
median of the runs and the distance between the first and third quartile
as a share of the median, as `statistics.quantiles(values, n=4)` gives
them, and the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(OUT / "results.jsonl", "a") as log:
                log.write(json.dumps({
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "wall_s": wall, "stderr": proc.stderr.strip().splitlines()[-1],
                    **result}) + "\n")
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, {result['failed']}/"
                  f"{result['attempted']} failed", flush=True)
        print(f"{workload}: failed/attempted {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {name:40s} median {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} median {med:.6g}  quartile spread {spread:.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
