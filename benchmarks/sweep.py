#!/usr/bin/env python3
"""Run the benchmark over several seeds and save each run's output.

    python3 benchmarks/sweep.py --out .bench_runs/base --seeds 1-10
    python3 benchmarks/sweep.py --out .bench_runs/pair --seeds 1-10 \\
        --root ../parent --root .          # alternates which side runs first

Each run's standard output goes to ``OUT/<side>/<workload>-t<trace>-s<seed>.txt``
where ``<side>`` is ``0-<name>``, ``1-<name>``, ... for the given roots.
compare.py reads those directories.  The run length is always
``run_seconds`` from BENCHMARK.json, so every set of runs is comparable.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="directory for the outputs")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads",
                   help="comma-separated (default: those of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", action="append", default=None,
                   help="checkout to measure (repeatable; default: this one)")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    roots = [Path(r).resolve() for r in (args.root or [HERE.parent])]
    sides = [Path(args.out) / f"{i}-{r.name}" for i, r in enumerate(roots)]
    for side in sides:
        side.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for k, seed in enumerate(seed_list(args.seeds)):
            order = list(range(len(roots)))
            if k % 2:
                order.reverse()
            for i in order:
                cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                start = time.monotonic()
                proc = subprocess.run(cmd, cwd=roots[i], capture_output=True,
                                      text=True, timeout=900)
                name = f"{workload}-t{args.trace}-s{seed}.txt"
                (sides[i] / name).write_text(proc.stdout + proc.stderr)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{sides[i].name} {workload} seed {seed}: exit "
                      f"{proc.returncode} in {time.monotonic() - start:.1f} s "
                      f"{last[0][:100]}", flush=True)
                if proc.returncode != 0:
                    return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
