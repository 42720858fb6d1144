#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 benchmarks/compare.py RUNS                  # medians and spreads
    python3 benchmarks/compare.py PARENT CHANGE         # verdict per metric
    python3 benchmarks/compare.py RUNS --write-baseline benchmarks/baseline.json

RUNS, PARENT and CHANGE are directories of run.py outputs (sweep.py writes
them); the ``# record`` line of every file is read.  Results whose
environment (Python, numpy, scipy, OpenBLAS, BLAS threads, nproc, CPU) or
run length differs are not compared.

Spread is the distance between the first and third quartile as a share of
the median.  The verdict follows the benchmark's rule: a gain needs the
change to win at least nine tenths of the runs paired by seed and the
medians to differ by more than the parent's quartile distance; a metric
whose spread exceeds its bound is unresolved unless every run of the
change beats every run of the parent; otherwise a change worse than the
parent by more than the bound is a regression.  Traced counts and result
digests are compared exactly.

Failed items are compared on the items both sides ran (same seed, same
position, hence the same inputs).  If more of them fail in the change, or
any run says its results are not correct, the comparison exits 1 and no
gain is counted for that workload.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
COUNT_UNITS = {"count", "1/item", "ratio"}


def load(directory) -> list[dict]:
    records = []
    for path in sorted(Path(directory).rglob("*.txt")):
        for line in path.read_text().splitlines():
            if line.startswith("# record "):
                records.append(json.loads(line[len("# record "):]))
    if not records:
        sys.exit(f"error: no run records under {directory}")
    return records


def check_environment(records):
    envs = {json.dumps({**{k: v for k, v in r["environment"].items()
                           if k != "commit"}, "seconds": r["seconds"]},
                       sort_keys=True) for r in records}
    if len(envs) > 1:
        sys.exit("error: refusing to compare runs from different environments "
                 "or run lengths:\n" + "\n".join(sorted(envs)))


def series(records, workload, trace, metric) -> dict:
    """Metric value per seed."""
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def workloads(records):
    return sorted({r["workload"] for r in records})


def summarise(records) -> dict:
    out = {"environment": records[0]["environment"], "workloads": {},
           "layers": {}, "digests": {}, "trace_counts": {}}
    for w in workloads(records):
        out["workloads"][w] = {}
        for name in END_TO_END:
            vals = list(series(records, w, 0, name).values())
            if vals:
                q1, med, q3 = quartiles(vals)
                out["workloads"][w][name] = {
                    "median": med, "q1": q1, "q3": q3, "spread": spread(vals),
                    "runs": len(vals), "unit": END_TO_END[name]["unit"]}
        out["digests"][w] = {str(r["seed"]): r["digest"] for r in records
                             if r["workload"] == w}
        traced = [r for r in records if r["workload"] == w and r["trace"] == 1]
        if traced:
            out["layers"][w] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]}
            out["trace_counts"][w] = {
                str(r["seed"]): {k: m["value"] for k, m in r["metrics"].items()
                                 if m["unit"] in COUNT_UNITS}
                for r in traced}
    return out


def report_one(records):
    summary = summarise(records)
    for w, metrics in summary["workloads"].items():
        print(f"== {w}")
        for name, s in metrics.items():
            bound = END_TO_END[name]["bound"]
            flag = "steady" if s["spread"] < bound / 3 else \
                "within bound" if s["spread"] <= bound else "TOO WIDE"
            print(f"  {name:14s} median {s['median']:12.6g} {s['unit']:4s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}, {flag}, {s['runs']} runs)")
    for w, layers in summary["layers"].items():
        print(f"== {w} per-layer medians over "
              f"{len(summary['trace_counts'][w])} traced runs")
        for name, value in layers.items():
            print(f"  {name:36s} {value:.6g}")
    return summary


def verdict(parent: dict, change: dict, metric: dict) -> tuple[str, float]:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_vals, c_vals = list(parent.values()), list(change.values())
    q1p, p_med, q3p = quartiles(p_vals)
    c_med = quartiles(c_vals)[1]
    ratio = c_med / p_med if p_med else float("inf")

    def better(a, b):
        return a < b if lower else a > b

    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s]) for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > q3p - q1p:
        return "gain", ratio
    if spread(p_vals) > bound or spread(c_vals) > bound:
        if all(better(c, p) for c in c_vals for p in p_vals):
            return "better in every run", ratio
        return "unresolved (spread exceeds bound)", ratio
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if worse > bound:
        return f"REGRESSION ({worse:+.1%} > {bound:.0%})", ratio
    return "no regression", ratio


def failures(parent, change, workload) -> tuple[list[str], bool]:
    """Report lines on failed items and incorrect runs, and whether they
    make the comparison bad."""
    lines, bad = [], False
    sides = {}
    for side, records in (("parent", parent), ("change", change)):
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ratio = failed / attempted if attempted else float("nan")
        lines.append(f"  fail_ratio {side} {ratio:.6g} ({failed} of {attempted})")
        for r in runs:
            if not r["correct"]:
                bad = True
                lines.append(f"  INCORRECT {side} run seed {r['seed']} "
                             f"trace {r['trace']}")
        sides[side] = {(r["seed"], r["trace"]): r for r in runs}
    common = {"parent": 0, "change": 0}
    for key in sorted(set(sides["parent"]) & set(sides["change"])):
        p, c = sides["parent"][key], sides["change"][key]
        n = min(p["attempted"], c["attempted"])
        for side, r in (("parent", p), ("change", c)):
            common[side] += sum(i < n for i in r["failed_items"])
    lines.append(f"  failed on the items both sides ran: parent "
                 f"{common['parent']}, change {common['change']}")
    if common["change"] > common["parent"]:
        bad = True
        lines.append("  MORE ITEMS FAIL in the change")
    return lines, bad


def report_two(parent, change) -> int:
    check_environment(parent + change)
    bad = 0
    for w in sorted(set(workloads(parent)) | set(workloads(change))):
        print(f"== {w}")
        fail_lines, fail_bad = failures(parent, change, w)
        bad += fail_bad
        for name, metric in END_TO_END.items():
            p, c = series(parent, w, 0, name), series(change, w, 0, name)
            if not p or not c:
                continue
            text, ratio = verdict(p, c, metric)
            if fail_bad and text in ("gain", "better in every run"):
                text = f"{text} not counted (failures or incorrect runs)"
            bad += text.startswith("REGRESSION")
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"  {name:14s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"ratio {ratio:.4f}  {text}")
        print("\n".join(fail_lines))
        pt = {r["seed"]: r for r in parent if r["workload"] == w and r["trace"]}
        ct = {r["seed"]: r for r in change if r["workload"] == w and r["trace"]}
        for seed in sorted(set(pt) & set(ct)):
            for name, m in pt[seed]["metrics"].items():
                if m["unit"] not in COUNT_UNITS:
                    continue
                other = ct[seed]["metrics"].get(name, {}).get("value")
                if other != m["value"]:
                    print(f"  count {name} seed {seed}: {m['value']} -> {other}")
        pd = {r["seed"]: r["digest"] for r in parent if r["workload"] == w}
        cd = {r["seed"]: r["digest"] for r in change if r["workload"] == w}
        for seed in sorted(set(pd) & set(cd)):
            if pd[seed] != cd[seed]:
                bad += 1
                print(f"  DIGEST DIFFERS seed {seed}: {pd[seed]} -> {cd[seed]}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", nargs="+", help="one or two run directories")
    p.add_argument("--write-baseline", metavar="FILE")
    args = p.parse_args(argv)
    if len(args.runs) > 2:
        p.error("give one or two run directories")
    sets = [load(d) for d in args.runs]
    if len(sets) == 2:
        return report_two(*sets)
    check_environment(sets[0])
    summary = report_one(sets[0])
    if args.write_baseline:
        summary["run_seconds"] = sorted({r["seconds"] for r in sets[0]})
        Path(args.write_baseline).write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
