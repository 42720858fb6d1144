#!/usr/bin/env python3
"""kreinlab benchmark: four seeded closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload invariants --seed 1 --seconds 10 --trace 0

Workloads: invariants, retraction, cli (listed in BENCHMARK.json) and paths,
which is left out of BENCHMARK.json because a few of its items fail at the
seed commit (see workloads.py).

``--trace 0`` times whole rounds of items until ``--seconds`` of busy time
have passed and reports the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed item list once untraced and once with the layer
wrappers of tracing.py installed, and reports the per-layer metrics; its
counts repeat exactly at a fixed seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
starts with ``# record`` and holds the full result (environment, result
digest, tail percentile, positions of the failed items) that compare.py
reads.

An item fails when it raises a typed ``KreinLabError``, leaves a result
undecided, or its integers disagree with the oracle of workloads.py; failed
items count in ``failed`` and are listed.  Any other exception aborts the
run.  ``correct`` is false when the digest of round 0 differs from the one
recorded for the seed in baseline.json, or when the traced and untraced
passes of a traced run disagree.
"""

import os

# One BLAS thread, pinned before numpy is imported (children inherit it):
# on 2 cores, threaded BLAS makes small dense kernels slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KREINLAB_TOL", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
WALL_LIMIT_S = 120.0   # no new round starts after this much wall time


def _load_program():
    """Import kreinlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "kreinlab" / "__init__.py").is_file():
        sys.exit(f"error: no kreinlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kreinlab

    if SRC not in Path(kreinlab.__file__).resolve().parents:
        sys.exit(f"error: imported kreinlab from {kreinlab.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": _blas_threads(numpy), "nproc": nproc,
            "cpu": _cpu_model(), "commit": _commit()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy) -> str:
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def _commit() -> str:
    """HEAD of the checkout's own .git, or 'none' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def digest(labels, records) -> str:
    """Hash of the integers of the given items (floats are left out)."""
    rows = [[label, {k: v for k, v in rec.items() if k != "residuals"}]
            for label, rec in zip(labels, records)]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digest(workload: str, seed: int, env: dict):
    """Digest recorded for the seed in baseline.json, if it was recorded in
    the same environment (floating-point kernels differ between them)."""
    try:
        data = json.loads((HERE / "baseline.json").read_text())
    except (OSError, ValueError):
        return None
    base = data.get("environment", {})
    if any(base.get(k) != v for k, v in env.items() if k != "commit"):
        return None
    return data.get("digests", {}).get(workload, {}).get(str(seed))


class Run:
    """Executes items and keeps what the result needs."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.labels = []
        self.records = []
        self.failed = 0
        self.failed_items = []  # positions of the failed items in the run
        self.failures = []    # typed error, undecided result or oracle disagreement
        self.incorrect = []   # reasons the run's results cannot be trusted

    def item(self, item, tracer=None):
        if tracer is not None:
            tracer.begin_item()
        start = time.perf_counter()
        rec, failed = self.wl.attempt(item)
        self.latencies.append(time.perf_counter() - start)
        if "error" in rec:
            problems = [rec["error"]]
        else:
            problems = (["undecided result"] if failed else []) + \
                self.wl.check(item, rec)
        if problems:
            self.failed += 1
            self.failed_items.append(len(self.labels))
            self.failures.append(f"{item.label}: {'; '.join(problems)}")
        self.labels.append(item.label)
        self.records.append(rec)


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter until it is ready to time
    its first item: import, input generation and warm-up."""
    workdir = Path(args.workdir) / f"setup-{time.monotonic_ns()}"
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", "--workdir", str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return elapsed


def import_ms() -> float:
    """Median wall time of ``import kreinlab.cli`` in a fresh interpreter."""
    from workloads import child_env

    code = ("import time; t = time.perf_counter(); import kreinlab.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=ROOT, env=child_env())
        samples.append(float(out.stdout) * 1e3)
    return statistics.median(samples)


def tail(latencies, pct):
    """Latency at percentile ``pct`` (nearest rank) and the number of samples
    beyond it."""
    lat = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(lat)))
    return lat[rank - 1], len(lat) - rank


def timed(args, wl):
    setups = [setup_probe(args) for _ in range(SETUP_REPEATS)]
    for item in wl.warmup():
        wl.attempt(item)
    run = Run(wl)
    wall = time.perf_counter()
    rounds = first_round = 0
    while True:
        items = wl.round(rounds)
        first_round = first_round or len(items)
        for item in items:
            run.item(item)
        rounds += 1
        if sum(run.latencies) >= args.seconds or \
                time.perf_counter() - wall > WALL_LIMIT_S:
            break
    busy = sum(run.latencies)
    n = len(run.latencies)
    tail_ms, beyond = tail(run.latencies, wl.tail_pct)
    if wl.name == "cli":
        rss_kb = wl.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "item_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "item_tail_ms": (tail_ms * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {
        "rounds": rounds, "busy_s": busy,
        "setup_samples_s": setups,
        "tail_percentile": wl.tail_pct, "tail_samples_beyond": beyond,
        "fail_ratio": run.failed / n,
    }
    lines = [f"{wl.name} seed {args.seed}: {n} items in {rounds} rounds, "
             f"busy {busy:.3f} s"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:14s} {value:.6g} {unit}")
        if name == "item_tail_ms":
            lines[-1] += f"  (p{wl.tail_pct}, {beyond} of {n} samples beyond)"
    lines.append(f"{'fail_ratio':14s} {run.failed / n:.6g}  "
                 f"({run.failed} of {n} failed)")
    return run, metrics, details, lines, first_round


def traced(args, wl):
    from tracing import Tracer

    wl.in_process = True
    for item in wl.warmup():
        wl.attempt(item)
    rounds = [wl.round(r) for r in range(wl.trace_rounds)]
    items = [item for rnd in rounds for item in rnd]
    plain = Run(wl)
    for item in items:
        plain.item(item)
    tracer = Tracer()
    tracer.install()
    try:
        run = Run(wl)
        for item in items:
            run.item(item, tracer)
    finally:
        tracer.uninstall()
    if run.records != plain.records:
        run.incorrect.append("traced and untraced passes disagree")
    metrics = tracer.layer_metrics(len(items))
    by_cmd = {}
    if wl.name == "cli":
        for label, lat in zip(plain.labels, plain.latencies):
            by_cmd.setdefault(label.split()[0], []).append(lat)
    for cmd in ("invariants", "retract", "track"):
        lat = by_cmd.get(cmd)
        metrics[f"cli.{cmd}_ms"] = (statistics.median(lat) * 1e3 if lat else 0.0,
                                    "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    overhead = sum(run.latencies) / sum(plain.latencies)
    metrics["trace.overhead_ratio"] = (overhead, "x")
    details = {"items": len(items), "absent": tracer.absent,
               "untraced_busy_s": sum(plain.latencies),
               "traced_busy_s": sum(run.latencies)}
    lines = [f"{wl.name} seed {args.seed}: traced {len(items)} items "
             f"(overhead x{overhead:.3f})", "spans:"] + tracer.table()
    lines.append("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:36s} {value:.6g} {unit}")
    for name in tracer.absent:
        lines.append(f"  {name}: absent (helper no longer exists)")
    return run, metrics, details, lines, len(rounds[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("invariants", "paths", "retraction", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    own_workdir = args.workdir is None
    workdir = Path(args.workdir) if args.workdir else \
        ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    args.workdir = str(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            wl.round(0)
            for item in wl.warmup():
                wl.attempt(item)
            print("ready", flush=True)
            return 0
        run, metrics, details, lines, first = \
            (traced if args.trace else timed)(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if own_workdir:
            try:
                workdir.parent.rmdir()
            except OSError:
                pass

    env = environment()
    got = digest(run.labels[:first], run.records[:first])
    want = recorded_digest(args.workload, args.seed, env)
    if want is not None and want != got:
        run.incorrect.append(f"result digest {got} != recorded {want}")
    status = "none recorded for this seed and environment" if want is None else \
        "matches the recorded digest" if want == got else "MISMATCH"
    lines.append(f"digest of round 0: {got} ({status})")
    lines += [f"FAILED {failure}" for failure in run.failures[:20]]
    lines += [f"INCORRECT {reason}" for reason in run.incorrect]
    correct = not run.incorrect
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "digest": got, "correct": correct,
              "attempted": len(run.latencies), "failed": run.failed,
              "failed_items": run.failed_items,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "details": details}
    print("\n".join(lines))
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(run.latencies),
                      "failed": run.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
