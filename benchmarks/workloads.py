"""Seeded inputs, item runners and oracles of the four benchmark workloads.

The benchmark draws every input itself from numpy's PCG64 stream, seeded by
(seed, workload, round), so the program under test receives only matrices,
paths and files, and the inputs of an item do not depend on how the program
computes.  A round is a fixed mix of item types; a run executes whole
rounds, so the mix a run measures is the same at every seed and speed.

An item is one operator (``invariants``), one path (``paths``), one
retraction (``retraction``) or one CLI command (``cli``).  ``run`` returns
the integers an item produced; ``check`` compares them with an oracle that
is written here, independently of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from kreinlab import cli, homotopy, krein, numerics, realsym, retraction, \
    signature
from kreinlab.errors import KreinLabError, StageError

GROUPS = (("U", None), ("O", (1, 1)), ("SO*", (-1, -1)), ("SP-ind", (-1, 1)),
          ("SP-R", (1, -1)))
GROUP_OF = {kind: group for group, kind in GROUPS}
REAL_KINDS = ((1, 1), (-1, -1), (-1, 1), (1, -1))
OP_KINDS = ("hermitian", "unitary")

# Table of admissible collision events per real kind (PASS_THROUGH always is).
ALLOWED_EVENTS = {
    (1, 1): {"QKC", "MTB", "MPD", "PASS_THROUGH"},
    (-1, -1): {"QKC", "PASS_THROUGH"},
    (-1, 1): {"QKC", "PASS_THROUGH"},
    (1, -1): {"QKC", "TB", "PD", "PASS_THROUGH"},
}
TERMINAL_CLASS = {None: "none", (1, 1): "real", (-1, -1): "anti-symmetric",
                  (-1, 1): "quaternionic", (1, -1): "symmetric"}
# Curated scenarios and their fixture events: (kind, t0 rounded to 1e-3).
SCENARIO_EVENTS = {
    "finex": [],
    "kc2x2": [("KC", 1.0)],
    "qkc": [("QKC", 0.5), ("QKC", 0.5)],
    "tb": [("TB", 0.667)],
    "mtb": [("MTB", 0.5)],
    "pd": [("PD", 0.667)],
    "mpd": [("MPD", 0.5)],
}
# Residual bounds of acceptance criterion 8 (retraction pipeline).
RETRACTION_BOUNDS = {"membership_max_residual": 1e-7, "chain_max_gap": 1e-7,
                     "terminal_spectrum_residual": 1e-6,
                     "terminal_symmetry_residual": 1e-8}


class ProgramError(RuntimeError):
    """The program failed with an error that is not a typed KreinLabError."""


@dataclass
class Item:
    label: str
    inputs: dict = field(repr=False)


# ------------------------------------------------------------------ inputs

def _rng(seed: int, workload: int, stream: int, index: int):
    return np.random.default_rng([seed, workload, stream, index])


def _j_hermitian(rng, K) -> np.ndarray:
    n = K.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return K.signs[:, None] * ((g + g.conj().T) / 2.0)


def _member_hermitian(rng, K, R) -> np.ndarray:
    h = _j_hermitian(rng, K)
    if R is None:
        return h
    return (h - R.S.T @ h.conj() @ R.S) / 2.0


def _exp_unitary(h) -> np.ndarray:
    h = h / max(np.linalg.norm(h), 1.0) * np.sqrt(h.shape[0])
    return sla.expm(1j * h)


def _structure(kind, n_plus: int, n_minus: int):
    if kind is None:
        return krein.make_standard(n_plus, n_minus), None
    R = realsym.make_real_structure(kind, n_plus, n_minus)
    return R.K, R


def _inertia(rng, kind, n: int) -> tuple[int, int]:
    """(N+, N-) admissible for the kind: free for tau = 1, even for SP-ind,
    balanced for tau = -1."""
    if kind in (None, (1, 1)):
        p = int(rng.integers(1, n))
    elif kind == (-1, 1):
        p = 2 * int(rng.integers(1, n // 2))
    else:
        p = n // 2
    return p, n - p


def _operator(rng, group, kind, op_kind, n) -> Item:
    p, q = _inertia(rng, kind, n)
    K, R = _structure(kind, p, q)
    h = _member_hermitian(rng, K, R)
    a = h if op_kind == "hermitian" else _exp_unitary(h)
    return Item(f"{group}/{op_kind}/{n}",
                dict(a=a, K=K, R=R, op_kind=op_kind, kind=kind))


def _balanced_hermitian(rng, kind, m) -> Item:
    K, R = _structure(kind, m, m)
    return Item(f"{GROUP_OF[kind]}/m={m}",
                dict(h=_member_hermitian(rng, K, R), K=K, R=R, kind=kind))


def _typed(exc: KreinLabError) -> bool:
    """True unless a StageError wraps an error that is not a KreinLabError."""
    while isinstance(exc, StageError):
        exc = exc.cause
    return isinstance(exc, KreinLabError)


# --------------------------------------------------------------- workloads

class Workload:
    """A stream of rounds of items with a runner and an oracle."""

    name = ""
    wid = 0
    trace_rounds = 1
    # Percentile of item_tail_ms: the highest of p75, p90, p99 with at least
    # 10 samples beyond it in a run of run_seconds at the seed commit.  It is
    # fixed, not worked out from each run's item count, so that a change that
    # makes items slower cannot move the tail to a lower percentile.
    tail_pct = 99

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def warmup(self) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item) -> dict:
        raise NotImplementedError

    def check(self, item: Item, rec: dict) -> list[str]:
        raise NotImplementedError

    def attempt(self, item: Item) -> tuple[dict, bool]:
        """Run one item.  A typed KreinLabError, a typed CLI exit code or an
        undecided result is a failed item; any other exception propagates
        and aborts the run."""
        try:
            rec = self.run(item)
            return rec, "error" in rec or bool(rec.get("undecided"))
        except KreinLabError as exc:
            if not _typed(exc):
                raise
            return {"error": type(exc).__name__}, True


class Invariants(Workload):
    """Operators of every group and both kinds at n in {4, 10, 16}."""

    name, wid, trace_rounds = "invariants", 1, 3
    sizes = (4, 10, 16)

    def round(self, r):
        rng = _rng(self.seed, self.wid, 0, r)
        return [_operator(rng, g, k, op, n) for g, k in GROUPS
                for n in self.sizes for op in OP_KINDS]

    def warmup(self):
        rng = _rng(self.seed, self.wid, 1, 0)
        return [_operator(rng, g, k, op, 4) for g, k in GROUPS for op in OP_KINDS]

    def run(self, item):
        x = item.inputs
        if x["R"] is None:
            rep = signature.global_signature(x["a"], x["K"], x["op_kind"])
        else:
            rep = realsym.full_invariant_report(x["a"], x["R"], x["op_kind"])
        rows = sorted([r.region, r.nu.nu_plus, r.nu.nu_minus, r.multiplicity]
                      for r in rep.rows)
        return {"sig": rep.global_sig, "sec": rep.sec, "sig2": rep.sig2,
                "rows": rows}

    def check(self, item, rec):
        x = item.inputs
        K = x["K"]
        return _invariant_problems(rec["sig"], rec["sec"], rec["sig2"],
                                   K.n_plus - K.n_minus, x["kind"],
                                   x["op_kind"],
                                   sum(r[3] for r in rec["rows"]), K.dim)


def _invariant_problems(sig, sec, sig2, law, kind, op_kind, mult, dim):
    out = []
    if sig != law:
        out.append(f"Sig {sig} != N+ - N- = {law}")
    if mult != dim:
        out.append(f"cluster multiplicities sum to {mult}, not {dim}")
    if kind == (-1, -1) and (sig != 0 or sig2 not in (0, 1)):
        out.append(f"SO*: Sig {sig}, Sig_2 {sig2}")
    if kind == (-1, 1) and sig % 2:
        out.append(f"SP-ind: odd Sig {sig}")
    if kind == (1, -1) and sig != 0:
        out.append(f"SP-R: Sig {sig}")
    if kind == (1, 1) and op_kind == "unitary" and sec not in (0, 1):
        out.append(f"O unitary: Sec {sec}")
    return out


class Paths(Workload):
    """Random member paths in the four real kinds at (2, 2).

    Not listed in BENCHMARK.json, whose workloads must run without a failed
    item: at the seed commit a few paths in 10 000 fail here (a departure
    whose inertia ``homotopy`` dropped, a TB event in kind (1, 1), an
    ``UnresolvedEvent``).  ``run.py --workload paths`` still runs it and
    reports those failures; the homotopy layer is measured on ``cli``.
    """

    name, wid, trace_rounds = "paths", 2, 8
    per_kind = 4
    scale = 1.5

    def _path(self, rng, kind) -> Item:
        K, R = _structure(kind, 2, 2)
        h0, h1 = (_member_hermitian(rng, K, R) for _ in range(2))
        h0 = h0 / max(np.linalg.norm(h0), 1.0) * self.scale
        h1 = h1 / max(np.linalg.norm(h1), 1.0) * self.scale

        def sampler(t):
            return numerics.matrix_exp(1j * ((1.0 - t) * h0 + t * h1))

        path = homotopy.OperatorPath(sampler=sampler, structure=K,
                                     kind="unitary", real_structure=R,
                                     name="random-member-path")
        return Item(f"path{kind}", dict(path=path, kind=kind))

    def round(self, r):
        rng = _rng(self.seed, self.wid, 0, r)
        return [self._path(rng, k) for k in REAL_KINDS
                for _ in range(self.per_kind)]

    def warmup(self):
        rng = _rng(self.seed, self.wid, 1, 0)
        return [self._path(rng, k) for k in REAL_KINDS]

    def run(self, item):
        path = item.inputs["path"]
        trajs = homotopy.track(path, initial_grid=7, record_inertia=False)
        events = homotopy.detect_events(trajs, path)
        _, violations = homotopy.verify_krein_stability(events, trajs)
        # A departure without inertia is one the program could not decide
        # (it dropped an inertia failure); one at definite inertia is wrong.
        undecided = sum(e.inertia_before is None for e in violations)
        return {"events": sorted([e.event_kind, e.multiplicity, e.direction]
                                 for e in events),
                "definite_departures": len(violations) - undecided,
                "undecided": undecided}

    def check(self, item, rec):
        allowed = ALLOWED_EVENTS[item.inputs["kind"]]
        out = [f"forbidden event {e[0]}" for e in rec["events"]
               if e[0] not in allowed]
        if rec["definite_departures"]:
            out.append(f"{rec['definite_departures']} departures at definite "
                       "inertia")
        return out


class Retraction(Workload):
    """Balanced J-hermitians, plain and in the four kinds, m in 2..6."""

    name, wid, trace_rounds = "retraction", 3, 3
    sizes = {None: (2, 3, 4, 5, 6), (1, 1): (2, 3, 4, 5, 6),
             (-1, -1): (2, 3, 5), (-1, 1): (2, 4), (1, -1): (2, 3, 4, 5, 6)}

    def round(self, r):
        rng = _rng(self.seed, self.wid, 0, r)
        return [_balanced_hermitian(rng, k, m) for k, ms in self.sizes.items()
                for m in ms]

    def warmup(self):
        rng = _rng(self.seed, self.wid, 1, 0)
        return [_balanced_hermitian(rng, k, 2) for k in self.sizes]

    def run(self, item):
        x = item.inputs
        tr = retraction.retract_to_model(x["h"], x["K"], x["R"])
        rec = {"sig": [tr.sig_initial, tr.sig_terminal],
               "class": tr.terminal_class,
               "kernel": [tr.kernel_dim_after_lift, *tr.kernel_inertia]}
        rec["residuals"] = {k: getattr(tr, k) for k in RETRACTION_BOUNDS}
        return rec

    def check(self, item, rec):
        out = []
        if rec["sig"] != [0, 0]:
            out.append(f"Sig {rec['sig'][0]} -> {rec['sig'][1]}, expected 0 -> 0")
        if rec["class"] != TERMINAL_CLASS[item.inputs["kind"]]:
            out.append(f"terminal class {rec['class']}")
        for key, bound in RETRACTION_BOUNDS.items():
            val = rec["residuals"][key]
            if val is not None and not val <= bound:
                out.append(f"{key} {val:.3e} > {bound:.0e}")
        return out


class Cli(Workload):
    """``python -m kreinlab.cli`` commands run one after another: invariants
    on matrix files, retract on hermitian files, track on every scenario."""

    name, wid, trace_rounds = "cli", 4, 1
    tail_pct = 75
    in_process = False
    max_child_rss_kb = 0

    def _files(self, r: int, stream: int) -> list[Item]:
        rng = _rng(self.seed, self.wid, stream, r)
        items = []
        for i, (group, kind) in enumerate(GROUPS):
            op_kind = OP_KINDS[(i + r) % 2]
            op = _operator(rng, group, kind, op_kind, 6)
            x = op.inputs
            f = self.workdir / f"inv-{stream}-{r}-{i}.json"
            _write_matrix(f, x["a"], x["K"], kind)
            items.append(Item(f"invariants {op.label}",
                              dict(argv=["invariants", str(f), "--kind", op_kind],
                                   kind=kind, op_kind=op_kind, dim=6,
                                   law=x["K"].n_plus - x["K"].n_minus)))
        for i, (group, kind) in enumerate(GROUPS):
            m = 2 if kind == (-1, 1) else 3
            x = _balanced_hermitian(rng, kind, m).inputs
            f = self.workdir / f"ret-{stream}-{r}-{i}.json"
            _write_matrix(f, x["h"], x["K"], kind)
            items.append(Item(f"retract {group}/m={m}",
                              dict(argv=["retract", str(f)], kind=kind)))
        return items

    def round(self, r):
        return self._files(r, 0) + [
            Item(f"track {s}", dict(argv=["track", s], scenario=s))
            for s in SCENARIO_EVENTS]

    def warmup(self):
        return self._files(0, 1)[:1]

    def run(self, item):
        argv = item.inputs["argv"]
        code, out, err = (self._main if self.in_process else self._spawn)(argv)
        if code != 0:
            if "Traceback" in err:
                raise ProgramError(f"{' '.join(argv)} crashed:\n{err}")
            return {"error": f"exit {code}"}
        data = json.loads(out)
        if argv[0] == "invariants":
            return {"sig": data["global_sig"], "sec": data["sec"],
                    "sig2": data["sig2"],
                    "law": data["n_plus"] - data["n_minus"],
                    "rows": sorted([c["region"], *c["nu"], c["multiplicity"]]
                                   for c in data["clusters"])}
        if argv[0] == "retract":
            return {"sig": [data["sig_initial"], data["sig_terminal"]],
                    "class": data["terminal_class"]}
        return {"events": sorted([e["event_kind"], round(e["t0"], 3),
                                  e["multiplicity"]] for e in data["events"])}

    def check(self, item, rec):
        x = item.inputs
        cmd = x["argv"][0]
        if cmd == "invariants":
            out = _invariant_problems(rec["sig"], rec["sec"], rec["sig2"],
                                      x["law"], x["kind"], x["op_kind"],
                                      sum(r[3] for r in rec["rows"]), x["dim"])
            if rec["law"] != x["law"]:
                out.append(f"file read as N+ - N- = {rec['law']}, "
                           f"written with {x['law']}")
            return out
        if cmd == "retract":
            out = []
            if rec["sig"] != [0, 0]:
                out.append(f"Sig {rec['sig']}")
            if rec["class"] != TERMINAL_CLASS[x["kind"]]:
                out.append(f"terminal class {rec['class']}")
            return out
        got = sorted((k, t0) for k, t0, _ in rec["events"] if k != "PASS_THROUGH")
        want = sorted(SCENARIO_EVENTS[x["scenario"]])
        return [] if got == want else [f"events {got} != fixture {want}"]

    def _spawn(self, argv):
        out_f = self.workdir / "stdout.txt"
        err_f = self.workdir / "stderr.txt"
        with open(out_f, "wb") as out, open(err_f, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "kreinlab.cli", *argv],
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.workdir, env=child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_f.read_text(), err_f.read_text()

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def _write_matrix(path: Path, a, K, kind):
    """Matrix file in the CLI's stable format."""
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(a).ravel()]
    path.write_text(json.dumps({
        "dim": K.dim, "n_plus": K.n_plus, "n_minus": K.n_minus,
        "kind": list(kind) if kind is not None else None, "entries": entries}))


def child_env() -> dict:
    """Environment of every subprocess: this checkout's sources, one BLAS
    thread, default tolerances."""
    env = dict(os.environ)
    env.pop("KREINLAB_TOL", None)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


WORKLOADS = {w.name: w for w in (Invariants, Paths, Retraction, Cli)}
