"""Randomized verification suites.

Each suite draws seeded random instances, runs a family of checks, and
returns a JSON-able summary with per-check residual maxima.  The CLI
``verify`` command and the acceptance tests both run through these.
"""

from __future__ import annotations

import time

import numpy as np

from . import config, numerics, signature, spectral
from .cayley import transport_report
from .config import SUITES
from .errors import KreinLabError
from .homotopy import OperatorPath, detect_events, scenario_library, track, \
    verify_krein_stability
from .krein import make_standard, random_j_hermitian, random_j_unitary
from .realsym import make_real_structure, random_member, standard_skew
from .retraction import factorize_unitary, retract_to_model

ALL_KINDS = ((1, 1), (-1, -1), (-1, 1), (1, -1))

# event kinds allowed per kind of real structure (PASS_THROUGH always is)
ALLOWED_EVENTS = {
    (1, 1): {"QKC", "MTB", "MPD"},
    (-1, -1): {"QKC"},
    (-1, 1): {"QKC"},
    (1, -1): {"QKC", "TB", "PD"},
}


def _result(suite, n, seed, failures, residuals, extra=None):
    out = {
        "suite": suite,
        "n": n,
        "seed": seed,
        "passed": not failures,
        "failures": failures,
        "max_residuals": {k: float(v) for k, v in residuals.items()},
    }
    if extra:
        out.update(extra)
    return out


def _random_dims(rng, max_total, min_total=2, require=None):
    while True:
        total = int(rng.integers(min_total, max_total + 1))
        n_plus = int(rng.integers(0, total + 1))
        n_minus = total - n_plus
        if n_plus == 0 and n_minus == 0:
            continue
        if require == "balanced" and n_plus != n_minus:
            continue
        if require == "even" and (n_plus % 2 or n_minus % 2 or
                                  n_plus == 0 or n_minus == 0):
            continue
        return n_plus, n_minus


def suite_riesz(n: int = 100, seed: int = 0) -> dict:
    """Riesz projection invariants on random non-normal matrices."""
    t = config.DEFAULT
    rng = np.random.default_rng(seed)
    failures = []
    worst = {"idempotency": 0.0, "commutation": 0.0, "sum": 0.0, "trace": 0.0}
    for k in range(n):
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        try:
            part = spectral.spectral_partition(a)
        except KreinLabError as exc:
            failures.append(f"instance {k}: {exc}")
            continue
        na = numerics.norm(a)
        s = np.zeros_like(a)
        for c in part.clusters:
            p = c.projection
            worst["idempotency"] = max(worst["idempotency"],
                                       numerics.norm(p @ p - p))
            worst["commutation"] = max(worst["commutation"],
                                       numerics.norm(p @ a - a @ p) / na)
            tr = np.trace(p)
            worst["trace"] = max(worst["trace"], abs(tr - round(tr.real)))
            s = s + p
        worst["sum"] = max(worst["sum"], numerics.norm(s - np.eye(10)))
    if worst["idempotency"] > t.riesz:
        failures.append(f"idempotency {worst['idempotency']:.3e}")
    if worst["commutation"] > t.riesz:
        failures.append(f"commutation {worst['commutation']:.3e}")
    if worst["sum"] > t.partition_sum:
        failures.append(f"sum {worst['sum']:.3e}")
    if worst["trace"] > t.riesz_trace:
        failures.append(f"trace {worst['trace']:.3e}")
    return _result("riesz", n, seed, failures, worst)


def suite_signature_law(n: int = 200, seed: int = 0, max_dim: int = 16) -> dict:
    """Sig = N+ - N- for random J-hermitians and J-unitaries."""
    rng = np.random.default_rng(seed)
    failures = []
    worst = {"membership": 0.0}
    for k in range(n):
        n_plus, n_minus = _random_dims(rng, max_dim)
        K = make_standard(n_plus, n_minus)
        kind = "hermitian" if k % 2 == 0 else "unitary"
        a = random_j_hermitian(K, rng.integers(2 ** 63)) if kind == "hermitian" \
            else random_j_unitary(K, rng.integers(2 ** 63))
        try:
            rep = signature.global_signature(a, K, kind)
        except KreinLabError as exc:
            failures.append(f"instance {k} ({kind}, {n_plus},{n_minus}): {exc}")
            continue
        worst["membership"] = max(worst["membership"], rep.membership_residual)
        if rep.global_sig != n_plus - n_minus:
            failures.append(
                f"instance {k} ({kind}): Sig {rep.global_sig} != "
                f"{n_plus - n_minus}")
    return _result("signature-law", n, seed, failures, worst)


def suite_cayley(n: int = 50, seed: int = 0, max_dim: int = 10) -> dict:
    """Cayley transport of inertia and global signature."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(n):
        n_plus, n_minus = _random_dims(rng, max_dim)
        K = make_standard(n_plus, n_minus)
        h = random_j_hermitian(K, rng.integers(2 ** 63))
        try:
            rep = transport_report(h, K)
        except KreinLabError as exc:
            failures.append(f"instance {k}: {exc}")
            continue
        if not rep.inertia_equal:
            failures.append(f"instance {k}: inertia not transported")
        if not rep.sig_equal:
            failures.append(f"instance {k}: Sig not transported")
    return _result("cayley", n, seed, failures, {})


def suite_kramers(n: int = 100, seed: int = 0) -> dict:
    """Even multiplicities at symmetric-point spectrum for eta = -1 kinds."""
    from .realsym import kramers_check

    rng = np.random.default_rng(seed)
    failures = []
    for kind in ((-1, -1), (-1, 1)):
        for k in range(n):
            if kind == (-1, 1):
                n_plus, n_minus = _random_dims(rng, 6, require="even")
            else:
                m = int(rng.integers(1, 4))
                n_plus = n_minus = m
            R = make_real_structure(kind, n_plus, n_minus)
            op_kind = "hermitian" if k % 2 == 0 else "unitary"
            a = random_member(R, op_kind, rng.integers(2 ** 63))
            try:
                rep = kramers_check(a, R, op_kind)
            except KreinLabError as exc:
                failures.append(f"kind {kind} instance {k}: {exc}")
                continue
            if not rep.ok:
                failures.append(
                    f"kind {kind} instance {k} ({op_kind}): odd multiplicity "
                    f"{rep.entries}")
    return _result("kramers", n, seed, failures, {})


def _random_member_path(R, rng, scale=1.5) -> OperatorPath:
    h0 = random_member(R, "hermitian", rng.integers(2 ** 63))
    h1 = random_member(R, "hermitian", rng.integers(2 ** 63))
    h0 = h0 / max(numerics.norm(h0), 1.0) * scale
    h1 = h1 / max(numerics.norm(h1), 1.0) * scale

    def sampler(t):
        return numerics.matrix_exp(1j * ((1.0 - t) * h0 + t * h1))

    return OperatorPath(sampler=sampler, structure=R.K, kind="unitary",
                        real_structure=R, name="random-member-path")


def suite_taxonomy(n: int = 500, seed: int = 0) -> dict:
    """No forbidden event types along random member paths; the curated
    library realizes each scenario; all departures Krein-stable."""
    rng = np.random.default_rng(seed)
    failures = []
    counts: dict[str, int] = {}
    stability_violations = 0
    for kind in ALL_KINDS:
        R = make_real_structure(kind, 2, 2)
        allowed = ALLOWED_EVENTS[kind] | {"PASS_THROUGH"}
        for k in range(n):
            path = _random_member_path(R, rng)
            try:
                trajs = track(path, initial_grid=7, record_inertia=False)
                events = detect_events(trajs, path)
            except KreinLabError as exc:
                failures.append(f"kind {kind} path {k}: {exc}")
                continue
            for e in events:
                counts[e.event_kind] = counts.get(e.event_kind, 0) + 1
                if e.event_kind not in allowed:
                    failures.append(
                        f"kind {kind} path {k}: forbidden event "
                        f"{e.event_kind} at {e.lambda0:.4g}")
            ok, viol = verify_krein_stability(events, trajs)
            if not ok:
                stability_violations += len(viol)
                failures.append(f"kind {kind} path {k}: departure at "
                                f"definite inertia")
    # curated scenarios must realize exactly their fixture events
    for name in ("finex", "kc2x2", "qkc", "tb", "mtb", "pd", "mpd"):
        path = scenario_library(name)
        trajs = track(path, initial_grid=9)
        events = detect_events(trajs, path)
        got = sorted((e.event_kind, round(e.t0, 3)) for e in events
                     if e.event_kind != "PASS_THROUGH")
        want = sorted((d["event_kind"], round(d["t0"], 3))
                      for d in path.expected_events)
        for e in events:
            counts[e.event_kind] = counts.get(e.event_kind, 0) + 1
        if got != want:
            failures.append(f"scenario {name}: events {got} != fixture {want}")
        ok, viol = verify_krein_stability(events, trajs)
        if not ok:
            stability_violations += len(viol)
            failures.append(f"scenario {name}: stability violation")
    for demonstrated in ("KC", "QKC", "TB", "MTB", "PD", "MPD"):
        if counts.get(demonstrated, 0) < 1:
            failures.append(f"event type {demonstrated} never demonstrated")
    return _result("taxonomy", n, seed, failures, {},
                   extra={"event_counts": counts,
                          "stability_violations": stability_violations})


def suite_retraction(n: int = 100, seed: int = 0) -> dict:
    """Trace invariants of the retraction pipeline, per kind and plain."""
    rng = np.random.default_rng(seed)
    failures = []
    worst = {"membership": 0.0, "chain": 0.0, "terminal_spectrum": 0.0,
             "terminal_symmetry": 0.0}
    cases = [None] + list(ALL_KINDS)
    for kind in cases:
        for k in range(n):
            if kind == (-1, 1):
                m = int(rng.choice([2, 4]))
            elif kind == (-1, -1):
                m = int(rng.choice([2, 3, 5]))
            else:
                m = int(rng.integers(2, 7))
            K = make_standard(m, m)
            if kind is None:
                h = random_j_hermitian(K, rng.integers(2 ** 63))
                R = None
            else:
                R = make_real_structure(kind, m, m)
                h = random_member(R, "hermitian", rng.integers(2 ** 63))
            try:
                trace = retract_to_model(h, K, R)
            except KreinLabError as exc:
                failures.append(f"kind {kind} instance {k} (m={m}): {exc}")
                continue
            worst["membership"] = max(worst["membership"],
                                      trace.membership_max_residual)
            worst["chain"] = max(worst["chain"], trace.chain_max_gap)
            worst["terminal_spectrum"] = max(worst["terminal_spectrum"],
                                             trace.terminal_spectrum_residual)
            if trace.terminal_symmetry_residual is not None:
                worst["terminal_symmetry"] = max(
                    worst["terminal_symmetry"], trace.terminal_symmetry_residual)
            if trace.sig_initial != trace.sig_terminal:
                failures.append(f"kind {kind} instance {k}: Sig changed")
    return _result("retraction", n, seed, failures, worst)


def random_gapped_symmetric_unitary(rng, dim: int) -> np.ndarray:
    """exp(i h) for real symmetric h with spectrum in (0.1, 2 pi - 0.1)."""
    g = rng.standard_normal((dim, dim))
    q = np.linalg.qr(g)[0]
    theta = rng.uniform(0.1, 2 * np.pi - 0.1, size=dim)
    h = q @ np.diag(theta) @ q.T
    return numerics.matrix_exp(1j * h)


def random_gapped_odd_symmetric_unitary(rng, dim: int) -> np.ndarray:
    """Gapped v with s* v^t s = v for the standard skew s."""
    s = standard_skew(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h0 = (g + g.conj().T) / 2.0
    h0 = (h0 + s.T @ h0.T @ s) / 2.0
    nrm = max(float(np.linalg.norm(h0, 2)), 1e-12)
    h = np.pi * np.eye(dim) + (np.pi - 0.1) * (h0 / nrm)
    return numerics.matrix_exp(1j * h)


def suite_factorization(n: int = 100, seed: int = 0) -> dict:
    """w^t w (resp. s* w^t s w) factorization residuals of gapped unitaries."""
    bound = config.DEFAULT.factorize
    rng = np.random.default_rng(seed)
    failures = []
    worst = {"symmetric": 0.0, "odd_symmetric": 0.0}
    for k in range(n):
        dim = int(rng.integers(2, 9))
        v = random_gapped_symmetric_unitary(rng, dim)
        try:
            w = factorize_unitary(v, "symmetric")
            res = numerics.norm(w.T @ w - v)
        except KreinLabError as exc:
            failures.append(f"symmetric {k}: {exc}")
            continue
        worst["symmetric"] = max(worst["symmetric"], res)
        if res > bound:
            failures.append(f"symmetric {k}: residual {res:.3e}")
    for k in range(n):
        dim = 2 * int(rng.integers(1, 5))
        s = standard_skew(dim)
        v = random_gapped_odd_symmetric_unitary(rng, dim)
        try:
            w = factorize_unitary(v, "odd-symmetric", s=s)
            res = numerics.norm(s.T @ w.T @ s @ w - v)
        except KreinLabError as exc:
            failures.append(f"odd-symmetric {k}: {exc}")
            continue
        worst["odd_symmetric"] = max(worst["odd_symmetric"], res)
        if res > bound:
            failures.append(f"odd-symmetric {k}: residual {res:.3e}")
    return _result("factorization", n, seed, failures, worst)


def run_suite(name: str, n: int | None = None, seed: int = 0) -> dict:
    runners = {
        "riesz": (suite_riesz, 100),
        "signature-law": (suite_signature_law, 200),
        "cayley": (suite_cayley, 50),
        "kramers": (suite_kramers, 100),
        "taxonomy": (suite_taxonomy, 500),
        "retraction": (suite_retraction, 100),
        "factorization": (suite_factorization, 100),
    }
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    fn, default_n = runners[name]
    start = time.monotonic()
    out = fn(n=default_n if n is None else n, seed=seed)
    out["elapsed_seconds"] = round(time.monotonic() - start, 3)
    return out
